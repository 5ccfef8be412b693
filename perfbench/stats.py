"""The one timing summary every benchmark timing goes through.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, together with the sample count: with fewer
samples beyond it, a percentile is a guess about one or two outliers.
Percentiles use the nearest-rank definition over a fixed ladder, so a value
is always one of the measured samples.
"""

import math
import statistics
from fractions import Fraction

# Percentiles considered for the tail, lowest first.
LADDER = ("50", "75", "90", "95", "99", "99.9")
# Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(p, n):
    """1-based nearest rank of percentile p (a decimal string) among n."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile p (number or decimal string) of values."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(str(p), len(ordered)) - 1]


def summarize(values):
    """Median, tail percentile and sample count of a list of timings.

    Returns a dict with keys median, n, tail_p (the percentile label such
    as "90", or None when no percentile has MIN_BEYOND samples beyond it)
    and tail (its value, or None).
    """
    if not values:
        raise ValueError("summary of no samples")
    ordered = sorted(values)
    n = len(ordered)
    tail_p = None
    for p in LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            tail_p = p
    return {
        "median": statistics.median(ordered),
        "n": n,
        "tail_p": tail_p,
        "tail": ordered[_rank(tail_p, n) - 1] if tail_p is not None else None,
    }


def describe(values, unit):
    """One human-readable line for a timing summary."""
    s = summarize(values)
    text = f"median {s['median']:.6g} {unit}"
    if s["tail_p"] is not None:
        text += f", p{s['tail_p']} {s['tail']:.6g} {unit}"
    else:
        text += f", no percentile has {MIN_BEYOND} samples beyond it"
    return text + f" (n={s['n']})"
