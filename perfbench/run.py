#!/usr/bin/env python3
"""Campaign benchmark for the gauntlet bug finder.

Builds perfbench/ (the gauntlet library plus the perfbench binary) into
.bench_build/perfbench, runs one workload and prints every metric by name
with its unit. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer breakdown of a traced run. The exit status is nonzero when a
correctness check fails or the workload cannot run.

  python3 perfbench/run.py --workload tv-tail --seed 1 --seconds 35 --trace 0

--seed permutes the order in which the workload's fixed inputs are
presented (back-end order for campaigns, submission order for serve); the
program set itself comes from the workload's campaign seed, which
--campaign-seed overrides (for example with the workload's held-out seed).
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
# Extra processes launched only to time set-up; the measured run adds one.
SETUP_LAUNCHES = 6
RUN_TIMEOUT_S = 160

# Per-layer metrics run.py derives itself; the binary emits all the others.
DERIVED = {"runtime.worker_busy_ratio", "runtime.tail_idle_s", "smt.solve_p99_us",
           "trace.overhead_ratio"}

# Template-replay hits depend on which programs a worker happened to claim,
# so they repeat exactly only with one worker.
SCHEDULE_DEPENDENT = {"cache.blast_hits", "cache.clauses_reused"}


class BenchError(Exception):
    """The workload could not be built or run; no result is printed."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no gauntlet sources under {ROOT}/src to build")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("configuring perfbench failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        raise BenchError("building perfbench failed")
    return os.path.join(BUILD_DIR, "perfbench")


def launch(binary, args, timeout):
    """Runs the perfbench binary once and returns its raw JSON result."""
    spawn_ns = time.monotonic_ns()
    try:
        done = subprocess.run([binary, *args, "--spawn-ns", str(spawn_ns)],
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"perfbench did not finish within {timeout} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"perfbench exited with status {done.returncode}")
    return json.loads(lines[-1])


def binary_args(workload, campaign_seed, order_seed, seconds):
    args = [workload["mode"], "--campaign-seed", str(campaign_seed),
            "--programs", str(workload["programs"]), "--jobs", str(workload["jobs"]),
            "--order-seed", str(order_seed), "--seconds", str(seconds),
            "--scratch-dir", RUN_DIR]
    for bug in workload["bugs"]:
        args += ["--bug", bug]
    expected = workload["expected"].get(str(campaign_seed))
    for component in (expected or {}).get("unattributed", []):
        args += ["--known-unattributed", component]
    return args


def catalogue():
    """(name, unit) of the end-to-end and per-layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def check_faults(expected, raw, errors):
    """The recorded expected fault set must be detected. Its unattributed
    components are tolerated (the binary was told so), not required."""
    detected = set(raw["distinct_bugs"])
    for missing in sorted(set(expected["faults"]) - detected):
        errors.append(f"expected fault not detected: {missing}")


def end_to_end_metrics(raw, setup_samples):
    walls = [rep["wall_s"] for rep in raw["untraced"]]
    cpus = [rep["cpu_s"] for rep in raw["untraced"]]
    units = [ms for rep in raw["untraced"] for ms in rep["unit_ms"]]
    print(f"  wall_s          {stats.describe(walls, 's')}")
    print(f"  cpu_s           {stats.describe(cpus, 's')}")
    print(f"  program latency {stats.describe(units, 'ms')}")
    print(f"  setup_s         {stats.describe(setup_samples, 's')}")
    return {
        "wall_s": stats.summarize(walls)["median"],
        "cpu_s": stats.summarize(cpus)["median"],
        "program_p50_ms": stats.summarize(units)["median"],
        "program_p90_ms": stats.percentile(units, 90),
        "setup_s": stats.summarize(setup_samples)["median"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer_metrics(raw, workload, expected, errors, per_layer):
    layers = raw["traced_layers"]
    untraced = raw["untraced"]
    values = {
        "runtime.worker_busy_ratio":
            stats.summarize([rep["busy_ratio"] for rep in untraced])["median"],
        "runtime.tail_idle_s": stats.summarize([rep["tail_idle_s"] for rep in untraced])["median"],
        "smt.solve_p99_us": stats.percentile(raw["solve_us"], 99) if raw["solve_us"] else 0.0,
        "trace.overhead_ratio": stats.summarize(raw["traced_wall_s"])["median"]
        / stats.summarize([rep["wall_s"] for rep in untraced])["median"],
    }
    print(f"  traced wall_s   {stats.describe(raw['traced_wall_s'], 's')}")
    if raw["solve_us"]:
        print(f"  smt solve       {stats.describe(raw['solve_us'], 'us')}")
    if raw["absent_keys"]:
        print(f"  registry names never recorded: {', '.join(raw['absent_keys'])}")
    wanted = {name for name, _ in per_layer} - DERIVED
    for rep in layers:
        if set(rep) != wanted:
            errors.append(f"per-layer metrics the binary emitted differ from BENCHMARK.json: "
                          f"missing {sorted(wanted - set(rep))}, extra {sorted(set(rep) - wanted)}")
            break
    for name, unit in per_layer:
        if name in values:
            continue
        # A missing metric already failed the check above.
        samples = [rep.get(name, 0.0) for rep in layers]
        exact = unit == "count" and not (workload["jobs"] > 1 and name in SCHEDULE_DEPENDENT)
        if exact and len(set(samples)) != 1:
            errors.append(f"work count {name} differs between traced runs: {samples}")
        values[name] = samples[0] if unit == "count" else stats.summarize(samples)["median"]
    if expected is not None:
        # A span or counter the program stopped exporting reads 0; only the
        # layers that were 0 when the baseline was recorded may.
        for name, _ in per_layer:
            if values[name] == 0 and name not in expected["zero_layers"]:
                errors.append(f"{name} reads 0 but was nonzero at the baseline")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="order seed: permutes how the fixed inputs are presented")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=None,
                        help="program-stream seed; defaults to the workload's own")
    args = parser.parse_args()

    try:
        with open(os.path.join(HERE, "workloads.json")) as handle:
            workloads = json.load(handle)
        if args.workload not in workloads:
            raise BenchError(f"unknown workload '{args.workload}' "
                             f"(known: {', '.join(sorted(workloads))})")
        workload = workloads[args.workload]
        end_to_end, per_layer = catalogue()
        campaign_seed = (args.campaign_seed if args.campaign_seed is not None
                         else workload["campaign_seed"])
        binary = build()
        os.makedirs(RUN_DIR, exist_ok=True)
        base = binary_args(workload, campaign_seed, args.seed, args.seconds)
        setup_samples = [launch(binary, base + ["--setup-only"], 60)["setup_s"]
                         for _ in range(SETUP_LAUNCHES)]
        run_args = base + (["--trace", "--trace-file",
                            os.path.join(RUN_DIR, f"trace-{args.workload}.json")]
                           if args.trace else [])
        raw = launch(binary, run_args, RUN_TIMEOUT_S)
    except BenchError as error:
        log(str(error))
        return 2
    setup_samples.append(raw["setup_s"])

    errors = list(raw["errors"])
    expected = workload["expected"].get(str(campaign_seed))
    if expected is None:
        log(f"nothing is recorded for campaign seed {campaign_seed}; only generic checks run")
    else:
        check_faults(expected, raw, errors)
    print(f"workload {args.workload}: campaign seed {campaign_seed}, order seed {args.seed}, "
          f"{len(raw['untraced'])} untraced + {len(raw['traced_wall_s'])} traced repetitions")
    if args.trace:
        metrics = per_layer
        values = per_layer_metrics(raw, workload, expected, errors, per_layer)
        if raw["trace_file"]:
            print(f"  spans written to {os.path.relpath(raw['trace_file'], ROOT)}")
    else:
        metrics = end_to_end
        values = end_to_end_metrics(raw, setup_samples)
    distinct = len(raw["distinct_bugs"]) + len(raw["unattributed"])
    print(f"  error_rate      {raw['failed']}/{raw['attempted']} failed; "
          f"tv_undecided {raw['tv_undecided']:.0f}; distinct bugs {distinct} "
          f"({len(raw['unattributed'])} unattributed components)")
    for name, unit in metrics:
        print(f"  {name} = {values[name]:.6g} {unit}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")

    result = {
        "correct": not errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
