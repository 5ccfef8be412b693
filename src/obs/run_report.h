#ifndef SRC_OBS_RUN_REPORT_H_
#define SRC_OBS_RUN_REPORT_H_

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace gauntlet {

// Schema version of the metrics.json snapshot. Bump when keys are renamed
// or the section layout changes, so report consumers can gate on it.
// Version 2 added p50/p90/p99 summaries to timing-section histograms.
inline constexpr int kRunReportVersion = 2;

// Renders a registry as the versioned two-section run report:
//
//   {
//     "version": 1,
//     "deterministic": { "campaign/findings_total": 3, ... },
//     "timing": { "smt/conflicts": 812, "time/validate/micros": 94012, ... }
//   }
//
// Keys are sorted, the layout is byte-stable (2-space indent, one key per
// line), and histograms render as {"bounds": [...], "counts": [...],
// "total": N}. Two registries with equal deterministic metrics therefore
// produce byte-identical "deterministic" sections — the property the
// campaign determinism tests and CI gates diff on.
std::string MetricsJson(const MetricsRegistry& registry);

// Parses a MetricsJson string back into a registry. Accepts exactly the
// layout MetricsJson emits: the version header, then the deterministic and
// timing sections, each a map from names to unsigned values or to
// histograms ({"bounds", "counts", "total"} in that order, plus "p50",
// "p90", "p99" in the timing section) whose sorted bounds, counts, total
// and percentiles agree. Counters and gauges render alike and read back as
// counters, so MetricsJson of the result reproduces the text byte for
// byte. Returns false, sets *error and leaves *out untouched on anything
// else.
bool ParseMetricsJson(const std::string& text, MetricsRegistry* out, std::string* error);

// Extracts the byte span of the "deterministic": {...} object from a
// MetricsJson string, for byte-level comparisons. Returns an empty string
// if the text does not parse or the section is absent.
std::string DeterministicSection(const std::string& metrics_json);

// Renders collected spans in Chrome trace-event format — a JSON object with
// a "traceEvents" array of complete ("ph":"X") events — loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
std::string TraceJson(const std::vector<TraceEvent>& events);

// Atomic write helpers (src/support/file_io.h); false when the write fails
// (reporting is the caller's job — the CLI decides whether that is fatal).
bool WriteMetricsFile(const std::string& path, const MetricsRegistry& registry);
bool WriteTraceFile(const std::string& path, const TraceCollector& collector);

}  // namespace gauntlet

#endif  // SRC_OBS_RUN_REPORT_H_
