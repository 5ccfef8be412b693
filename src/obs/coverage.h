#ifndef SRC_OBS_COVERAGE_H_
#define SRC_OBS_COVERAGE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"

namespace gauntlet {

// Semantic coverage: named points grouped into domains, each an ordinary
// counter `coverage/<domain>/<point>` in the metrics registry, so the
// metrics.json run report carries them. Every domain but
// detection-latency-wall is deterministic: its points derive from campaign
// outcomes (generated ASTs, enumerated symbolic paths, witness models) that
// the runtime already guarantees are schedule-independent, so they are
// bit-identical for any --jobs value and with the validation cache on or
// off.
//
// The standard domains a campaign populates:
//
//   gen-construct       AST construct census of every generated/replayed
//                       program (headers, tables, if/else, slices, ...).
//   path-shape          symbolic path classes reached by testgen: decision
//                       depth buckets, branch kinds, and per-test path
//                       classes (table-hit, table-miss, multi-entry,
//                       priority-inversion, parser-reject, forwarded).
//   table-config        table configurations realised in witness models:
//                       installed slot counts, keyless tables, overlapping
//                       and divergent (shadowed) entry pairs.
//   fault-trigger       per catalogued fault: seeded, exercised (a program
//                       plus path shape that could trigger it was tested),
//                       detected, and first_detection_index once detected.
//   detection-latency   per detected fault: tests generated before the
//                       first finding (deterministic).
//   detection-latency-wall  per detected fault: wall-clock micros until the
//                       first finding (timing — varies run to run).

// The metric name of one coverage point: "coverage/<domain>/<point>".
std::string CoverageKey(std::string_view domain, std::string_view point);

// Adds `delta` hits to a deterministic coverage point in the calling
// thread's metrics sink; delta 0 still creates the key. No-op when no sink
// is installed on this thread.
void CoverPoint(std::string_view domain, std::string_view point, uint64_t delta = 1);

// The readers below look at a registry's `coverage/` keys only; `gauntlet
// coverage` feeds them a parsed metrics.json (ParseMetricsJson).

// Human-readable per-domain listing plus a blind-spot section: faults
// seeded but never exercised, faults exercised but never detected, and
// deterministic points recorded with a zero count.
std::string CoverageReportText(const MetricsRegistry& registry);

// Diff of two registries' coverage points (before -> after). Deterministic
// points count toward `deterministic_differences` (added, removed, or
// changed); timing points are listed but never counted, matching the
// metrics contract.
struct CoverageDiff {
  int deterministic_differences = 0;
  std::string text;
};
CoverageDiff DiffCoverage(const MetricsRegistry& before, const MetricsRegistry& after);

// Blind-spot gate: every fault marked seeded in the fault-trigger domain
// must be exercised and detected with a recorded first_detection_index.
// Returns the number of violations and appends one line per violation to
// *out.
int CoverageBlindSpotViolations(const MetricsRegistry& registry, std::string* out);

}  // namespace gauntlet

#endif  // SRC_OBS_COVERAGE_H_
