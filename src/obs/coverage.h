#ifndef SRC_OBS_COVERAGE_H_
#define SRC_OBS_COVERAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"

namespace gauntlet {

// Schema version of the coverage.json snapshot. Bumped on key renames or
// layout changes, independently of kRunReportVersion.
inline constexpr int kCoverageVersion = 1;

// A map of named coverage domains, each a set of named points with hit
// counts. Domains follow the same deterministic/timing split as metrics:
// points in a kDeterministic domain must be bit-identical for any --jobs
// value and with the validation cache on or off, because they derive from
// campaign outcomes (generated ASTs, enumerated symbolic paths, witness
// models) that the runtime already guarantees are schedule-independent.
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
//   detection-latency   per detected fault: programs/tests until the first
//                       finding (deterministic).
//   detection-latency-wall  per detected fault: wall-clock micros until the
//                       first finding (timing — varies run to run).
//
// Like MetricsRegistry, a CoverageMap is not thread-safe: each worker owns
// one and the driver merges them in worker-index order, so the merged
// result is independent of scheduling.
class CoverageMap {
 public:
  struct Domain {
    MetricScope scope = MetricScope::kDeterministic;
    std::map<std::string, uint64_t, std::less<>> points;
  };

  // Adds `delta` hits to a point, creating it at zero first. Passing
  // delta 0 still creates the key — used so the deterministic section has
  // a stable key set regardless of what a particular run reached.
  void Record(std::string_view domain, std::string_view point, MetricScope scope,
              uint64_t delta = 1);

  // Overwrites a point with an absolute value. Only meaningful after the
  // per-worker merge (e.g. first-detection indices computed on the merged
  // campaign report); worker-side recording must use Record so merging
  // stays commutative over counts.
  void Set(std::string_view domain, std::string_view point, MetricScope scope, uint64_t value);

  // Folds `other` into this map: point counts sum, missing domains/points
  // are created. Merging worker maps in index order yields the same result
  // for any scheduling of the underlying work.
  void MergeFrom(const CoverageMap& other);

  uint64_t Value(std::string_view domain, std::string_view point) const;
  bool Has(std::string_view domain, std::string_view point) const;

  // Sorted by domain then point name (std::map), which keeps every
  // rendering byte-stable.
  const std::map<std::string, Domain, std::less<>>& domains() const { return domains_; }

  bool empty() const { return domains_.empty(); }
  void Clear() { domains_.clear(); }

 private:
  std::map<std::string, Domain, std::less<>> domains_;
};

// --- thread-local sink -----------------------------------------------------
//
// Mirrors the metrics sink: recording sites deep in the pipeline (generator
// census, testgen path enumeration) write to the calling thread's current
// coverage sink, installed per worker by the campaign driver. With no sink
// installed every call is a null-check and return.

CoverageMap* CurrentCoverage();

class ScopedCoverageSink {
 public:
  explicit ScopedCoverageSink(CoverageMap* map);
  ~ScopedCoverageSink();
  ScopedCoverageSink(const ScopedCoverageSink&) = delete;
  ScopedCoverageSink& operator=(const ScopedCoverageSink&) = delete;

 private:
  CoverageMap* previous_;
};

// No-op when no sink is installed on this thread.
void CoverPoint(std::string_view domain, std::string_view point, MetricScope scope,
                uint64_t delta = 1);

// Renders the map as a versioned two-section report in the same layout as
// MetricsJson, so DeterministicSection() (run_report.h) applies to it:
//
//   {
//     "version": 1,
//     "deterministic": {
//       "fault-trigger": { "predication-lost-else/seeded": 1, ... },
//       ...
//     },
//     "timing": { ... }
//   }
std::string CoverageJson(const CoverageMap& map);

// Parses a CoverageJson string back into a map. Accepts exactly the layout
// CoverageJson emits (version, then two sections of domains of unsigned
// integer points); returns false, sets *error and leaves *out untouched on
// anything else.
bool ParseCoverageJson(const std::string& text, CoverageMap* out, std::string* error);

// Human-readable per-domain listing plus a blind-spot section: faults
// seeded but never exercised, faults exercised but never detected, and
// deterministic points recorded with a zero count.
std::string CoverageReportText(const CoverageMap& map);

// Diff of two coverage snapshots (before -> after). Deterministic
// domains count toward `deterministic_differences` (added, removed, or
// changed points); timing domains are listed but never counted, matching
// the metrics contract.
struct CoverageDiff {
  int deterministic_differences = 0;
  std::string text;
};
CoverageDiff DiffCoverage(const CoverageMap& before, const CoverageMap& after);

// Blind-spot gate over a single snapshot: every fault marked seeded in the
// fault-trigger domain must be exercised and detected with a recorded
// first_detection_index. Returns the number of violations and appends one
// line per violation to *out.
int CoverageBlindSpotViolations(const CoverageMap& map, std::string* out);

// Atomic write (src/support/file_io.h); false when the write fails.
bool WriteCoverageFile(const std::string& path, const CoverageMap& map);

}  // namespace gauntlet

#endif  // SRC_OBS_COVERAGE_H_
