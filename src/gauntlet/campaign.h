#ifndef SRC_GAUNTLET_CAMPAIGN_H_
#define SRC_GAUNTLET_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/gen/generator.h"
#include "src/passes/bugs.h"
#include "src/target/target.h"
#include "src/testgen/testgen.h"
#include "src/tv/validator.h"

namespace gauntlet {

struct CacheStats;
class CoverageMap;
class MetricsRegistry;
class TraceCollector;
class ValidationCache;

// How a finding was detected — the paper's three techniques.
enum class DetectionMethod {
  kCrash,                  // random program induced abnormal termination (§4)
  kTranslationValidation,  // pass-pair equivalence failed (§5)
  kPacketTest,             // generated test case failed on a target (§6)
};

std::string DetectionMethodToString(DetectionMethod method);

// Inverse of DetectionMethodToString; nullopt for unknown text. Used when
// deserializing findings from shard-result files (src/dist/).
std::optional<DetectionMethod> DetectionMethodFromString(const std::string& text);

// One detected compiler bug occurrence.
struct Finding {
  int program_index = 0;
  DetectionMethod method = DetectionMethod::kCrash;
  BugKind kind = BugKind::kCrash;
  // The compiler component blamed: the failing pass (translation validation
  // pinpoints it, §5.2), the crash site, or the back end for black-box
  // findings.
  std::string component;
  // The seeded fault this finding was attributed to (by re-running the
  // detector with candidate faults disabled — the "fix and confirm" cycle).
  std::optional<BugId> attributed;
  std::string detail;
  // For packet-test findings: the failing test, ready for an STF corpus
  // (crash and translation-validation findings carry no packet).
  std::optional<PacketTest> repro_test;
};

struct CampaignOptions {
  uint64_t seed = 1;
  int num_programs = 50;
  GeneratorOptions generator;
  TestGenOptions testgen;
  // Budgets for the per-program translation validation runs.
  TvOptions tv;
  bool run_translation_validation = true;
  bool run_packet_tests = true;
  // Back ends to replay packet tests on, by registry name, in this order.
  // Empty means every registered target in registration order.
  std::vector<std::string> targets;
  // Attribute findings to seeded faults via delta-debugging reruns.
  bool attribute_findings = true;
  // Memoize bit-blasted fragments and equivalence verdicts across the
  // programs a worker processes (src/cache/). Replay is bit-exact, so the
  // report is identical either way; `gauntlet ... --no-cache` turns it off.
  bool use_cache = true;
  // When the campaign targets exactly one back end, shape the generated
  // fodder with that target's GeneratorBias (the §4.2 back-end-specific
  // skeleton). Off = the target-agnostic program stream.
  bool bias_generator = true;

  // --- observability (src/obs/), all optional and observation-only ---
  // Findings and reports are bit-identical with these on or off.
  //
  // Destination for the run's metrics; the driver merges per-worker
  // registries into it in worker-index order and folds in the report's
  // deterministic counters. Owned by the caller, must outlive the run.
  MetricsRegistry* metrics = nullptr;
  // Destination for TraceSpan phase timings (Chrome trace-event JSON via
  // src/obs/run_report.h). Owned by the caller, must outlive the run.
  TraceCollector* trace = nullptr;
  // Destination for the semantic coverage map (src/obs/coverage.h): the
  // driver merges per-worker maps into it in worker-index order and folds
  // in the fault-trigger / detection-latency domains computed on the merged
  // report. Owned by the caller, must outlive the run.
  CoverageMap* coverage = nullptr;
  // Called after each tested program with (programs done, findings so far).
  // May be invoked concurrently from workers; drives `--progress`.
  std::function<void(uint64_t, uint64_t)> progress;
};

// How quickly one seeded fault fell: the Klees-et-al.-style time-to-
// detection accounting. The program/test counters are deterministic (they
// derive from the schedule-independent program stream); wall_micros is
// wall-clock and legitimately varies run to run, so consumers must keep it
// in timing-scoped output only.
struct DetectionLatency {
  int first_program_index = 0;  // program whose testing first found the fault
  int tests_at_detection = 0;   // packet tests generated before that finding
  int findings = 0;             // total findings attributed to the fault
  uint64_t wall_micros = 0;     // TraceNowMicros() at the first finding
};

struct CampaignReport {
  int programs_generated = 0;
  int programs_with_crash = 0;
  int programs_with_semantic = 0;
  int tests_generated = 0;
  int undef_divergences = 0;   // "suspicious transformation" reports
  int structural_mismatches = 0;  // §8 simulation-relation false alarms
  std::vector<Finding> findings;

  // Per-fault detection latency, keyed by attributed fault. Merge keeps the
  // earliest detection (lowest program index under index-order merging).
  std::map<BugId, DetectionLatency> latency;

  // TraceNowMicros() when the driver started the run; lets RecordCoverage
  // turn the absolute wall_micros stamps into micros-since-start.
  uint64_t run_start_micros = 0;

  // Distinct confirmed bugs (by attributed fault; unattributed findings
  // count once per component string).
  std::set<BugId> distinct_bugs;
  std::set<std::string> unattributed_components;

  size_t DistinctCount() const {
    return distinct_bugs.size() + unattributed_components.size();
  }
  std::map<BugLocation, int> DistinctByLocation() const;
  std::map<BugKind, int> DistinctByKind() const;
  int CountDistinct(BugLocation location, BugKind kind) const;

  // Folds `other` into this report: counters add, findings append in
  // `other`'s order, distinct sets union. Merging per-program reports in
  // program-index order gives the same report whatever the schedule or
  // topology that produced them.
  void Merge(CampaignReport&& other);

  // Folds the report's outcome counters into `registry` under `campaign/...`
  // names. Everything derived from the (schedule-independent) merged report
  // lands in the deterministic section, except structural_mismatches, which
  // includes wall-clock budget exhaustion and therefore stays timing-scoped.
  void RecordMetrics(MetricsRegistry& registry) const;

  // Folds the merged report's campaign-level domains into `map`: the
  // fault-trigger domain (seeded/detected/first_detection_index for every
  // catalogued fault — "exercised" counters are recorded per worker during
  // TestProgram) and the detection-latency domains. Deterministic except
  // detection-latency-wall, which carries the wall-clock stamps.
  void RecordCoverage(CoverageMap& map, const BugConfig& bugs) const;

  // The single fold a finished run performs on its merged report: into
  // `metrics` (when non-null) the report's counters, then `cache_stats`'
  // counters (when non-null); into `coverage` (when non-null) the
  // campaign-level domains. Every driver that owns sinks calls this once,
  // after merging its raw worker/shard telemetry into them.
  void FoldInto(MetricsRegistry* metrics, CoverageMap* coverage, const CacheStats* cache_stats,
                const BugConfig& bugs) const;
};

// The per-program bug detector: on one random program (§4), run
// translation validation over the open pass pipeline (§5) and replay
// generated test packets on every selected registered target (§6). The
// loop over programs is ParallelCampaign::Run (src/runtime/), the one
// campaign driver.
class Campaign {
 public:
  explicit Campaign(CampaignOptions options) : options_(std::move(options)) {}

  // Runs all three detection techniques on one program, recording findings
  // into `report`. Const and self-contained, so concurrent calls on one
  // Campaign are safe as long as each carries its own `cache` (or none).
  void TestProgram(const Program& program, const BugConfig& bugs, int program_index,
                   CampaignReport& report, ValidationCache* cache = nullptr) const;

  // The targets this campaign replays on (options.targets resolved against
  // the registry; throws CompileError on an unknown name).
  std::vector<const Target*> SelectedTargets() const;

  // The generator options this campaign actually runs: the configured base,
  // reshaped by the single selected target's GeneratorBias when exactly one
  // back end is targeted (and bias_generator is on).
  GeneratorOptions EffectiveGeneratorOptions() const;

 private:
  void AttributeCrash(Finding& finding, const std::string& message) const;
  void AttributeTvFinding(Finding& finding, const TvReport& tv_report, const BugConfig& bugs,
                          const std::string& pass_name, ValidationCache* cache) const;
  void AttributeBlackBox(Finding& finding, const BugConfig& bugs, const Target& target,
                         const Program& program, const PacketTest& test) const;
  static void Record(CampaignReport& report, Finding finding);

  CampaignOptions options_;
};

}  // namespace gauntlet

#endif  // SRC_GAUNTLET_CAMPAIGN_H_
