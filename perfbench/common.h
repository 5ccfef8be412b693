// Shared pieces of the perfbench binary: clocks, the raw-result
// JSON writer, report fingerprints, and the per-layer readout of the
// metrics and trace events the program already exports.
//
// The benchmark only calls public entry points of the gauntlet library and
// reads what CampaignOptions.metrics / CampaignOptions.trace collect; it
// adds no instrumentation to the program under test.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/gauntlet/campaign.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {

// Everything this process was asked to run, parsed from the command line.
struct BenchConfig {
  std::string mode;            // "campaign" or "serve"
  uint64_t campaign_seed = 0;  // seeds the generated program stream
  uint64_t order_seed = 0;     // seeds target order / submission order
  int programs = 0;
  int jobs = 1;
  std::vector<std::string> bugs;
  // Components whose unattributed findings are a recorded attribution gap
  // of this workload rather than a failure.
  std::set<std::string> known_unattributed;
  double seconds = 1;
  bool trace = false;
  bool setup_only = false;
  int64_t spawn_ns = 0;        // CLOCK_MONOTONIC at spawn, from the runner
  std::string scratch_dir;     // where the serve socket goes
  std::string trace_file;      // where traced runs write their spans
};

// The two workload runners; each prints one RawResult JSON line on stdout.
int RunCampaignBench(const BenchConfig& config);
int RunServeBench(const BenchConfig& config);

double MonotonicSeconds();
double ProcessCpuSeconds();
int64_t PeakRssKb();
// Seconds from the runner's spawn timestamp to now.
double SecondsSinceSpawn(const BenchConfig& config);

// A deterministic Fisher-Yates permutation of 0..n-1 (splitmix64 stream),
// identical on every platform.
std::vector<int> Permutation(int n, uint64_t seed);

// Campaign options shared by every workload: wall-clock solver budgets
// zeroed (the CLI's --no-budgets), deterministic conflict budget kept,
// cache and incremental solving at their defaults (on).
gauntlet::CampaignOptions BaseCampaignOptions();

gauntlet::BugConfig BugsFromNames(const std::vector<std::string>& names);

// Hex FNV-1a digest over every schedule-independent field of a report:
// counters, each finding with its detail and repro test, distinct sets.
std::string ReportFingerprint(const gauntlet::CampaignReport& report);

// The interval one program (or serve request) occupied on one worker, on
// the gauntlet::TraceNowMicros() clock. `tid` is the trace buffer the
// program's own events landed in.
struct ProgramInterval {
  int program = 0;
  int tid = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
};

// What the program's trace events say once each is assigned to the
// interval that contains it.
struct LayerEvents {
  double program_ms = 0;         // sum of the interval lengths
  double validate_max_ms = 0;    // slowest single TranslationValidator::Validate
  double packets = 0;            // packet tests replayed across all targets
  std::vector<double> solve_us;  // every smt-solve duration
  // One "program" span per interval plus its layer events (generate,
  // validate, attribute, testgen-*, compile:*, execute:*), each carrying
  // args {program, id, parent}: a program's spans share `program`, and
  // `parent` is the id of its "program" span (0 for that span itself).
  std::vector<gauntlet::TraceEvent> spans;
};

// Assigns each trace event to the interval on the same tid that contains
// its start; events outside every interval are ignored.
LayerEvents AttributeLayerEvents(const std::vector<ProgramInterval>& intervals,
                                 const std::vector<gauntlet::TraceEvent>& events);

// Reads span totals (time/<span>/micros, .../calls) and counters from the
// registry the program filled, remembering every name it did not find, so
// a renamed span or counter is reported instead of silently reading 0.
class RegistryReader {
 public:
  explicit RegistryReader(const gauntlet::MetricsRegistry& registry) : registry_(registry) {}
  double Counter(const std::string& name);
  double SpanMs(const std::string& span);
  double SpanCalls(const std::string& span);
  const std::set<std::string>& absent() const { return absent_; }

 private:
  const gauntlet::MetricsRegistry& registry_;
  std::set<std::string> absent_;
};

// The per-layer values every workload shares: the program's span totals
// and counters, what the trace events added, and the campaign driver's
// self time (campaign.driver_ms: per-program time minus the generate,
// validate, testgen, compile and execute spans, i.e. attribution plus the
// driver's own overhead). Each workload adds gen.*, frontend.* and serve.*.
std::map<std::string, double> LayerValues(RegistryReader& registry, const LayerEvents& events,
                                          const gauntlet::CampaignReport& report);

// Writes spans as Chrome trace-event JSON (loadable in Perfetto).
void WriteSpanFile(const std::string& path, const std::vector<gauntlet::TraceEvent>& spans);

// Wall/CPU time of one untraced repetition, with its per-unit (program or
// request) latencies and the worker-utilisation readout.
struct RepTiming {
  double wall_s = 0;
  double cpu_s = 0;
  double busy_ratio = 0;
  double tail_idle_s = 0;
  std::vector<double> unit_ms;
};

// Everything one benchmark process measured and checked, handed to the
// runner as one JSON line; the runner derives every reported statistic.
struct RawResult {
  double setup_s = 0;
  std::vector<RepTiming> untraced;
  std::vector<double> traced_wall_s;
  std::vector<std::map<std::string, double>> traced_layers;
  std::vector<double> solve_us;  // every smt-solve span of the traced reps
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<std::string> distinct_bugs;  // attributed seeded faults
  std::vector<std::string> unattributed;   // components of unattributed findings
  std::set<std::string> absent_keys;       // registry names a traced rep did not find
  double tv_undecided = 0;
  std::string trace_file;
};

std::string RawResultJson(const RawResult& result);

// Repetition schedule shared by the workloads. Untraced: at least three
// repetitions (a median needs them), then more while they fit in
// config.seconds.
// Traced: one untraced and two traced repetitions, then alternating pairs
// while they fit. Never starts a repetition past a hard cap, so the process
// ends well inside its time limit even on a slow machine.
void RunSchedule(const BenchConfig& config, const std::function<void()>& untraced,
                 const std::function<void()>& traced);

// Minimal JSON emitter for the raw result the runner post-processes.
class JsonWriter {
 public:
  void Key(const std::string& key);
  void Number(double value);
  void Integer(int64_t value);
  void String(const std::string& value);
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void NumberArray(const std::vector<double>& values);
  void StringArray(const std::vector<std::string>& values);
  void NumberMap(const std::map<std::string, double>& values);
  const std::string& str() const { return out_; }

 private:
  void Separator();
  void Quote(const std::string& value);
  std::string out_;
  std::vector<bool> first_;  // per open container: nothing written yet
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
