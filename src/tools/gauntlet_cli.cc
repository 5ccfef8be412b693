// The `gauntlet` command-line tool: the packaging a downstream user drives.
//
//   gauntlet compile <file.p4>              type-check + run the pass pipeline,
//                                           print the program after every pass
//   gauntlet validate <file.p4> [--bug B]   translation-validate the pipeline
//   gauntlet testgen <file.p4>              emit STF-style packet tests
//   gauntlet campaign [N] [seed] [--jobs J] [--corpus DIR] [--targets T,..]
//                                           random-program campaign + STF corpus
//   gauntlet fuzz ...                       alias of `campaign`
//   gauntlet replay <file.p4> <file.stf>    re-run a stored reproducer
//   gauntlet replay --corpus DIR            bulk-replay every stored triple
//   gauntlet reduce <file.p4> --bug B       shrink a reproducer
//   gauntlet bugs                           list the seeded-fault catalogue
//
// Programs are mini-P4 (see README). --bug takes catalogue names from
// `gauntlet bugs`; --targets takes a comma-separated subset of the
// registered back ends (default: all of them).
//
// Argument handling is strict: unknown flags, malformed numbers, missing
// flag values and surplus positionals are usage errors (exit 2), never
// silently ignored.
//
// Exit codes are gateable: commands that *check* something (validate,
// testgen, fuzz, campaign, replay) exit nonzero when they find problems —
// semantic diffs, zero generated tests, campaign findings, packet
// mismatches, still-failing reproducers — so CI scripts can run them
// directly.

#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_file.h"
#include "src/cache/verdict_cache.h"
#include "src/dist/coordinator.h"
#include "src/dist/serve.h"
#include "src/dist/shard.h"
#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gauntlet/campaign.h"
#include "src/obs/coverage.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/run_report.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/reduce/reducer.h"
#include "src/runtime/corpus.h"
#include "src/runtime/parallel_campaign.h"
#include "src/support/file_io.h"
#include "src/target/target.h"
#include "src/testgen/testgen.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace {

using namespace gauntlet;

// A command-line mistake (unknown flag, bad value, wrong arity): reported
// with the usage text and exit code 2, distinct from runtime failures.
class CliUsageError : public std::runtime_error {
 public:
  explicit CliUsageError(const std::string& message) : std::runtime_error(message) {}
};

std::string ReadInput(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    throw CompileError("cannot open '" + path + "'");
  }
  return text;
}

// A command's parsed arguments: positionals in order, and every occurrence
// of each value-taking flag.
struct ParsedArgs {
  std::vector<std::string> positionals;
  std::map<std::string, std::vector<std::string>> flags;

  bool Has(const std::string& flag) const { return flags.count(flag) > 0; }
  const std::string& Last(const std::string& flag) const { return flags.at(flag).back(); }
};

// Splits a command's arguments (argv[2:]) into positionals, value-taking
// flags and boolean switches. Every `--flag` must be listed in
// `value_flags` (and must have a value: a flag's value is never mistaken
// for a positional — the `campaign --jobs 4` ≠ `campaign 4` trap) or in
// `switch_flags` (recorded with no value); an unknown flag is rejected
// instead of silently ignored, and a trailing value flag with its value
// forgotten fails fast.
ParsedArgs ParseCommandArgs(int argc, char** argv,
                            const std::vector<std::string>& value_flags,
                            size_t max_positionals,
                            const std::vector<std::string>& switch_flags = {}) {
  ParsedArgs parsed;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      parsed.positionals.push_back(arg);
      continue;
    }
    bool is_switch = false;
    for (const std::string& flag : switch_flags) {
      is_switch |= flag == arg;
    }
    if (is_switch) {
      parsed.flags[arg];  // present, no value
      continue;
    }
    bool known = false;
    for (const std::string& flag : value_flags) {
      known |= flag == arg;
    }
    if (!known) {
      throw CliUsageError("unknown flag '" + arg + "' for this command");
    }
    if (i + 1 >= argc) {
      throw CliUsageError("flag '" + arg + "' expects a value");
    }
    parsed.flags[arg].push_back(argv[++i]);
  }
  if (parsed.positionals.size() > max_positionals) {
    throw CliUsageError("unexpected argument '" + parsed.positionals[max_positionals] + "'");
  }
  return parsed;
}

// The two cache switches shared by the validating commands, plus the
// telemetry heartbeat switch, the wall-clock-budget kill switch and the
// incremental-solving A/B switch they all accept.
const std::vector<std::string> kCacheSwitches = {"--no-cache", "--cache-stats", "--progress",
                                                "--no-budgets", "--no-incremental"};

// The telemetry output flags shared by every instrumented command.
const std::vector<std::string> kTelemetryFlags = {"--metrics-out", "--trace-out",
                                                 "--coverage-out"};

std::vector<std::string> WithTelemetryFlags(std::vector<std::string> value_flags) {
  value_flags.insert(value_flags.end(), kTelemetryFlags.begin(), kTelemetryFlags.end());
  return value_flags;
}

// `--no-budgets` zeroes every wall-clock solver budget (0 = unlimited), so
// which pass pairs and paths fit the budget no longer depends on machine
// load — the setting the determinism tests and CI byte-equality gates run
// under. The conflict budget stays: it is deterministic by construction.
//
// `--no-incremental` turns the solver hot path off for A/B runs: no
// assumption-trail reuse in the path-probe solver and no block-summary
// memoization in the validator. Every report byte is identical either way
// (CI diffs the two modes); only the work spent differs.
void ApplySolverSwitches(const ParsedArgs& args, TvOptions& tv, TestGenOptions& testgen) {
  if (args.Has("--no-budgets")) {
    tv.query_time_limit_ms = 0;
    tv.program_budget_ms = 0;
    testgen.query_time_limit_ms = 0;
  }
  if (args.Has("--no-incremental")) {
    tv.memoize_block_summaries = false;
    testgen.incremental_solving = false;
  }
}

// Telemetry destinations parsed from --metrics-out/--trace-out/
// --coverage-out: owns the registry, trace collector and coverage map for
// the command's lifetime and renders them to disk once the command has
// finished. The destructor is a best-effort backstop: a command aborting
// via exception still emits whatever it collected — exactly the runs where
// the telemetry helps debugging.
struct Telemetry {
  explicit Telemetry(const ParsedArgs& args) {
    if (args.Has("--metrics-out")) {
      metrics_path = args.Last("--metrics-out");
    }
    if (args.Has("--trace-out")) {
      trace_path = args.Last("--trace-out");
    }
    if (args.Has("--coverage-out")) {
      coverage_path = args.Last("--coverage-out");
    }
  }

  ~Telemetry() { WriteFiles(/*throw_on_failure=*/false); }

  MetricsRegistry* registry_or_null() { return metrics_path.empty() ? nullptr : &registry; }
  TraceCollector* collector_or_null() { return trace_path.empty() ? nullptr : &collector; }
  CoverageMap* coverage_or_null() { return coverage_path.empty() ? nullptr : &coverage; }

  // Renders both files once; later calls (including the destructor's) are
  // no-ops. Success paths call this so the command exits nonzero when an
  // artifact it promised cannot be written.
  void Write() { WriteFiles(/*throw_on_failure=*/true); }

  void WriteFiles(bool throw_on_failure) {
    if (written_) {
      return;
    }
    written_ = true;
    std::string failed;
    if (!metrics_path.empty()) {
      // Every metrics.json carries the process' own resource footprint
      // (timing section — gauges, so re-recording merges harmlessly).
      RecordProcessSelfStats(registry);
    }
    if (!metrics_path.empty() && !WriteMetricsFile(metrics_path, registry)) {
      failed = metrics_path;
    }
    if (!trace_path.empty() && !WriteTraceFile(trace_path, collector)) {
      failed = trace_path;
    }
    if (!coverage_path.empty() && !WriteCoverageFile(coverage_path, coverage)) {
      failed = coverage_path;
    }
    if (failed.empty()) {
      return;
    }
    if (throw_on_failure) {
      throw CompileError("cannot write telemetry file '" + failed + "'");
    }
    std::fprintf(stderr, "gauntlet: cannot write telemetry file '%s'\n", failed.c_str());
  }

  MetricsRegistry registry;
  TraceCollector collector;
  CoverageMap coverage;
  std::string metrics_path;
  std::string trace_path;
  std::string coverage_path;
  bool written_ = false;
};

// Installs the single-threaded commands' telemetry sinks for a scope (the
// campaign drivers install their own per-worker sinks instead).
struct ScopedTelemetry {
  explicit ScopedTelemetry(Telemetry& telemetry)
      : metrics_sink(telemetry.registry_or_null()),
        coverage_sink(telemetry.coverage_or_null()),
        trace_sink(telemetry.collector_or_null() != nullptr ? telemetry.collector.NewBuffer(0)
                                                            : nullptr) {}
  ScopedMetricsSink metrics_sink;
  ScopedCoverageSink coverage_sink;
  ScopedTraceSink trace_sink;
};

void MaybePrintCacheStats(const ParsedArgs& args, const CacheStats& stats) {
  if (!args.Has("--cache-stats")) {
    return;
  }
  if (args.Has("--no-cache")) {
    // All-zero counters from a disabled cache read as "cache never hit";
    // say what actually happened instead.
    std::fprintf(stderr, "cache: disabled (--no-cache)\n");
    return;
  }
  std::fprintf(stderr, "%s\n", stats.ToString().c_str());
}

// Strict decimal parse; rejects "abc", "4x", out-of-range and empty
// strings instead of the silent-zero behavior of atoi.
long long ParseNumber(const std::string& text, const std::string& what) {
  try {
    size_t consumed = 0;
    const long long value = std::stoll(text, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    throw CliUsageError(what + " expects a number, got '" + text + "'");
  }
}

// A count argument (program counts, worker counts): numeric, within int,
// and at least `minimum` — `campaign -5` must be a usage error, not a
// silently empty run.
int ParseCount(const std::string& text, const std::string& what, int minimum) {
  const long long value = ParseNumber(text, what);
  if (value < minimum || value > std::numeric_limits<int>::max()) {
    throw CliUsageError(what + " expects a count >= " + std::to_string(minimum) + ", got '" +
                        text + "'");
  }
  return static_cast<int>(value);
}

BugConfig BugsFromFlags(const ParsedArgs& args) {
  BugConfig bugs;
  if (!args.Has("--bug")) {
    return bugs;
  }
  for (const std::string& name : args.flags.at("--bug")) {
    bool known = false;
    for (const BugInfo& info : BugCatalogue()) {
      if (info.name == name) {
        bugs.Enable(info.id);
        known = true;
      }
    }
    if (!known) {
      throw CliUsageError("unknown --bug '" + name +
                          "'; run `gauntlet bugs` for the catalogue");
    }
  }
  return bugs;
}

// Parses `--targets bmv2,tofino,...` occurrences into registry names,
// validating each against the registered back ends.
std::vector<std::string> TargetsFromFlags(const ParsedArgs& args) {
  std::vector<std::string> targets;
  if (!args.Has("--targets")) {
    return targets;
  }
  for (const std::string& list : args.flags.at("--targets")) {
    std::stringstream stream(list);
    std::string name;
    while (std::getline(stream, name, ',')) {
      if (name.empty()) {
        continue;
      }
      if (TargetRegistry::Find(name) == nullptr) {
        throw CliUsageError("unknown target '" + name + "'; registered targets: " +
                            TargetRegistry::JoinedNames());
      }
      targets.push_back(name);
    }
  }
  if (targets.empty()) {
    throw CliUsageError("--targets expects a comma-separated list of registered targets");
  }
  return targets;
}

int CmdBugs() {
  std::printf("%-36s %-9s %-16s %-22s %s\n", "name", "kind", "location", "component",
              "models");
  for (const BugInfo& info : BugCatalogue()) {
    std::printf("%-36s %-9s %-16s %-22s %s\n", info.name,
                info.kind == BugKind::kCrash ? "crash" : "semantic",
                BugLocationToString(info.location).c_str(), info.pass_name, info.paper_ref);
  }
  return 0;
}

int CmdCompile(const std::string& path, const BugConfig& bugs) {
  auto program = Parser::ParseString(ReadInput(path));
  TypeCheck(*program, TypeCheckOptionsFromBugs(bugs));
  PassManager::StandardPipeline().Run(
      *program, bugs, [](const std::string& pass_name, const Program& snapshot) {
        std::printf("---- after %s ----\n%s\n", pass_name.c_str(),
                    PrintProgram(snapshot).c_str());
      });
  std::printf("---- final program ----\n%s", PrintProgram(*program).c_str());
  return 0;
}

int CmdValidate(const std::string& path, const BugConfig& bugs, const ParsedArgs& args) {
  Telemetry telemetry(args);
  auto program = Parser::ParseString(ReadInput(path));
  TvOptions tv_options;
  TestGenOptions unused_testgen_options;
  ApplySolverSwitches(args, tv_options, unused_testgen_options);
  const TranslationValidator validator(PassManager::StandardPipeline(), tv_options);
  ValidationCache cache;
  ValidationCache* cache_ptr = args.Has("--no-cache") ? nullptr : &cache;
  if (args.Has("--progress")) {
    std::fprintf(stderr, "progress: validating %s\n", path.c_str());
  }
  TvReport report;
  {
    ScopedTelemetry sinks(telemetry);
    report = validator.Validate(*program, bugs, /*stop_after_pass=*/{}, cache_ptr);
  }
  if (report.crashed) {
    std::printf("CRASH: %s\n", report.crash_message.c_str());
  }
  int problems = report.crashed ? 1 : 0;
  for (const TvPassResult& result : report.pass_results) {
    std::printf("%-24s %s%s%s\n", result.pass_name.c_str(),
                TvVerdictToString(result.verdict).c_str(), result.detail.empty() ? "" : " — ",
                result.detail.c_str());
    if (result.verdict == TvVerdict::kSemanticDiff) {
      ++problems;
      for (const auto& [name, value] : result.counterexample.bit_values) {
        if (name.find("undef") == std::string::npos) {
          std::printf("    witness %s = %s\n", name.c_str(), value.ToString().c_str());
        }
      }
    } else if (result.verdict == TvVerdict::kInvalidEmit) {
      // An emitted program that fails to re-parse/re-typecheck is a
      // definite compiler bug (campaign.cc counts it as a crash finding).
      ++problems;
    }
  }
  std::printf("%zu changed-pass pairs validated, %d problem%s found\n",
              report.pass_results.size(), problems, problems == 1 ? "" : "s");
  if (args.Has("--progress")) {
    std::fprintf(stderr, "progress: %zu pass pairs validated, done\n",
                 report.pass_results.size());
  }
  if (cache_ptr != nullptr && telemetry.registry_or_null() != nullptr) {
    cache.Stats().RecordMetrics(telemetry.registry);
  }
  MaybePrintCacheStats(args, cache.Stats());
  telemetry.Write();
  return problems == 0 ? 0 : 1;
}

int CmdTestgen(const std::string& path, const ParsedArgs& args) {
  Telemetry telemetry(args);
  auto program = Parser::ParseString(ReadInput(path));
  TypeCheck(*program);
  ValidationCache cache;
  ValidationCache* cache_ptr = args.Has("--no-cache") ? nullptr : &cache;
  if (args.Has("--progress")) {
    std::fprintf(stderr, "progress: enumerating paths in %s\n", path.c_str());
  }
  TvOptions unused_tv_options;
  TestGenOptions testgen_options;
  ApplySolverSwitches(args, unused_tv_options, testgen_options);
  std::vector<PacketTest> tests;
  try {
    ScopedTelemetry sinks(telemetry);
    tests = TestCaseGenerator(testgen_options).Generate(*program, cache_ptr);
  } catch (const UnsupportedError& error) {
    std::fprintf(stderr, "testgen: unsupported program: %s\n", error.what());
    return 1;
  }
  // STF text on stdout: redirect into a .stf file to get an on-disk
  // reproducer that ParseStf reads back.
  std::printf("%s", EmitStf(tests).c_str());
  std::fprintf(stderr, "%zu tests generated\n", tests.size());
  if (args.Has("--progress")) {
    std::fprintf(stderr, "progress: %zu tests generated, done\n", tests.size());
  }
  if (cache_ptr != nullptr && telemetry.registry_or_null() != nullptr) {
    cache.Stats().RecordMetrics(telemetry.registry);
  }
  MaybePrintCacheStats(args, cache.Stats());
  telemetry.Write();
  // No tests means no coverage — scripts piping this into a replay harness
  // must be able to gate on it.
  return tests.empty() ? 1 : 0;
}

void PrintReport(const CampaignReport& report) {
  for (const Finding& finding : report.findings) {
    std::printf("prog %3d  %-22s %-9s %-24s %s\n", finding.program_index,
                DetectionMethodToString(finding.method).c_str(),
                finding.kind == BugKind::kCrash ? "crash" : "semantic",
                finding.component.c_str(),
                finding.attributed.has_value() ? BugIdToString(*finding.attributed).c_str()
                                               : "(unattributed)");
  }
  std::printf("%d programs, %zu findings, %zu distinct bugs, %d suspicious reports\n",
              report.programs_generated, report.findings.size(), report.DistinctCount(),
              report.undef_divergences);
}

// Wires the telemetry destinations and the optional --progress heartbeat
// into a campaign's options. The meter outlives the run — callers Finish()
// it before printing the report so the stderr heartbeat never interleaves
// with the stdout report.
std::unique_ptr<ProgressMeter> WireCampaignTelemetry(const ParsedArgs& args,
                                                     Telemetry& telemetry,
                                                     CampaignOptions& options) {
  options.metrics = telemetry.registry_or_null();
  options.trace = telemetry.collector_or_null();
  options.coverage = telemetry.coverage_or_null();
  std::unique_ptr<ProgressMeter> meter;
  if (args.Has("--progress")) {
    meter = std::make_unique<ProgressMeter>("programs",
                                            static_cast<uint64_t>(options.num_programs));
    ProgressMeter* raw = meter.get();
    options.progress = [raw](uint64_t done, uint64_t findings) { raw->Tick(done, findings); };
  }
  return meter;
}

// `campaign --shards S`: the distributed path (src/dist/). The coordinator
// owns the topology; the merged deterministic output is byte-identical to
// the single-process run for any shard count — the CI shard-identity gate.
int RunCampaignSharded(const ParsedArgs& args, const BugConfig& bugs, Telemetry& telemetry,
                       ParallelCampaignOptions& parallel) {
  if (args.Has("--trace-out")) {
    throw CliUsageError("--trace-out is per-process; it cannot be combined with --shards");
  }
  ShardCoordinatorOptions options;
  options.campaign = parallel.campaign;
  options.shards = ParseCount(args.Last("--shards"), "--shards", /*minimum=*/1);
  options.jobs = parallel.jobs;
  options.corpus_dir = parallel.corpus_dir;
  options.cache_file = parallel.cache_file;
  options.status_dir = parallel.status_dir;
  options.snapshot_interval_ms = parallel.snapshot_interval_ms;
  if (args.Has("--shard-dir")) {
    options.scratch_dir = args.Last("--shard-dir");
  }
  if (args.Has("--worker")) {
    options.worker_binary = args.Last("--worker");
    // Children parse their own campaign flags; forward the ones the
    // coordinator does not own.
    if (args.Has("--bug")) {
      for (const std::string& name : args.flags.at("--bug")) {
        options.worker_flags.push_back("--bug");
        options.worker_flags.push_back(name);
      }
    }
    if (args.Has("--targets")) {
      for (const std::string& list : args.flags.at("--targets")) {
        options.worker_flags.push_back("--targets");
        options.worker_flags.push_back(list);
      }
    }
    if (args.Has("--no-cache")) {
      options.worker_flags.push_back("--no-cache");
    }
    if (args.Has("--no-budgets")) {
      options.worker_flags.push_back("--no-budgets");
    }
    if (args.Has("--no-incremental")) {
      options.worker_flags.push_back("--no-incremental");
    }
  }
  const std::unique_ptr<ProgressMeter> meter =
      WireCampaignTelemetry(args, telemetry, options.campaign);
  const CoordinatorOutcome outcome = RunShardCoordinator(options, bugs);
  if (meter != nullptr) {
    meter->Finish(static_cast<uint64_t>(outcome.report.programs_generated),
                  outcome.report.findings.size());
  }
  PrintReport(outcome.report);
  MaybePrintCacheStats(args, outcome.cache_stats);
  telemetry.Write();
  if (!options.corpus_dir.empty()) {
    std::fprintf(stderr, "corpus: %d reproducers under %s (all runs)\n",
                 CountCorpus(options.corpus_dir), options.corpus_dir.c_str());
  }
  return outcome.report.findings.empty() ? 0 : 1;
}

int CmdCampaign(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(
      argc, argv,
      WithTelemetryFlags({"--jobs", "--corpus", "--bug", "--targets", "--cache-file",
                          "--shards", "--shard-dir", "--worker", "--status-dir",
                          "--snapshot-interval"}),
      /*max_positionals=*/2, kCacheSwitches);
  const BugConfig bugs = BugsFromFlags(args);
  Telemetry telemetry(args);
  ParallelCampaignOptions options;
  options.campaign.targets = TargetsFromFlags(args);
  options.campaign.use_cache = !args.Has("--no-cache");
  ApplySolverSwitches(args, options.campaign.tv, options.campaign.testgen);
  if (args.Has("--snapshot-interval") && !args.Has("--status-dir")) {
    throw CliUsageError("--snapshot-interval only applies with --status-dir");
  }
  if (args.Has("--status-dir")) {
    options.status_dir = args.Last("--status-dir");
    if (args.Has("--snapshot-interval")) {
      options.snapshot_interval_ms =
          ParseCount(args.Last("--snapshot-interval"), "--snapshot-interval", /*minimum=*/1);
    }
  }
  if (args.Has("--cache-file")) {
    if (args.Has("--no-cache")) {
      throw CliUsageError("--cache-file needs the cache; drop --no-cache");
    }
    options.cache_file = args.Last("--cache-file");
  }
  if (args.positionals.size() >= 1) {
    options.campaign.num_programs = ParseCount(args.positionals[0], "N", /*minimum=*/0);
  }
  if (args.positionals.size() >= 2) {
    options.campaign.seed = static_cast<uint64_t>(ParseNumber(args.positionals[1], "seed"));
  }
  if (args.Has("--jobs")) {
    options.jobs = ParseCount(args.Last("--jobs"), "--jobs", /*minimum=*/1);
  }
  if (args.Has("--corpus")) {
    options.corpus_dir = args.Last("--corpus");
  }
  if ((args.Has("--worker") || args.Has("--shard-dir")) && !args.Has("--shards")) {
    throw CliUsageError("--worker/--shard-dir only apply to a sharded campaign (--shards)");
  }
  if (args.Has("--shards")) {
    return RunCampaignSharded(args, bugs, telemetry, options);
  }
  const std::unique_ptr<ProgressMeter> meter =
      WireCampaignTelemetry(args, telemetry, options.campaign);
  CacheStats stats;
  const CampaignReport report = ParallelCampaign(options).Run(bugs, &stats);
  if (meter != nullptr) {
    meter->Finish(static_cast<uint64_t>(report.programs_generated), report.findings.size());
  }
  PrintReport(report);
  MaybePrintCacheStats(args, stats);
  telemetry.Write();
  if (!options.corpus_dir.empty()) {
    // Stat-only count; the corpus dedups across runs, so the directory can
    // legitimately hold more reproducers than this run's findings.
    std::fprintf(stderr, "corpus: %d reproducers under %s (all runs)\n",
                 CountCorpus(options.corpus_dir), options.corpus_dir.c_str());
  }
  return report.findings.empty() ? 0 : 1;
}

// The coordinator's child process: one shard of the global index space,
// its result serialized to --result-out. Exits 0 whether or not it found
// anything — findings are data for the coordinator, which owns the
// campaign-level exit code.
int CmdShardWorker(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(
      argc, argv,
      WithTelemetryFlags({"--shard-begin", "--shard-end", "--seed", "--jobs", "--result-out",
                          "--corpus", "--cache-file", "--bug", "--targets", "--status-dir",
                          "--status-role", "--snapshot-interval"}),
      /*max_positionals=*/0, {"--no-cache", "--no-budgets", "--no-incremental"});
  for (const char* required : {"--shard-begin", "--shard-end", "--seed", "--result-out"}) {
    if (!args.Has(required)) {
      throw CliUsageError(std::string("shard-worker requires ") + required);
    }
  }
  const BugConfig bugs = BugsFromFlags(args);
  Telemetry telemetry(args);
  ShardWorkerOptions options;
  options.range.begin = ParseCount(args.Last("--shard-begin"), "--shard-begin", /*minimum=*/0);
  options.range.end = ParseCount(args.Last("--shard-end"), "--shard-end", /*minimum=*/0);
  if (options.range.end < options.range.begin) {
    throw CliUsageError("--shard-end must be >= --shard-begin");
  }
  options.campaign.seed = static_cast<uint64_t>(ParseNumber(args.Last("--seed"), "--seed"));
  options.campaign.targets = TargetsFromFlags(args);
  options.campaign.use_cache = !args.Has("--no-cache");
  ApplySolverSwitches(args, options.campaign.tv, options.campaign.testgen);
  if (args.Has("--jobs")) {
    options.jobs = ParseCount(args.Last("--jobs"), "--jobs", /*minimum=*/1);
  }
  if (args.Has("--corpus")) {
    options.corpus_dir = args.Last("--corpus");
  }
  if (args.Has("--cache-file")) {
    if (args.Has("--no-cache")) {
      throw CliUsageError("--cache-file needs the cache; drop --no-cache");
    }
    options.cache_file = args.Last("--cache-file");
  }
  if (args.Has("--status-dir")) {
    options.status_dir = args.Last("--status-dir");
    if (args.Has("--status-role")) {
      options.status_role = args.Last("--status-role");
    }
    if (args.Has("--snapshot-interval")) {
      options.snapshot_interval_ms =
          ParseCount(args.Last("--snapshot-interval"), "--snapshot-interval", /*minimum=*/1);
    }
  } else if (args.Has("--status-role") || args.Has("--snapshot-interval")) {
    throw CliUsageError("--status-role/--snapshot-interval only apply with --status-dir");
  }
  options.trace = telemetry.collector_or_null();
  const ShardResult result = RunShardWorker(options, bugs);
  SaveShardResultFile(args.Last("--result-out"), result);
  // The result file above stays *unfolded* (the coordinator folds the
  // cross-shard merge exactly once); the side-channel telemetry files are a
  // per-shard human view, so they get this shard's own fold.
  if (telemetry.registry_or_null() != nullptr) {
    telemetry.registry.MergeFrom(result.metrics);
  }
  if (telemetry.coverage_or_null() != nullptr) {
    telemetry.coverage.MergeFrom(result.coverage);
  }
  result.report.FoldInto(telemetry.registry_or_null(), telemetry.coverage_or_null(),
                         options.campaign.use_cache ? &result.cache_stats : nullptr, bugs);
  telemetry.Write();
  return 0;
}

// `gauntlet serve`: the long-lived submission service (src/dist/serve).
// The server owns its telemetry files (rewritten atomically on every
// status flush and once more on exit), so a SIGTERM'd session still leaves
// loadable metrics/coverage/trace artifacts behind.
int CmdServe(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(
      argc, argv,
      WithTelemetryFlags({"--socket", "--corpus", "--bug", "--targets", "--max-requests",
                          "--status-dir", "--snapshot-interval"}),
      /*max_positionals=*/0, kCacheSwitches);
  if (!args.Has("--socket")) {
    throw CliUsageError("serve requires --socket PATH");
  }
  if (args.Has("--snapshot-interval") && !args.Has("--status-dir")) {
    throw CliUsageError("--snapshot-interval only applies with --status-dir");
  }
  const BugConfig bugs = BugsFromFlags(args);
  ServeOptions options;
  options.socket_path = args.Last("--socket");
  options.campaign.targets = TargetsFromFlags(args);
  options.campaign.use_cache = !args.Has("--no-cache");
  ApplySolverSwitches(args, options.campaign.tv, options.campaign.testgen);
  if (args.Has("--metrics-out")) {
    options.metrics_out = args.Last("--metrics-out");
  }
  if (args.Has("--coverage-out")) {
    options.coverage_out = args.Last("--coverage-out");
  }
  if (args.Has("--trace-out")) {
    options.trace_out = args.Last("--trace-out");
  }
  if (args.Has("--status-dir")) {
    options.status_dir = args.Last("--status-dir");
    if (args.Has("--snapshot-interval")) {
      options.snapshot_interval_ms =
          ParseCount(args.Last("--snapshot-interval"), "--snapshot-interval", /*minimum=*/1);
    }
  }
  if (args.Has("--corpus")) {
    options.corpus_dir = args.Last("--corpus");
  }
  if (args.Has("--max-requests")) {
    options.max_requests = ParseCount(args.Last("--max-requests"), "--max-requests",
                                      /*minimum=*/1);
  }
  options.install_signal_handlers = true;
  GauntletServer server(std::move(options), bugs);
  server.Start();
  std::fprintf(stderr, "serving on %s\n", server.socket_path().c_str());
  const int served = server.Run();
  std::fprintf(stderr, "served %d submission%s, shutting down\n", served,
               served == 1 ? "" : "s");
  return 0;
}

// `gauntlet status <dir>`: the fleet inspector. Reads the snapshot +
// heartbeat artifacts a --status-dir run publishes and prints a dashboard
// (or --json for machines). Exit 0 healthy, 1 on any stalled/dead/corrupt
// worker; --watch polls until the fleet completes or turns unhealthy.
int CmdStatus(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(argc, argv, {"--interval", "--stall-ms"},
                                           /*max_positionals=*/1, {"--json", "--watch"});
  if (args.positionals.size() != 1) {
    throw CliUsageError("status expects exactly one <status-dir>");
  }
  if (args.Has("--interval") && !args.Has("--watch")) {
    throw CliUsageError("--interval only applies with --watch");
  }
  const std::string status_dir = args.positionals[0];
  uint64_t stall_ms = kDefaultStallThresholdMs;
  if (args.Has("--stall-ms")) {
    stall_ms = static_cast<uint64_t>(ParseCount(args.Last("--stall-ms"), "--stall-ms",
                                                /*minimum=*/1));
  }
  int interval_ms = 1000;
  if (args.Has("--interval")) {
    interval_ms = ParseCount(args.Last("--interval"), "--interval", /*minimum=*/1);
  }
  const bool watch = args.Has("--watch");
  const bool json = args.Has("--json");
  for (;;) {
    const FleetStatus fleet = CollectFleetStatus(status_dir, stall_ms);
    if (fleet.workers.empty()) {
      // Usage-grade (exit 2): a directory with no status artifacts means
      // the argument pointed at the wrong place, like a typo'd corpus path.
      throw CliUsageError("no status artifacts under '" + status_dir +
                          "' (expected snapshot.json/heartbeat.json from a --status-dir run)");
    }
    std::printf("%s", json ? FleetStatusJson(fleet).c_str() : FleetStatusText(fleet).c_str());
    std::fflush(stdout);
    if (!fleet.healthy()) {
      return 1;
    }
    if (!watch || fleet.complete()) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

// `gauntlet submit`: the serve-mode client. Prints the server's JSON
// response to stdout; exits 0 on a clean verdict (or acknowledged
// shutdown), 1 when the server reported findings or an error.
int CmdSubmit(int argc, char** argv) {
  const ParsedArgs args =
      ParseCommandArgs(argc, argv, {"--socket", "--bug", "--targets"},
                       /*max_positionals=*/1, {"--shutdown"});
  if (!args.Has("--socket")) {
    throw CliUsageError("submit requires --socket PATH");
  }
  const std::string socket_path = args.Last("--socket");
  std::string payload;
  if (args.Has("--shutdown")) {
    if (!args.positionals.empty()) {
      throw CliUsageError("submit --shutdown takes no program");
    }
    payload = BuildShutdownPayload();
  } else {
    if (args.positionals.size() != 1) {
      throw CliUsageError("submit expects exactly one <file.p4> (or --shutdown)");
    }
    std::vector<std::string> bug_names;
    if (args.Has("--bug")) {
      bug_names = args.flags.at("--bug");
    }
    payload = BuildSubmitPayload(ReadInput(args.positionals[0]), bug_names,
                                 TargetsFromFlags(args));
  }
  const std::string response = SendServeRequest(socket_path, payload);
  std::printf("%s\n", response.c_str());
  const bool ok = response.find("\"status\":\"ok\"") != std::string::npos ||
                  response.find("\"status\":\"shutting-down\"") != std::string::npos;
  const bool clean = response.find("\"findings\":[]") != std::string::npos;
  if (!ok) {
    return 1;
  }
  return args.Has("--shutdown") || clean ? 0 : 1;
}

int CmdReplay(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(
      argc, argv, WithTelemetryFlags({"--bug", "--targets", "--corpus", "--cache-file"}),
      /*max_positionals=*/2, {"--progress"});
  const BugConfig bugs = BugsFromFlags(args);
  Telemetry telemetry(args);
  const std::vector<std::string> targets = TargetsFromFlags(args);
  if (args.Has("--cache-file")) {
    // Replay performs no solver queries, so the warm-start file is loaded
    // (validating it — a corrupt *or missing* file must fail the CI job
    // that carries it, not the next campaign) and left unchanged on disk.
    ValidationCache cache;
    if (!LoadValidationCacheFile(args.Last("--cache-file"), cache)) {
      throw CompileError("cache file '" + args.Last("--cache-file") + "' does not exist");
    }
  }

  // Bulk mode: replay every stored triple in a corpus directory and gate
  // on the summary (the corpus-driven regression run).
  if (args.Has("--corpus")) {
    if (!args.positionals.empty()) {
      throw CliUsageError("replay --corpus takes no positional arguments");
    }
    const std::string directory = args.Last("--corpus");
    if (CountCorpus(directory) == 0) {
      // Usage-grade error (exit 2), not a replay failure: an empty or
      // manifest-less directory means the flag pointed at the wrong place,
      // the same class of mistake as a typo'd path.
      throw CliUsageError("corpus '" + directory +
                          "' holds no reproducer triples (empty or not a corpus directory)");
    }
    std::unique_ptr<ProgressMeter> meter;
    std::function<void(int, int)> progress;
    if (args.Has("--progress")) {
      meter = std::make_unique<ProgressMeter>(
          "reproducers", static_cast<uint64_t>(CountCorpus(directory)));
      ProgressMeter* raw = meter.get();
      progress = [raw](int done, int failed) {
        raw->Tick(static_cast<uint64_t>(done), static_cast<uint64_t>(failed));
      };
    }
    CorpusReplaySummary summary;
    {
      ScopedTelemetry sinks(telemetry);
      summary = ReplayCorpus(directory, bugs, targets, progress);
    }
    if (meter != nullptr) {
      meter->Finish(static_cast<uint64_t>(summary.entries),
                    static_cast<uint64_t>(summary.failed_entries));
    }
    if (summary.entries == 0) {
      // A regression gate that replayed nothing must not green-light: a
      // typo'd path and a never-populated corpus both look like this.
      throw CompileError("corpus '" + directory + "' holds no reproducer triples");
    }
    for (const CorpusReplayResult& result : summary.results) {
      if (result.outcome.passed()) {
        std::printf("PASS %-40s (%d tests)\n", result.key.c_str(),
                    result.outcome.tests_run);
      } else {
        std::printf("FAIL %-40s %s\n", result.key.c_str(),
                    result.outcome.failure_details.empty()
                        ? ""
                        : result.outcome.failure_details[0].c_str());
      }
    }
    std::printf("%d reproducers replayed, %d still failing\n", summary.entries,
                summary.failed_entries);
    telemetry.Write();
    return summary.passed() ? 0 : 1;
  }

  if (args.positionals.size() != 2) {
    throw CliUsageError("replay expects <file.p4> <file.stf> (or --corpus DIR)");
  }
  ReplayOutcome outcome;
  {
    ScopedTelemetry sinks(telemetry);
    outcome = ReplayStfText(ReadInput(args.positionals[0]), ReadInput(args.positionals[1]), bugs,
                            targets);
  }
  for (const std::string& detail : outcome.failure_details) {
    std::printf("FAIL %s\n", detail.c_str());
  }
  std::printf("%d tests replayed, %d mismatch%s\n", outcome.tests_run, outcome.failures,
              outcome.failures == 1 ? "" : "es");
  telemetry.Write();
  return outcome.passed() ? 0 : 1;
}

CoverageMap LoadCoverage(const std::string& path) {
  CoverageMap map;
  std::string error;
  if (!ParseCoverageJson(ReadInput(path), &map, &error)) {
    throw CompileError("cannot parse coverage file '" + path + "': " + error);
  }
  return map;
}

// `gauntlet coverage <file>` renders one snapshot (with its blind-spot
// section); `gauntlet coverage <before> <after>` diffs two snapshots and
// gates on deterministic differences — the CI jobs-1-vs-jobs-8 identity
// check. `--require-detected` turns the single-file report into the
// blind-spot gate: every seeded fault must have been exercised and detected.
int CmdCoverage(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(argc, argv, {}, /*max_positionals=*/2,
                                           {"--require-detected"});
  if (args.positionals.empty()) {
    throw CliUsageError("coverage expects <coverage.json> [<after.json>]");
  }
  if (args.positionals.size() == 2) {
    if (args.Has("--require-detected")) {
      throw CliUsageError("--require-detected applies to a single snapshot, not a diff");
    }
    const CoverageDiff diff =
        DiffCoverage(LoadCoverage(args.positionals[0]), LoadCoverage(args.positionals[1]));
    std::printf("%s", diff.text.c_str());
    return diff.deterministic_differences == 0 ? 0 : 1;
  }
  const CoverageMap map = LoadCoverage(args.positionals[0]);
  std::printf("%s", CoverageReportText(map).c_str());
  if (args.Has("--require-detected")) {
    std::string violations;
    const int count = CoverageBlindSpotViolations(map, &violations);
    if (count > 0) {
      std::fprintf(stderr, "%s", violations.c_str());
      std::fprintf(stderr, "coverage: %d blind-spot violation%s\n", count,
                   count == 1 ? "" : "s");
      return 1;
    }
  }
  return 0;
}

int CmdReduce(const std::string& path, const BugConfig& bugs) {
  auto program = Parser::ParseString(ReadInput(path));
  // Pick the oracle automatically: crash if any buggy back-end compile
  // crashes, otherwise a semantic-diff oracle over any pass.
  InterestingnessOracle oracle;
  std::string crash_needle;
  bool rejected = false;
  for (const Target* target : TargetRegistry::All()) {
    try {
      target->Compile(*program, bugs);
    } catch (const CompilerBugError& error) {
      crash_needle = error.what();
      break;
    } catch (const CompileError&) {
      rejected = true;
    }
  }
  if (!crash_needle.empty()) {
    // Reduce against the leading assertion text.
    if (crash_needle.size() > 40) {
      crash_needle = crash_needle.substr(0, 40);
    }
    oracle = CrashOracle(bugs, crash_needle);
  } else if (rejected) {
    oracle = [&bugs](const Program& candidate) {
      for (const Target* target : TargetRegistry::All()) {
        try {
          target->Compile(candidate, bugs);
        } catch (const CompileError&) {
          return true;
        } catch (const std::exception&) {
          return false;
        }
      }
      return false;
    };
  } else {
    oracle = SemanticDiffOracle(bugs, "");
  }
  const ReductionResult result = ReduceProgram(*program, oracle);
  std::printf("%s", PrintProgram(*result.program).c_str());
  std::fprintf(stderr, "reduced %zu -> %zu chars in %d oracle calls\n", result.original_size,
               result.reduced_size, result.oracle_calls);
  return 0;
}

int Usage(std::FILE* out) {
  const std::string targets = TargetRegistry::JoinedNames();
  std::fprintf(out,
               "usage: gauntlet <command> [args]\n"
               "  compile <file.p4> [--bug B ...]\n"
               "  validate <file.p4> [--bug B ...] [--no-cache] [--cache-stats]\n"
               "  testgen <file.p4> [--no-cache] [--cache-stats]\n"
               "  campaign [N] [seed] [--jobs J] [--corpus DIR] [--bug B ...] "
               "[--targets T,...] [--no-cache] [--cache-stats] [--cache-file F]\n"
               "  campaign ... --shards S [--shard-dir DIR] [--worker BIN]\n"
               "  campaign ... --status-dir DIR [--snapshot-interval MS]\n"
               "  fuzz ...   (alias of campaign: same flags, output and exit code)\n"
               "  shard-worker --shard-begin B --shard-end E --seed S --result-out F\n"
               "               [--jobs J] [--corpus DIR] [--cache-file F] [--bug B ...]\n"
               "               [--status-dir DIR [--status-role R] [--snapshot-interval MS]]\n"
               "  serve --socket PATH [--corpus DIR] [--bug B ...] [--targets T,...]\n"
               "        [--max-requests N] [--status-dir DIR [--snapshot-interval MS]]\n"
               "  submit <file.p4> --socket PATH [--bug B ...] [--targets T,...]\n"
               "  submit --shutdown --socket PATH\n"
               "  status <status-dir> [--json] [--watch] [--interval MS] [--stall-ms MS]\n"
               "  replay <file.p4> <file.stf> [--bug B ...] [--targets T,...] "
               "[--cache-file F]\n"
               "  replay --corpus DIR [--bug B ...] [--targets T,...] [--cache-file F]\n"
               "  reduce <file.p4> --bug B [...]\n"
               "  coverage <coverage.json> [--require-detected]\n"
               "  coverage <before.json> <after.json>\n"
               "  bugs\n"
               "\n"
               "registered targets: %s   (--targets defaults to all of them)\n"
               "--bug names come from `gauntlet bugs`; --jobs must be >= 1\n"
               "validation memoization is on by default: --no-cache disables it,\n"
               "--cache-stats prints hit/reuse counters to stderr\n"
               "--cache-file persists blast templates + per-program verdicts across\n"
               "runs (campaign reads and rewrites it; replay only validates it)\n"
               "--no-budgets (validate/testgen/campaign) lifts the wall-clock\n"
               "solver budgets so reports do not depend on machine load\n"
               "--no-incremental (same commands) disables the incremental solver hot\n"
               "path (assumption-trail reuse + block-summary memoization); reports\n"
               "are byte-identical either way, only the work spent differs\n"
               "telemetry (validate/testgen/campaign/replay):\n"
               "  --metrics-out F   write a versioned metrics.json run report\n"
               "  --trace-out F     write Chrome/Perfetto trace-event JSON\n"
               "  --coverage-out F  write a semantic coverage.json snapshot\n"
               "  --progress        throttled heartbeat on stderr\n"
               "`coverage` renders a snapshot (one file; --require-detected gates on\n"
               "blind spots) or diffs two; a diff exits 1 on any deterministic change\n"
               "--shards partitions [0,N) into S contiguous shards; merged output is\n"
               "byte-identical to the single-process run (--worker runs shards as\n"
               "child processes, --shard-dir keeps per-shard artifacts)\n"
               "`serve` accepts P4 programs over a unix socket and streams JSON\n"
               "verdicts; `submit` is its client (exit 0 clean, 1 on findings);\n"
               "SIGTERM/SIGINT drain serve gracefully (sinks flushed before exit)\n"
               "--status-dir (campaign/shard-worker/serve) publishes atomic live\n"
               "snapshot.json + heartbeat.json every --snapshot-interval ms;\n"
               "`status` reads them: a per-worker dashboard with health verdicts\n"
               "(exit 1 on stalled/dead/corrupt workers; --watch polls until the\n"
               "fleet completes, --stall-ms tunes the stall threshold)\n",
               targets.c_str());
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage(stderr);
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return Usage(stdout);
  }
  try {
    if (command == "bugs") {
      ParseCommandArgs(argc, argv, {}, /*max_positionals=*/0);
      return CmdBugs();
    }
    if (command == "compile") {
      const ParsedArgs args = ParseCommandArgs(argc, argv, {"--bug"}, /*max_positionals=*/1);
      if (args.positionals.size() != 1) {
        throw CliUsageError("compile expects exactly one <file.p4>");
      }
      return CmdCompile(args.positionals[0], BugsFromFlags(args));
    }
    if (command == "validate") {
      const ParsedArgs args = ParseCommandArgs(argc, argv, WithTelemetryFlags({"--bug"}),
                                               /*max_positionals=*/1, kCacheSwitches);
      if (args.positionals.size() != 1) {
        throw CliUsageError("validate expects exactly one <file.p4>");
      }
      return CmdValidate(args.positionals[0], BugsFromFlags(args), args);
    }
    if (command == "testgen") {
      const ParsedArgs args = ParseCommandArgs(argc, argv, WithTelemetryFlags({}),
                                               /*max_positionals=*/1, kCacheSwitches);
      if (args.positionals.size() != 1) {
        throw CliUsageError("testgen expects exactly one <file.p4>");
      }
      return CmdTestgen(args.positionals[0], args);
    }
    if (command == "campaign" || command == "fuzz") {
      return CmdCampaign(argc, argv);
    }
    if (command == "shard-worker") {
      return CmdShardWorker(argc, argv);
    }
    if (command == "serve") {
      return CmdServe(argc, argv);
    }
    if (command == "submit") {
      return CmdSubmit(argc, argv);
    }
    if (command == "status") {
      return CmdStatus(argc, argv);
    }
    if (command == "replay") {
      return CmdReplay(argc, argv);
    }
    if (command == "coverage") {
      return CmdCoverage(argc, argv);
    }
    if (command == "reduce") {
      const ParsedArgs args = ParseCommandArgs(argc, argv, {"--bug"}, /*max_positionals=*/1);
      if (args.positionals.size() != 1) {
        throw CliUsageError("reduce expects exactly one <file.p4>");
      }
      return CmdReduce(args.positionals[0], BugsFromFlags(args));
    }
  } catch (const CliUsageError& error) {
    std::fprintf(stderr, "gauntlet: %s\n", error.what());
    return Usage(stderr);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gauntlet: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "gauntlet: unknown command '%s'\n", command.c_str());
  return Usage(stderr);
}
