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

#include "src/cache/verdict_cache.h"
#include "src/dist/serve.h"
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

// The cache switch shared by the validating commands, plus the telemetry
// heartbeat switch, the wall-clock-budget kill switch and the
// incremental-solving A/B switch they all accept.
const std::vector<std::string> kCacheSwitches = {"--no-cache", "--progress", "--no-budgets",
                                                "--no-incremental"};

// The telemetry output flags shared by every instrumented command.
const std::vector<std::string> kTelemetryFlags = {"--metrics-out", "--trace-out"};

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

// Telemetry destinations parsed from --metrics-out/--trace-out: owns the
// registry (coverage points included) and the trace collector for the
// command's lifetime and renders them to disk once the command has
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
  }

  ~Telemetry() { WriteFiles(/*throw_on_failure=*/false); }

  MetricsRegistry* registry_or_null() { return metrics_path.empty() ? nullptr : &registry; }
  TraceCollector* collector_or_null() { return trace_path.empty() ? nullptr : &collector; }

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
  std::string metrics_path;
  std::string trace_path;
  bool written_ = false;
};

// Installs the single-threaded commands' telemetry sinks for a scope (the
// campaign drivers install their own per-worker sinks instead).
struct ScopedTelemetry {
  explicit ScopedTelemetry(Telemetry& telemetry)
      : metrics_sink(telemetry.registry_or_null()),
        trace_sink(telemetry.collector_or_null() != nullptr ? telemetry.collector.NewBuffer(0)
                                                            : nullptr) {}
  ScopedMetricsSink metrics_sink;
  ScopedTraceSink trace_sink;
};

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
      *program, bugs, [](const std::string& pass_name, const Program&, const std::string& text) {
        std::printf("---- after %s ----\n%s\n", pass_name.c_str(), text.c_str());
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
    report = validator.Validate(*program, bugs, cache_ptr);
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
        std::printf("    witness %s = %s\n", name.c_str(), value.ToString().c_str());
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
  std::unique_ptr<ProgressMeter> meter;
  if (args.Has("--progress")) {
    meter = std::make_unique<ProgressMeter>("programs",
                                            static_cast<uint64_t>(options.num_programs));
    ProgressMeter* raw = meter.get();
    options.progress = [raw](uint64_t done, uint64_t findings) { raw->Tick(done, findings); };
  }
  return meter;
}

int CmdCampaign(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(
      argc, argv,
      WithTelemetryFlags(
          {"--jobs", "--corpus", "--bug", "--targets", "--status-dir", "--snapshot-interval"}),
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
  const std::unique_ptr<ProgressMeter> meter =
      WireCampaignTelemetry(args, telemetry, options.campaign);
  const CampaignReport report = ParallelCampaign(options).Run(bugs);
  if (meter != nullptr) {
    meter->Finish(static_cast<uint64_t>(report.programs_generated), report.findings.size());
  }
  PrintReport(report);
  telemetry.Write();
  if (!options.corpus_dir.empty()) {
    // Stat-only count; the corpus dedups across runs, so the directory can
    // legitimately hold more reproducers than this run's findings.
    std::fprintf(stderr, "corpus: %d reproducers under %s (all runs)\n",
                 CountCorpus(options.corpus_dir), options.corpus_dir.c_str());
  }
  return report.findings.empty() ? 0 : 1;
}

// `gauntlet serve`: the long-lived submission service (src/dist/serve).
// The server owns its telemetry files (rewritten atomically on every
// status flush and once more on exit), so a SIGTERM'd session still leaves
// loadable metrics/trace artifacts behind.
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

// `gauntlet status <dir>`: the live-status inspector. Reads the snapshot a
// --status-dir run publishes and prints a dashboard (or --json for
// machines). Exit 0 healthy, 1 when the driver is stalled, dead or corrupt;
// --watch polls until the run completes or turns unhealthy.
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
    DriverStatus status;
    if (!CollectStatus(status_dir, stall_ms, &status)) {
      // Usage-grade (exit 2): a directory with no snapshot means the
      // argument pointed at the wrong place, like a typo'd corpus path.
      throw CliUsageError("no status artifacts under '" + status_dir +
                          "' (expected snapshot.json from a --status-dir run)");
    }
    std::printf("%s", json ? StatusJson(status).c_str() : StatusText(status).c_str());
    std::fflush(stdout);
    if (!status.healthy()) {
      return 1;
    }
    if (!watch || status.complete()) {
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
      argc, argv, WithTelemetryFlags({"--bug", "--targets", "--corpus"}),
      /*max_positionals=*/2, {"--progress"});
  const BugConfig bugs = BugsFromFlags(args);
  Telemetry telemetry(args);
  const std::vector<std::string> targets = TargetsFromFlags(args);

  // Bulk mode: replay every stored triple in a corpus directory and gate
  // on the summary (the corpus-driven regression run).
  if (args.Has("--corpus")) {
    if (!args.positionals.empty()) {
      throw CliUsageError("replay --corpus takes no positional arguments");
    }
    const std::string directory = args.Last("--corpus");
    if (CountCorpus(directory) == 0) {
      // Usage-grade error (exit 2), not a replay failure: a directory with
      // no complete triple means the flag pointed at the wrong place, the
      // same class of mistake as a typo'd path.
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

MetricsRegistry LoadMetrics(const std::string& path) {
  MetricsRegistry registry;
  std::string error;
  if (!ParseMetricsJson(ReadInput(path), &registry, &error)) {
    throw CompileError("cannot parse metrics file '" + path + "': " + error);
  }
  return registry;
}

// `gauntlet coverage <metrics.json>` renders the coverage points of one run
// report (with its blind-spot section); `gauntlet coverage <before>
// <after>` diffs the coverage points of two and exits 1 on any
// deterministic difference. `--require-detected` turns the single-file
// report into the blind-spot gate: every seeded fault must have been
// exercised and detected.
int CmdCoverage(int argc, char** argv) {
  const ParsedArgs args = ParseCommandArgs(argc, argv, {}, /*max_positionals=*/2,
                                           {"--require-detected"});
  if (args.positionals.empty()) {
    throw CliUsageError("coverage expects <metrics.json> [<after.json>]");
  }
  if (args.positionals.size() == 2) {
    if (args.Has("--require-detected")) {
      throw CliUsageError("--require-detected applies to a single snapshot, not a diff");
    }
    const CoverageDiff diff =
        DiffCoverage(LoadMetrics(args.positionals[0]), LoadMetrics(args.positionals[1]));
    std::printf("%s", diff.text.c_str());
    return diff.deterministic_differences == 0 ? 0 : 1;
  }
  const MetricsRegistry registry = LoadMetrics(args.positionals[0]);
  std::printf("%s", CoverageReportText(registry).c_str());
  if (args.Has("--require-detected")) {
    std::string violations;
    const int count = CoverageBlindSpotViolations(registry, &violations);
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
               "  validate <file.p4> [--bug B ...] [--no-cache]\n"
               "  testgen <file.p4> [--no-cache]\n"
               "  campaign [N] [seed] [--jobs J] [--corpus DIR] [--bug B ...] "
               "[--targets T,...] [--no-cache]\n"
               "  campaign ... --status-dir DIR [--snapshot-interval MS]\n"
               "  fuzz ...   (alias of campaign: same flags, output and exit code)\n"
               "  serve --socket PATH [--corpus DIR] [--bug B ...] [--targets T,...]\n"
               "        [--max-requests N] [--status-dir DIR [--snapshot-interval MS]]\n"
               "  submit <file.p4> --socket PATH [--bug B ...] [--targets T,...]\n"
               "  submit --shutdown --socket PATH\n"
               "  status <status-dir> [--json] [--watch] [--interval MS] [--stall-ms MS]\n"
               "  replay <file.p4> <file.stf> [--bug B ...] [--targets T,...]\n"
               "  replay --corpus DIR [--bug B ...] [--targets T,...]\n"
               "  reduce <file.p4> --bug B [...]\n"
               "  coverage <metrics.json> [--require-detected]\n"
               "  coverage <before.json> <after.json>\n"
               "  bugs\n"
               "\n"
               "registered targets: %s   (--targets defaults to all of them)\n"
               "--bug names come from `gauntlet bugs`; --jobs must be >= 1\n"
               "validation memoization is on by default: --no-cache disables it;\n"
               "each cache lives for one process (hit/reuse counters: --metrics-out)\n"
               "--no-budgets (validate/testgen/campaign) lifts the wall-clock\n"
               "solver budgets so reports do not depend on machine load\n"
               "--no-incremental (same commands) disables the incremental solver hot\n"
               "path (assumption-trail reuse + block-summary memoization); reports\n"
               "are byte-identical either way, only the work spent differs\n"
               "telemetry (validate/testgen/campaign/replay):\n"
               "  --metrics-out F   write a versioned metrics.json run report, with\n"
               "                    the semantic coverage points under coverage/\n"
               "  --trace-out F     write Chrome/Perfetto trace-event JSON\n"
               "  --progress        throttled heartbeat on stderr\n"
               "`coverage` renders the coverage points of a metrics.json (one file;\n"
               "--require-detected gates on blind spots) or diffs those of two; a\n"
               "diff exits 1 on any deterministic change\n"
               "`serve` accepts P4 programs over a unix socket and streams JSON\n"
               "verdicts; `submit` is its client (exit 0 clean, 1 on findings);\n"
               "SIGTERM/SIGINT drain serve gracefully (sinks flushed before exit);\n"
               "serve drops a connection whose client is silent for %d s\n"
               "--status-dir (campaign/serve) publishes an atomic live snapshot.json\n"
               "every --snapshot-interval ms; `status` reads it: a dashboard with\n"
               "the run's health verdict (exit 1 when it is stalled/dead/corrupt,\n"
               "2 when the directory holds no snapshot.json; --watch polls until\n"
               "the run completes, --stall-ms tunes the stall threshold)\n",
               targets.c_str(), kServeConnectionDeadlineSeconds);
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
