// The campaign workloads (tv-tail, fault-dense-j4): repetitions of
// ParallelCampaign::Run, untraced or with the program's own metrics and
// trace sinks installed, and the correctness gate.
#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/gen/generator.h"
#include "src/runtime/parallel_campaign.h"
#include "src/runtime/worker_pool.h"
#include "src/target/stf.h"
#include "src/target/target.h"

namespace perfbench {
namespace {

using gauntlet::CampaignReport;
using gauntlet::TraceNowMicros;

struct CampaignSetup {
  gauntlet::ParallelCampaignOptions options;
  gauntlet::BugConfig bugs;
};

CampaignSetup MakeCampaignSetup(const BenchConfig& config) {
  CampaignSetup setup;
  setup.bugs = BugsFromNames(config.bugs);
  gauntlet::CampaignOptions& campaign = setup.options.campaign;
  campaign = BaseCampaignOptions();
  campaign.seed = config.campaign_seed;
  campaign.num_programs = config.programs;
  // The order seed permutes the back ends packet tests replay on: the same
  // compiles and executions, presented in another order.
  const std::vector<std::string> names = gauntlet::TargetRegistry::Names();
  for (const int index : Permutation(static_cast<int>(names.size()), config.order_seed)) {
    campaign.targets.push_back(names[static_cast<size_t>(index)]);
  }
  setup.options.jobs = config.jobs;
  return setup;
}

gauntlet::ProgramPtr GenerateProgram(const gauntlet::GeneratorOptions& base, uint64_t seed,
                                     int index) {
  gauntlet::GeneratorOptions options = base;
  options.seed = gauntlet::ParallelCampaign::ProgramSeed(seed, index);
  return gauntlet::ProgramGenerator(options).Generate();
}

struct CampaignRep {
  RepTiming timing;
  CampaignReport report;
  std::map<std::string, double> layers;  // traced repetitions only
  std::set<std::string> absent_keys;
  std::vector<gauntlet::TraceEvent> spans;
  std::vector<double> solve_us;
};

// One ParallelCampaign::Run call, untraced or with the program's metrics
// and trace sinks installed (`traced`). The progress callback runs on the
// pool worker that just finished a program, so per-program latency is the
// gap between consecutive callbacks on one worker (the first program on a
// worker counts from the Run call). In a traced run a program's interval on
// its worker starts at its `generate` event and ends at its callback.
CampaignRep RunCampaign(const CampaignSetup& setup, bool traced) {
  struct Completion {
    int worker;
    uint64_t done_us;
    int program;  // completion order
  };
  std::mutex mutex;
  std::vector<Completion> completions;
  gauntlet::MetricsRegistry registry;
  gauntlet::TraceCollector collector;
  gauntlet::ParallelCampaignOptions options = setup.options;
  if (traced) {
    options.campaign.metrics = &registry;
    options.campaign.trace = &collector;
  }
  options.campaign.progress = [&](uint64_t done, uint64_t) {
    const uint64_t now = TraceNowMicros();
    const int worker = gauntlet::WorkerPool::CurrentWorkerIndex();
    std::lock_guard<std::mutex> lock(mutex);
    completions.push_back({worker, now, static_cast<int>(done) - 1});
  };

  CampaignRep rep;
  const double cpu_start = ProcessCpuSeconds();
  const uint64_t start = TraceNowMicros();
  rep.report = gauntlet::ParallelCampaign(options).Run(setup.bugs);
  const uint64_t end = TraceNowMicros();
  rep.timing.cpu_s = ProcessCpuSeconds() - cpu_start;
  rep.timing.wall_s = static_cast<double>(end - start) * 1e-6;

  // Completions were appended in time order, so each worker's are too.
  std::map<int, uint64_t> last_done;
  for (const Completion& completion : completions) {
    auto [it, inserted] = last_done.try_emplace(completion.worker, start);
    rep.timing.unit_ms.push_back(static_cast<double>(completion.done_us - it->second) / 1000.0);
    it->second = completion.done_us;
  }
  double busy_s = 0;
  for (const auto& [worker, done] : last_done) {
    busy_s += static_cast<double>(done - start) * 1e-6;
    rep.timing.tail_idle_s += static_cast<double>(end - done) * 1e-6;
  }
  rep.timing.busy_ratio = busy_s / (std::max(1, options.jobs) * rep.timing.wall_s);
  if (!traced) {
    return rep;
  }

  // Pair the k-th `generate` event of each worker with its k-th completion.
  const std::vector<gauntlet::TraceEvent> events = collector.SortedEvents();
  std::map<int, std::vector<uint64_t>> generate_starts;
  for (const gauntlet::TraceEvent& event : events) {
    if (event.name == "generate") {
      generate_starts[event.tid].push_back(event.start_us);
    }
  }
  std::map<int, size_t> claimed;
  std::vector<ProgramInterval> intervals;
  for (const Completion& completion : completions) {
    const std::vector<uint64_t>& starts = generate_starts[completion.worker];
    size_t& k = claimed[completion.worker];
    if (k >= starts.size()) {
      throw std::runtime_error("a completed program has no generate event on its worker");
    }
    intervals.push_back({completion.program, completion.worker, starts[k++], completion.done_us});
  }

  const LayerEvents layer_events = AttributeLayerEvents(intervals, events);
  RegistryReader reader(registry);
  rep.layers = LayerValues(reader, layer_events, rep.report);
  rep.layers["gen.generate_ms"] = reader.SpanMs("generate");
  // A campaign parses no source text and crosses no serve framing.
  rep.layers["frontend.parse_ms"] = 0;
  rep.layers["serve.handle_ms"] = 0;
  rep.layers["serve.transport_ms"] = 0;
  rep.absent_keys = reader.absent();
  rep.spans = layer_events.spans;
  rep.solve_us = layer_events.solve_us;
  return rep;
}

// The correctness gate on one report: only seeded faults, every finding
// attributed (or in a component whose attribution gap the workload
// records), and every packet-test finding's repro test passing on a
// fault-free compile of the same program (its expected output came from the
// reference semantics, so a clean back end must agree with it). Returns the
// failed program indices; appends a message per failure to `errors`.
std::set<int> CheckReport(const CampaignSetup& setup, const BenchConfig& config,
                          const CampaignReport& report, std::vector<std::string>& errors) {
  std::set<int> failed;
  for (const gauntlet::BugId bug : report.distinct_bugs) {
    if (!setup.bugs.Has(bug)) {
      errors.push_back("detected a fault that was not seeded: " + gauntlet::BugIdToString(bug));
    }
  }
  const gauntlet::Campaign campaign(setup.options.campaign);
  const gauntlet::GeneratorOptions generator_options = campaign.EffectiveGeneratorOptions();
  const std::vector<const gauntlet::Target*> selected = campaign.SelectedTargets();
  for (const gauntlet::Finding& finding : report.findings) {
    const std::string where = "program " + std::to_string(finding.program_index);
    if (!finding.attributed.has_value()) {
      if (config.known_unattributed.count(finding.component) != 0) {
        continue;
      }
      failed.insert(finding.program_index);
      errors.push_back(where + ": unattributed finding in " + finding.component);
      continue;
    }
    if (finding.method != gauntlet::DetectionMethod::kPacketTest ||
        !finding.repro_test.has_value()) {
      continue;
    }
    const gauntlet::ProgramPtr program =
        GenerateProgram(generator_options, setup.options.campaign.seed, finding.program_index);
    const gauntlet::BugLocation location = gauntlet::GetBugInfo(*finding.attributed).location;
    for (const gauntlet::Target* target : selected) {
      if (target->location() != location) {
        continue;
      }
      try {
        const auto clean = target->Compile(*program, gauntlet::BugConfig{});
        if (!gauntlet::RunPacketTest(*clean, *finding.repro_test).passed) {
          failed.insert(finding.program_index);
          errors.push_back(where + ": repro test fails on a fault-free " + target->name());
        }
      } catch (const std::exception& error) {
        failed.insert(finding.program_index);
        errors.push_back(where + ": fault-free " + target->name() + " compile failed: " +
                         error.what());
      }
    }
  }
  return failed;
}

}  // namespace

int RunCampaignBench(const BenchConfig& config) {
  const CampaignSetup setup = MakeCampaignSetup(config);
  RawResult result;
  result.setup_s = SecondsSinceSpawn(config);
  if (config.setup_only) {
    std::printf("%s\n", RawResultJson(result).c_str());
    return 0;
  }

  std::vector<std::string> fingerprints;
  CampaignReport first;
  bool have_first = false;
  std::vector<gauntlet::TraceEvent> first_spans;
  const auto record = [&](CampaignRep rep) {
    fingerprints.push_back(ReportFingerprint(rep.report));
    if (!have_first) {
      first = std::move(rep.report);
      have_first = true;
    }
  };
  RunSchedule(
      config,
      [&]() {
        CampaignRep rep = RunCampaign(setup, /*traced=*/false);
        result.untraced.push_back(std::move(rep.timing));
        record(std::move(rep));
      },
      [&]() {
        CampaignRep rep = RunCampaign(setup, /*traced=*/true);
        result.traced_wall_s.push_back(rep.timing.wall_s);
        result.traced_layers.push_back(std::move(rep.layers));
        result.absent_keys.insert(rep.absent_keys.begin(), rep.absent_keys.end());
        result.solve_us.insert(result.solve_us.end(), rep.solve_us.begin(), rep.solve_us.end());
        if (first_spans.empty()) {
          first_spans = std::move(rep.spans);
        }
        record(std::move(rep));
      });

  for (const std::string& fingerprint : fingerprints) {
    if (fingerprint != fingerprints.front()) {
      result.errors.push_back("reports differ between repetitions (traced or untraced)");
      break;
    }
  }
  const std::set<int> failed = CheckReport(setup, config, first, result.errors);
  const auto reps = static_cast<int64_t>(fingerprints.size());
  result.attempted = reps * config.programs;
  result.failed = reps * static_cast<int64_t>(failed.size());
  for (const gauntlet::BugId bug : first.distinct_bugs) {
    result.distinct_bugs.push_back(gauntlet::BugIdToString(bug));
  }
  result.unattributed.assign(first.unattributed_components.begin(),
                             first.unattributed_components.end());
  result.tv_undecided = first.structural_mismatches;
  if (!first_spans.empty()) {
    result.trace_file = config.trace_file;
    WriteSpanFile(result.trace_file, first_spans);
  }
  std::printf("%s\n", RawResultJson(result).c_str());
  return 0;
}

}  // namespace perfbench
