#include "src/runtime/parallel_campaign.h"

#include <unistd.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/gen/generator.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/runtime/worker_pool.h"

namespace gauntlet {

uint64_t ParallelCampaign::ProgramSeed(uint64_t campaign_seed, int program_index) {
  // splitmix64 finalizer over the index, then XOR into the campaign seed.
  uint64_t z = static_cast<uint64_t>(program_index) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return campaign_seed ^ z;
}

CampaignReport ParallelCampaign::Run(const BugConfig& bugs, CacheStats* stats_out) const {
  const uint64_t run_start_micros = TraceNowMicros();
  const int total = options_.campaign.num_programs;
  const Campaign campaign(options_.campaign);

  // The single-target generator bias resolves once, up front: every derived
  // per-program seed reshapes the same effective options.
  GeneratorOptions generator_options = campaign.EffectiveGeneratorOptions();
  const auto generate = [&generator_options, this](int index) {
    GeneratorOptions per_program = generator_options;
    per_program.seed = ProgramSeed(options_.campaign.seed, index);
    return ProgramGenerator(per_program).Generate();
  };

  // One report slot per program: workers never share mutable state, so the
  // merge below is order-deterministic no matter how indices were scheduled.
  std::vector<CampaignReport> slots(static_cast<size_t>(total > 0 ? total : 0));
  const int jobs = options_.jobs == 0 ? WorkerPool::HardwareThreads() : options_.jobs;

  // One cache per worker, created up front so the task bodies only ever
  // touch their own slot.
  std::vector<std::unique_ptr<ValidationCache>> caches;
  if (options_.campaign.use_cache) {
    caches.resize(static_cast<size_t>(jobs < 1 ? 1 : jobs));
    for (auto& cache : caches) {
      cache = std::make_unique<ValidationCache>();
    }
  }

  // Telemetry sinks mirror the cache layout: one registry and one trace
  // buffer per worker, owned up front, merged in index order after the run.
  // Only the merge order matters for determinism — and only for metrics the
  // instrumentation sites marked deterministic (schedule-independent).
  const size_t sink_count = static_cast<size_t>(jobs < 1 ? 1 : jobs);
  std::vector<MetricsRegistry> worker_metrics(
      options_.campaign.metrics != nullptr ? sink_count : 0);
  std::vector<TraceBuffer*> worker_traces;
  if (options_.campaign.trace != nullptr) {
    worker_traces.reserve(sink_count);
    for (size_t i = 0; i < sink_count; ++i) {
      worker_traces.push_back(options_.campaign.trace->NewBuffer(static_cast<int>(i)));
    }
  }
  std::atomic<uint64_t> programs_done{0};
  std::atomic<uint64_t> findings_found{0};
  std::atomic<uint64_t> tests_generated{0};

  // --- live status (src/obs/snapshot.h), observation-only ------------------
  //
  // The snapshot provider reads only the completion-order atomics above;
  // the authoritative report below merges the slots in index order, so
  // nothing deterministic ever depends on the live state.
  std::atomic<const char*> phase{"testing"};
  std::unique_ptr<StatusEmitter> emitter;
  if (!options_.status_dir.empty()) {
    const uint64_t started_ms = UnixNowMillis();
    emitter = std::make_unique<StatusEmitter>(
        options_.status_dir, options_.snapshot_interval_ms,
        [&phase, &programs_done, &findings_found, &tests_generated, total, started_ms]() {
          Snapshot snapshot;
          snapshot.role = "campaign";
          snapshot.phase = phase.load(std::memory_order_relaxed);
          snapshot.pid = static_cast<int64_t>(getpid());
          snapshot.started_unix_ms = started_ms;
          snapshot.updated_unix_ms = UnixNowMillis();
          snapshot.programs_total = static_cast<uint64_t>(total > 0 ? total : 0);
          snapshot.programs_done = programs_done.load(std::memory_order_relaxed);
          snapshot.tests_generated = tests_generated.load(std::memory_order_relaxed);
          snapshot.findings = findings_found.load(std::memory_order_relaxed);
          return snapshot;
        });
  }

  WorkerPool pool(jobs);
  ParallelFor(pool, total, [&](int index) {
    const int worker = WorkerPool::CurrentWorkerIndex();
    const bool worker_known = worker >= 0 && static_cast<size_t>(worker) < sink_count;
    ScopedMetricsSink metrics_sink(
        worker_known && !worker_metrics.empty() ? &worker_metrics[static_cast<size_t>(worker)]
                                                : nullptr);
    ScopedTraceSink trace_sink(worker_known && !worker_traces.empty()
                                   ? worker_traces[static_cast<size_t>(worker)]
                                   : nullptr);
    CampaignReport& slot = slots[static_cast<size_t>(index)];
    ProgramPtr program;
    {
      TraceSpan span("generate", "gen");
      program = generate(index);
    }
    ++slot.programs_generated;
    ValidationCache* cache =
        (!caches.empty() && worker >= 0 && worker < static_cast<int>(caches.size()))
            ? caches[static_cast<size_t>(worker)].get()
            : nullptr;
    campaign.TestProgram(*program, bugs, index, slot, cache);
    findings_found.fetch_add(slot.findings.size(), std::memory_order_relaxed);
    tests_generated.fetch_add(static_cast<uint64_t>(slot.tests_generated),
                              std::memory_order_relaxed);
    const uint64_t done = programs_done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.campaign.progress) {
      options_.campaign.progress(done, findings_found.load(std::memory_order_relaxed));
    }
  });
  phase.store("merging", std::memory_order_relaxed);

  CampaignReport report;
  for (CampaignReport& slot : slots) {
    report.Merge(std::move(slot));
  }
  CacheStats merged_stats;
  for (const auto& cache : caches) {
    merged_stats.Merge(cache->Stats());
  }
  // Worker registries merge in worker-index order, then the campaign-level
  // counters and coverage domains are folded from the merged
  // (schedule-independent) report — so the deterministic section of
  // metrics.json is bit-identical for any jobs value.
  if (options_.campaign.metrics != nullptr) {
    for (const MetricsRegistry& registry : worker_metrics) {
      options_.campaign.metrics->MergeFrom(registry);
    }
  }
  report.run_start_micros = run_start_micros;
  report.FoldInto(options_.campaign.metrics, caches.empty() ? nullptr : &merged_stats, bugs);
  if (stats_out != nullptr) {
    *stats_out = merged_stats;
  }

  // Corpus writes happen after the merge, in finding order, so the stored
  // triple for each key comes from the *first* program that tripped it —
  // deterministic for any jobs count, like the report itself. Regenerating
  // a program from its per-index seed costs microseconds next to the
  // solver time its findings already consumed, and the HasKey pre-check
  // skips even that for the (common) repeat findings of one hot fault.
  if (!options_.corpus_dir.empty()) {
    CorpusStore corpus(options_.corpus_dir);
    for (const Finding& finding : report.findings) {
      if (corpus.HasKey(CorpusStore::KeyFor(finding))) {
        continue;
      }
      corpus.Add(*generate(finding.program_index), finding);
    }
  }

  if (emitter != nullptr) {
    // Publish the finished state: phase "done" tells supervisors the aging
    // snapshot is success, not a stall.
    phase.store("done", std::memory_order_relaxed);
    emitter->Stop();
  }
  return report;
}

FindFixResult RunFindFixCampaign(const ParallelCampaignOptions& base, const BugConfig& initial,
                                 int max_rounds) {
  FindFixResult result;
  result.remaining = initial;
  for (int round = 0; round < max_rounds && !result.remaining.empty(); ++round) {
    ParallelCampaignOptions options = base;
    options.campaign.seed = base.campaign.seed + static_cast<uint64_t>(round);
    CampaignReport report = ParallelCampaign(options).Run(result.remaining);
    const bool found_any = !report.distinct_bugs.empty();
    for (const BugId bug : report.distinct_bugs) {
      result.found.insert(bug);
      result.remaining.Disable(bug);
    }
    result.rounds.push_back(std::move(report));
    if (!found_any) {
      break;
    }
  }
  return result;
}

}  // namespace gauntlet
