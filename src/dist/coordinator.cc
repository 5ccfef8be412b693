#include "src/dist/coordinator.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#include <atomic>
#include <memory>

#include "src/obs/health.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/runtime/corpus.h"
#include "src/support/error.h"
#include "src/support/file_io.h"

namespace gauntlet {

namespace fs = std::filesystem;

namespace {

// Per-shard scratch layout under the coordinator's scratch directory.
std::string ResultPath(const std::string& scratch, int shard) {
  return (fs::path(scratch) / ("shard-" + std::to_string(shard) + ".result")).string();
}
std::string ShardCorpusPath(const std::string& scratch, int shard) {
  return (fs::path(scratch) / ("shard-" + std::to_string(shard) + "-corpus")).string();
}
// Each fleet worker publishes live status under its own subdirectory of the
// coordinator's status dir — the layout `gauntlet status` scans.
std::string ShardStatusDir(const std::string& status_dir, int shard) {
  return (fs::path(status_dir) / ("shard-" + std::to_string(shard))).string();
}

// Child argv for one shard: the topology flags the coordinator owns, then
// the campaign flags the caller forwarded verbatim.
std::vector<std::string> WorkerArgv(const ShardCoordinatorOptions& options,
                                    const ShardRange& range, const std::string& scratch) {
  std::vector<std::string> argv = {
      options.worker_binary,
      "shard-worker",
      "--shard-begin",
      std::to_string(range.begin),
      "--shard-end",
      std::to_string(range.end),
      "--seed",
      std::to_string(options.campaign.seed),
      "--jobs",
      std::to_string(options.jobs),
      "--result-out",
      ResultPath(scratch, range.index),
  };
  if (!options.corpus_dir.empty()) {
    argv.push_back("--corpus");
    argv.push_back(ShardCorpusPath(scratch, range.index));
  }
  if (!options.status_dir.empty()) {
    argv.push_back("--status-dir");
    argv.push_back(ShardStatusDir(options.status_dir, range.index));
    argv.push_back("--status-role");
    argv.push_back("shard-" + std::to_string(range.index));
    argv.push_back("--snapshot-interval");
    argv.push_back(std::to_string(options.snapshot_interval_ms));
  }
  argv.insert(argv.end(), options.worker_flags.begin(), options.worker_flags.end());
  return argv;
}

// Spawns every shard as a child process, then reaps them all: shards run
// concurrently (each owns its scratch files), and any failure reports the
// first broken shard by index.
void RunWorkerProcesses(const ShardCoordinatorOptions& options,
                        const std::vector<ShardRange>& ranges, const std::string& scratch) {
  std::vector<pid_t> children;
  children.reserve(ranges.size());
  for (const ShardRange& range : ranges) {
    const std::vector<std::string> argv = WorkerArgv(options, range, scratch);
    std::vector<char*> raw;
    raw.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      raw.push_back(const_cast<char*>(arg.c_str()));
    }
    raw.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      throw CompileError("cannot fork shard worker " + std::to_string(range.index));
    }
    if (pid == 0) {
      execv(raw[0], raw.data());
      _exit(127);  // exec failed; 127 is the shell's "command not found"
    }
    children.push_back(pid);
  }
  std::string failure;
  for (size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    if (waitpid(children[i], &status, 0) < 0) {
      if (failure.empty()) {
        failure = "cannot wait for shard worker " + std::to_string(ranges[i].index);
      }
      continue;
    }
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok && failure.empty()) {
      std::ostringstream message;
      message << "shard worker " << ranges[i].index << " (programs [" << ranges[i].begin
              << ", " << ranges[i].end << ")) ";
      if (WIFEXITED(status)) {
        message << "exited " << WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        message << "killed by signal " << WTERMSIG(status);
      } else {
        message << "failed";
      }
      failure = message.str();
    }
  }
  if (!failure.empty()) {
    throw CompileError(failure);
  }
}

}  // namespace

CoordinatorOutcome RunShardCoordinator(const ShardCoordinatorOptions& options,
                                       const BugConfig& bugs) {
  if (options.campaign.trace != nullptr) {
    throw CompileError("traces are per-process; a sharded campaign cannot collect one");
  }
  const uint64_t run_start_micros = TraceNowMicros();
  const std::vector<ShardRange> ranges =
      PartitionIndexSpace(options.campaign.num_programs, options.shards);

  // Scratch directory for the worker protocol's on-disk artifacts. A
  // caller-provided directory is kept for inspection; a private one is
  // removed after a successful merge.
  std::string scratch = options.scratch_dir;
  const bool private_scratch = scratch.empty();
  if (private_scratch) {
    scratch = (fs::temp_directory_path() /
               ("gauntlet-shards-" + std::to_string(static_cast<long>(getpid()))))
                  .string();
  }
  std::error_code ec;
  fs::create_directories(scratch, ec);
  if (ec || !fs::is_directory(scratch)) {
    throw CompileError("cannot create shard scratch directory '" + scratch + "'");
  }

  // --- live fleet status (src/obs/snapshot.h + health.h) -------------------
  //
  // The coordinator's own snapshot aggregates the shard heartbeats: totals
  // summed across the fleet, plus a per-shard health digest (stalled/dead
  // shards flagged by heartbeat age + pid liveness). Once the merge
  // finishes, the finalized counters come from the authoritative merged
  // report instead. All of it is observation-only.
  struct CoordinatorLive {
    std::atomic<const char*> phase{"running-shards"};
    std::atomic<bool> finalized{false};
    std::atomic<uint64_t> final_done{0};
    std::atomic<uint64_t> final_tests{0};
    std::atomic<uint64_t> final_findings{0};
    std::atomic<uint64_t> final_distinct{0};
  };
  CoordinatorLive live;
  std::unique_ptr<StatusEmitter> emitter;
  if (!options.status_dir.empty()) {
    for (const ShardRange& range : ranges) {
      fs::create_directories(ShardStatusDir(options.status_dir, range.index), ec);
    }
    const uint64_t started_ms = UnixNowMillis();
    const uint64_t stall_ms =
        options.stall_threshold_ms > 0 ? options.stall_threshold_ms : kDefaultStallThresholdMs;
    emitter = std::make_unique<StatusEmitter>(
        options.status_dir, options.snapshot_interval_ms,
        [&options, &ranges, &live, started_ms, stall_ms]() {
          Snapshot snapshot;
          snapshot.role = "coordinator";
          snapshot.phase = live.phase.load(std::memory_order_relaxed);
          snapshot.pid = static_cast<int64_t>(getpid());
          snapshot.started_unix_ms = started_ms;
          snapshot.updated_unix_ms = UnixNowMillis();
          snapshot.programs_total =
              static_cast<uint64_t>(options.campaign.num_programs > 0
                                        ? options.campaign.num_programs
                                        : 0);
          const uint64_t now = snapshot.updated_unix_ms;
          for (const ShardRange& range : ranges) {
            ShardHealthSummary summary;
            summary.role = "shard-" + std::to_string(range.index);
            summary.programs_total = static_cast<uint64_t>(range.size());
            std::string text;
            Heartbeat heartbeat;
            std::string error;
            const std::string path =
                HeartbeatPathIn(ShardStatusDir(options.status_dir, range.index));
            if (!ReadFile(path, &text)) {
              summary.state = "starting";  // the worker has not published yet
            } else if (!ParseHeartbeatJson(text, &heartbeat, &error)) {
              summary.state = WorkerHealthToString(WorkerHealth::kCorrupt);
            } else {
              const HealthVerdict verdict = EvaluateHeartbeat(
                  heartbeat, now, stall_ms, ProcessAlive(heartbeat.pid));
              summary.state = WorkerHealthToString(verdict.state);
              summary.age_ms = verdict.age_ms;
              summary.programs_done = heartbeat.programs_done;
              summary.findings = heartbeat.findings;
              if (!live.finalized.load(std::memory_order_relaxed)) {
                snapshot.programs_done += heartbeat.programs_done;
                snapshot.tests_generated += heartbeat.tests_generated;
                snapshot.findings += heartbeat.findings;
              }
            }
            snapshot.shards.push_back(std::move(summary));
          }
          if (live.finalized.load(std::memory_order_relaxed)) {
            snapshot.programs_done = live.final_done.load(std::memory_order_relaxed);
            snapshot.tests_generated = live.final_tests.load(std::memory_order_relaxed);
            snapshot.findings = live.final_findings.load(std::memory_order_relaxed);
            snapshot.distinct_bugs = live.final_distinct.load(std::memory_order_relaxed);
          }
          return snapshot;
        });
  }

  if (!options.worker_binary.empty()) {
    RunWorkerProcesses(options, ranges, scratch);
  } else {
    // In-process mode still writes and re-reads every result file, so both
    // modes exercise the full worker serialization protocol.
    uint64_t done_offset = 0;
    uint64_t findings_offset = 0;
    for (const ShardRange& range : ranges) {
      ShardWorkerOptions worker = {};
      worker.campaign = options.campaign;
      worker.campaign.metrics = nullptr;
      worker.campaign.coverage = nullptr;
      worker.campaign.trace = nullptr;
      if (options.campaign.progress) {
        const auto progress = options.campaign.progress;
        const uint64_t done_base = done_offset;
        const uint64_t findings_base = findings_offset;
        worker.campaign.progress = [progress, done_base, findings_base](uint64_t done,
                                                                        uint64_t findings) {
          progress(done_base + done, findings_base + findings);
        };
      }
      worker.range = range;
      worker.jobs = options.jobs;
      if (!options.status_dir.empty()) {
        worker.status_dir = ShardStatusDir(options.status_dir, range.index);
        worker.status_role = "shard-" + std::to_string(range.index);
        worker.snapshot_interval_ms = options.snapshot_interval_ms;
      }
      if (!options.corpus_dir.empty()) {
        worker.corpus_dir = ShardCorpusPath(scratch, range.index);
      }
      const ShardResult result = RunShardWorker(worker, bugs);
      done_offset += static_cast<uint64_t>(result.report.programs_generated);
      findings_offset += result.report.findings.size();
      SaveShardResultFile(ResultPath(scratch, range.index), result);
    }
  }
  live.phase.store("merging", std::memory_order_relaxed);

  // Merge in shard-index order — which IS global index order under
  // contiguous partitioning, so CampaignReport::Merge reproduces the
  // single-process counters (latency offsets included) exactly.
  CoordinatorOutcome outcome;
  outcome.shard_ranges = ranges;
  std::vector<ShardResult> results;
  results.reserve(ranges.size());
  for (const ShardRange& range : ranges) {
    ShardResult result = LoadShardResultFile(ResultPath(scratch, range.index));
    if (result.range.begin != range.begin || result.range.end != range.end) {
      throw CompileError("shard " + std::to_string(range.index) +
                         " result covers the wrong range");
    }
    results.push_back(std::move(result));
  }
  CacheStats cache_stats;
  for (ShardResult& result : results) {
    outcome.report.Merge(std::move(result.report));
    cache_stats.Merge(result.cache_stats);
  }
  outcome.report.run_start_micros = run_start_micros;

  // The single fold a one-process run performs, now on the cross-shard
  // merged state: raw shard registries/maps first (shard order), then the
  // report's deterministic domains exactly once.
  for (const ShardResult& result : results) {
    if (options.campaign.metrics != nullptr) {
      options.campaign.metrics->MergeFrom(result.metrics);
    }
    if (options.campaign.coverage != nullptr) {
      options.campaign.coverage->MergeFrom(result.coverage);
    }
  }
  outcome.report.FoldInto(options.campaign.metrics, options.campaign.coverage,
                          options.campaign.use_cache ? &cache_stats : nullptr, bugs);

  if (!options.corpus_dir.empty()) {
    std::vector<std::string> shard_corpora;
    shard_corpora.reserve(ranges.size());
    for (const ShardRange& range : ranges) {
      const std::string dir = ShardCorpusPath(scratch, range.index);
      if (fs::is_directory(dir)) {
        shard_corpora.push_back(dir);
      }
    }
    MergeCorpusStores(options.corpus_dir, shard_corpora);
  }

  if (private_scratch) {
    fs::remove_all(scratch, ec);  // best-effort; scratch is disposable
  }
  if (emitter != nullptr) {
    // Publish the finished fleet state from the authoritative merged report,
    // then emit the final snapshot and stop. Phase "done" tells supervisors
    // the aging heartbeat is success, not a stall.
    live.final_done.store(static_cast<uint64_t>(outcome.report.programs_generated),
                          std::memory_order_relaxed);
    live.final_tests.store(static_cast<uint64_t>(outcome.report.tests_generated),
                           std::memory_order_relaxed);
    live.final_findings.store(outcome.report.findings.size(), std::memory_order_relaxed);
    live.final_distinct.store(outcome.report.DistinctCount(), std::memory_order_relaxed);
    live.finalized.store(true, std::memory_order_relaxed);
    live.phase.store("done", std::memory_order_relaxed);
    emitter->Stop();
  }
  return outcome;
}

}  // namespace gauntlet
