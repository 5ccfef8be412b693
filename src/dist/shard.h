#ifndef SRC_DIST_SHARD_H_
#define SRC_DIST_SHARD_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/gauntlet/campaign.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// One shard of a distributed campaign (ROADMAP "campaign-as-a-service").
//
// A shard is a contiguous slice [begin, end) of the program-index space
// [0, N). Per-program seeds derive from the *global* index
// (ParallelCampaign::ProgramSeed), so a shard reproduces exactly the
// programs — and findings — the single-process run assigns to that range,
// and a coordinator merging shard results in shard-index order reproduces
// the single-process report, metrics and coverage byte-identically.
// ---------------------------------------------------------------------------

struct ShardRange {
  int index = 0;  // shard number in [0, shards)
  int begin = 0;  // first global program index (inclusive)
  int end = 0;    // one past the last global program index

  int size() const { return end - begin; }
};

// Splits [0, total) into `shards` contiguous ranges whose sizes differ by
// at most one, earlier shards taking the extra program. `shards` may exceed
// `total`; the surplus shards come back empty (a worker running zero
// programs is a no-op, not an error).
std::vector<ShardRange> PartitionIndexSpace(int total, int shards);

// Everything one shard worker hands back to the coordinator: the unfolded
// campaign report (global indices throughout), the raw merged per-worker
// telemetry, and the cache counters. "Unfolded" means
// CampaignReport::RecordMetrics/RecordCoverage have NOT been applied — the
// distinct-bug domains they compute do not sum across shards, so the
// coordinator folds exactly once on the cross-shard merged report, the
// same single fold a one-process run performs.
struct ShardResult {
  ShardRange range;
  CampaignReport report;
  MetricsRegistry metrics;
  CoverageMap coverage;
  CacheStats cache_stats;
};

// Versioned line-oriented serialization ("gauntletshard 1", hex-encoded
// strings, read through src/support/line_record). Findings round-trip
// without their repro_test packets: corpus triples are written shard-side,
// so the coordinator needs findings only for the merged report and the
// single fold. Malformed input fails loudly with CompileError.
void SaveShardResult(const ShardResult& result, std::ostream& out);
ShardResult LoadShardResult(std::istream& in);

// File wrappers; both throw CompileError (Load also on a missing file — a
// worker that exited 0 without writing its result is a protocol violation,
// not a cold start). Save writes atomically (src/support/file_io.h).
void SaveShardResultFile(const std::string& path, const ShardResult& result);
ShardResult LoadShardResultFile(const std::string& path);

struct ShardWorkerOptions {
  // Campaign configuration (seed, budgets, targets, cache switch). The
  // num_programs field is ignored: the shard range below is authoritative.
  CampaignOptions campaign;
  ShardRange range;
  int jobs = 1;
  // Shard-private corpus directory; empty = no corpus. The coordinator
  // merges shard corpora with MergeCorpusStores afterwards.
  std::string corpus_dir;
  // Live-status directory for this shard (src/obs/snapshot.h); empty = no
  // snapshots/heartbeats. The coordinator points each worker at its own
  // subdirectory of the fleet status dir and aggregates the heartbeats.
  std::string status_dir;
  std::string status_role = "shard";
  int snapshot_interval_ms = 1000;
  // Optional per-process trace collector (`shard-worker --trace-out`).
  // Traces are per-process artifacts: each worker may collect its own, but
  // they never travel through the shard-result protocol or merge across
  // the fleet.
  TraceCollector* trace = nullptr;
};

// Runs one shard in-process: a ParallelCampaign over the range with
// index_begin = range.begin and fold_report_metrics = false, collecting
// metrics and coverage into the result regardless of caller sinks (the
// worker protocol always carries telemetry; the coordinator decides what
// to surface). This is also the body of the `gauntlet shard-worker` verb.
ShardResult RunShardWorker(const ShardWorkerOptions& options, const BugConfig& bugs);

}  // namespace gauntlet

#endif  // SRC_DIST_SHARD_H_
