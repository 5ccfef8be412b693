#ifndef SRC_DIST_COORDINATOR_H_
#define SRC_DIST_COORDINATOR_H_

#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/gauntlet/campaign.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// The shard coordinator: the fleet driver for a distributed campaign.
//
// Partitions [0, N) into contiguous shards (PartitionIndexSpace), runs each
// shard — in-process, or as a child `gauntlet shard-worker` process — and
// merges the shard results in shard-index order:
//
//   * reports     CampaignReport::Merge, shard order == global index order;
//   * metrics     MetricsRegistry::MergeFrom (sums/maxes commute);
//   * coverage    CoverageMap::MergeFrom (counts sum);
//   * corpora     MergeCorpusStores (manifest union, earliest shard wins);
//   * cache stats CacheStats::Merge (counters sum).
//
// then performs the single report fold (CampaignReport::FoldInto) a
// one-process run would perform. The deterministic sections of the merged
// report, metrics.json, coverage.json and the corpus manifest are therefore
// byte-identical to a single-process run of the same N/seed for ANY shard
// topology x --jobs combination, cache on or off — the CI shard-identity
// gate diffs exactly that.
// ---------------------------------------------------------------------------

struct ShardCoordinatorOptions {
  // The full campaign (N = campaign.num_programs, the global index space).
  // The metrics/coverage sinks receive the merged-and-folded telemetry;
  // campaign.trace must be null (traces are per-process, never sharded).
  CampaignOptions campaign;
  int shards = 1;
  int jobs = 1;  // worker threads per shard
  // Final merged corpus destination; empty = off.
  std::string corpus_dir;
  // Where per-shard artifacts (result files, shard corpora) live. Empty =
  // a private directory under the system temp dir, removed after a
  // successful merge; non-empty = kept for inspection.
  std::string scratch_dir;
  // Path to a `gauntlet` binary: shards run as child `shard-worker`
  // processes. Empty = shards run in-process (the results still round-trip
  // through their on-disk files, so both modes exercise the full worker
  // protocol).
  std::string worker_binary;
  // Extra argv entries forwarded verbatim to every child (subprocess mode
  // only): --bug/--targets/--no-cache/--no-budgets and friends. The
  // coordinator owns the topology flags; the caller owns the campaign
  // flags.
  std::vector<std::string> worker_flags;
  // Live fleet telemetry (src/obs/snapshot.h, src/obs/health.h). When
  // non-empty, the coordinator publishes its own snapshot/heartbeat here,
  // points shard i at the `shard-<i>` subdirectory (both child-process and
  // in-process modes), and aggregates the shard heartbeats into a
  // fleet-wide view — flagging stalled/dead shards — in its snapshot.
  // Observation-only: deterministic outputs are byte-identical with this
  // on or off.
  std::string status_dir;
  int snapshot_interval_ms = 1000;
  // A shard whose heartbeat goes quiet for this long (while its process is
  // still alive) is flagged stalled in the fleet view.
  uint64_t stall_threshold_ms = 10000;
};

struct CoordinatorOutcome {
  CampaignReport report;  // merged across shards, folded once
  std::vector<ShardRange> shard_ranges;  // the topology that ran
};

// Runs the fleet. Throws CompileError when a worker fails (nonzero exit,
// missing result file, malformed result). The `gauntlet campaign --shards`
// entry point.
CoordinatorOutcome RunShardCoordinator(const ShardCoordinatorOptions& options,
                                       const BugConfig& bugs);

}  // namespace gauntlet

#endif  // SRC_DIST_COORDINATOR_H_
