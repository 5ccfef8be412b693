#ifndef SRC_RUNTIME_PARALLEL_CAMPAIGN_H_
#define SRC_RUNTIME_PARALLEL_CAMPAIGN_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/gauntlet/campaign.h"
#include "src/runtime/corpus.h"

namespace gauntlet {

struct ParallelCampaignOptions {
  CampaignOptions campaign;
  // Worker threads; 0 = one per hardware thread. Any jobs value produces
  // the identical report (determinism is per-program, not per-schedule).
  int jobs = 1;
  // Global index of the first program: this run covers program indices
  // [index_begin, index_begin + campaign.num_programs). Per-program seeds,
  // finding indices and detection latencies all use the *global* index, so
  // a shard of a larger campaign (src/dist/) reproduces exactly the
  // programs — and findings — the single-process run would have assigned
  // to that index range.
  int index_begin = 0;
  // When false, the caller-provided metrics/coverage sinks receive only the
  // raw per-worker telemetry (merged in worker-index order) without the
  // merged-report fold (CampaignReport::FoldInto). Shard workers run
  // unfolded: the coordinator folds exactly once on the cross-shard merged
  // report, the same single fold a one-process run performs.
  bool fold_report_metrics = true;
  // When non-empty, every distinct finding is persisted as a
  // <key>.p4 / <key>.stf / <key>.finding.json reproducer triple here.
  std::string corpus_dir;
  // When non-empty (and campaign.use_cache is on), warm-starts every worker
  // from this serialized cache (src/cache/cache_file) and rewrites it with
  // the merged worker caches after the run — repeated CI campaigns reuse
  // blast templates and per-program verdicts across processes. Every worker
  // loads the identical file, so reports stay bit-identical for any --jobs.
  std::string cache_file;
  // When non-empty, the run publishes live telemetry into this directory
  // (src/obs/snapshot.h): an atomic snapshot.json + heartbeat.json every
  // snapshot_interval_ms, driven by a mutex-protected live accumulator the
  // workers feed in *completion* order. Live state is observation-only and
  // timing-scoped — the final report and every deterministic section stay
  // byte-identical with status on or off.
  std::string status_dir;
  std::string status_role = "campaign";
  int snapshot_interval_ms = 1000;
};

// The campaign driver, the one loop over generated programs (`gauntlet
// campaign` and its `fuzz` alias, shard workers, find->fix rounds): shards
// the program loop across a WorkerPool. Campaign iterations are fully
// independent — per-program state, per-program solver — and the hot path is
// solver time, so throughput scales near-linearly with cores.
//
// Determinism: program i is generated from its own derived seed
// ProgramSeed(seed, i) (splitmix64-mixed; no program depends on the ones
// before it), and every program's findings land in a per-program slot
// merged in index order. The report is therefore bit-identical for any
// --jobs value, and `--jobs 1` *is* the serial baseline.
//
// Caching (campaign.use_cache): each worker owns one ValidationCache, so
// workers never contend and — because blast-template replay is bit-exact
// and verdict entries are program-scoped — the report stays bit-identical
// for any scheduling and any jobs count, cache on or off.
class ParallelCampaign {
 public:
  explicit ParallelCampaign(ParallelCampaignOptions options)
      : options_(std::move(options)) {}

  // `stats_out`, when non-null, receives the cache counters summed over the
  // workers. Kept out of the report: hit patterns depend on which programs
  // each worker happened to claim.
  CampaignReport Run(const BugConfig& bugs, CacheStats* stats_out = nullptr) const;

  // The per-program generator seed: campaign seed XOR a splitmix64 hash of
  // the program index (hashing keeps neighbouring indices' xoshiro seed
  // states decorrelated; index 0 hashes to a non-zero word).
  static uint64_t ProgramSeed(uint64_t campaign_seed, int program_index);

 private:
  ParallelCampaignOptions options_;
};

// A multi-round find->fix sequence: round r runs a full campaign at seed
// base.campaign.seed + r, then disables ("fixes") every fault it found
// before the next round — the paper's 4-month dynamic in miniature (§7.1:
// crash bugs dominate early rounds, semantic bugs surface once crashes stop
// pre-empting the pipeline). Stops after `max_rounds`, once no fault is
// left, or after a round that found nothing. Like each round, the result
// is identical for any base.jobs value.
struct FindFixResult {
  std::set<BugId> found;                 // cumulative distinct faults
  std::vector<CampaignReport> rounds;    // per-round reports
  BugConfig remaining;                   // faults never detected
};
FindFixResult RunFindFixCampaign(const ParallelCampaignOptions& base, const BugConfig& initial,
                                 int max_rounds);

}  // namespace gauntlet

#endif  // SRC_RUNTIME_PARALLEL_CAMPAIGN_H_
