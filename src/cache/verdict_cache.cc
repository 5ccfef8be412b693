#include "src/cache/verdict_cache.h"

#include "src/obs/metrics.h"
#include "src/sym/interpreter.h"

namespace gauntlet {

void CacheStats::Merge(const CacheStats& other) {
  blast_hits += other.blast_hits;
  blast_misses += other.blast_misses;
  clauses_reused += other.clauses_reused;
  verdict_hits += other.verdict_hits;
  verdict_misses += other.verdict_misses;
  queries_skipped += other.queries_skipped;
  pairs_short_circuited += other.pairs_short_circuited;
  summary_hits += other.summary_hits;
  summary_misses += other.summary_misses;
  summary_fps_reused += other.summary_fps_reused;
}

void CacheStats::RecordMetrics(MetricsRegistry& registry) const {
  const auto kTiming = MetricScope::kTiming;
  registry.Count("cache/blast_hits", kTiming, blast_hits);
  registry.Count("cache/blast_misses", kTiming, blast_misses);
  registry.Count("cache/clauses_reused", kTiming, clauses_reused);
  registry.Count("cache/pairs_short_circuited", kTiming, pairs_short_circuited);
  registry.Count("cache/queries_skipped", kTiming, queries_skipped);
  registry.Count("cache/summary_fps_reused", kTiming, summary_fps_reused);
  registry.Count("cache/summary_hits", kTiming, summary_hits);
  registry.Count("cache/summary_misses", kTiming, summary_misses);
  registry.Count("cache/verdict_hits", kTiming, verdict_hits);
  registry.Count("cache/verdict_misses", kTiming, verdict_misses);
}

const VerdictCache::Entry* VerdictCache::Find(const Fingerprint& before,
                                              const Fingerprint& after) {
  auto it = entries_.find(CombineFingerprints(before, after));
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void VerdictCache::Insert(const Fingerprint& before, const Fingerprint& after,
                          TvPassResult result, uint32_t queries) {
  entries_.emplace(CombineFingerprints(before, after), Entry{std::move(result), queries});
}

Fingerprint SemanticsFingerprint(StructHasher& hasher, const BlockSemantics& semantics) {
  Fingerprint fp = FingerprintOfString("block-semantics");
  for (const auto& [name, ref] : semantics.outputs) {
    fp = CombineFingerprints(fp, FingerprintOfString(name));
    fp = CombineFingerprints(fp, hasher.Hash(ref));
  }
  return fp;
}

void ValidationCache::BeginProgram(uint64_t program_key) {
  if (current_program_key_ != 0) {
    auto& archived = stored_verdicts_[current_program_key_];
    for (const auto& [key, entry] : verdicts_.entries()) {
      archived.emplace(key, entry);
    }
  }
  verdicts_.Clear();
  current_program_key_ = program_key;
  if (program_key != 0) {
    auto it = stored_verdicts_.find(program_key);
    if (it != stored_verdicts_.end()) {
      for (const auto& [key, entry] : it->second) {
        verdicts_.InsertByKey(key, entry);
      }
    }
  }
}

CacheStats ValidationCache::Stats() const {
  CacheStats stats;
  stats.blast_hits = blast_.hits();
  stats.blast_misses = blast_.misses();
  stats.clauses_reused = blast_.clauses_reused();
  stats.verdict_hits = verdicts_.hits();
  stats.verdict_misses = verdicts_.misses();
  stats.queries_skipped = queries_skipped_;
  stats.pairs_short_circuited = pairs_short_circuited_;
  stats.summary_hits = summaries_.hits();
  stats.summary_misses = summaries_.misses();
  stats.summary_fps_reused = summaries_.fingerprints_reused();
  return stats;
}

}  // namespace gauntlet
