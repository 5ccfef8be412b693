#ifndef SRC_CACHE_VERDICT_CACHE_H_
#define SRC_CACHE_VERDICT_CACHE_H_

#include <cstdint>
#include <map>
#include <unordered_map>

#include "src/cache/blast_cache.h"
#include "src/cache/struct_hash.h"
#include "src/cache/summary_cache.h"
#include "src/tv/validator.h"

namespace gauntlet {

struct BlockSemantics;
class MetricsRegistry;

// Counters describing what the memoization subsystem saved. Aggregated
// per worker and surfaced in the timing section of `--metrics-out`; never
// part of a campaign report (hit patterns depend on work scheduling,
// reports must stay bit-identical for any --jobs value).
struct CacheStats {
  uint64_t blast_hits = 0;          // gate nodes replayed from a template
  uint64_t blast_misses = 0;        // gate nodes recorded for the first time
  uint64_t clauses_reused = 0;      // clauses instantiated from templates
  uint64_t verdict_hits = 0;        // pass pairs answered from the cache
  uint64_t verdict_misses = 0;      // pass pairs that ran their queries
  uint64_t queries_skipped = 0;     // SAT queries avoided by verdict hits
  uint64_t pairs_short_circuited = 0;  // canonically identical (before, after)
  uint64_t summary_hits = 0;    // blocks whose interpretation was memoized
  uint64_t summary_misses = 0;  // blocks interpreted and recorded
  uint64_t summary_fps_reused = 0;  // canonical DAG hashes skipped via the
                                    // key → fingerprint side table

  void Merge(const CacheStats& other);

  // Folds the counters into `registry` under stable `cache/...` names
  // (timing scope — hit patterns are schedule-dependent, see above).
  void RecordMetrics(MetricsRegistry& registry) const;
};

// Caches the outcome of whole equivalence queries: the verdict the
// validator reached for a (before, after) semantics pair, keyed by the
// pair's canonical fingerprints. A later pair whose fingerprints match —
// the next pass changed nothing the previous query did not already cover,
// or an attribution rerun re-poses the detection-side query — skips its
// SAT work entirely.
//
// Only definitive verdicts are cached (equivalent / undef-divergence /
// semantic-diff). Budget exhaustion (kStructuralMismatch) is wall-clock
// dependent and must be re-tried, and kInvalidEmit never reaches the
// comparison. Canonical-fingerprint equality implies semantic equality, so
// a cached verdict is the verdict the queries would reach given the budget
// to finish; for repeated kSemanticDiff pairs the stored witness is reused
// rather than re-solved. The one asymmetry this layer permits: where an
// uncached run would exhaust its solver budget on a pair (reporting "a
// pass we could not validate"), a canonical hit can still return the
// proven verdict — the cache only ever upgrades budget exhaustion into a
// definitive answer, never the reverse.
class VerdictCache {
 public:
  struct Entry {
    TvPassResult result;
    // SAT queries the original comparison spent (0 when the difference
    // const-folded) — what a hit genuinely saves, for the stats.
    uint32_t queries = 0;
  };

  // Null on a miss; counts hits/misses.
  const Entry* Find(const Fingerprint& before, const Fingerprint& after);
  void Insert(const Fingerprint& before, const Fingerprint& after, TvPassResult result,
              uint32_t queries);
  // Insert under an already-combined (before, after) key — how
  // ValidationCache::BeginProgram restores a program's archived verdicts.
  void InsertByKey(const Fingerprint& key, Entry entry) {
    entries_.emplace(key, std::move(entry));
  }
  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }

  const std::unordered_map<Fingerprint, Entry, FingerprintHash>& entries() const {
    return entries_;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::unordered_map<Fingerprint, Entry, FingerprintHash> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// The canonical fingerprint of one block's input-output semantics: the
// block's output leaves, names and expressions, in order. Two semantics
// with equal fingerprints are input-output equivalent (commutative
// reassociation included). Callers must not fingerprint semantics the
// interpreter failed to produce — BlockSemantics carries no failure flag,
// so two distinct failures would hash equal (the validator checks its
// version-level failure state before fingerprinting).
Fingerprint SemanticsFingerprint(StructHasher& hasher, const BlockSemantics& semantics);

// Everything one campaign worker, serve session or CLI invocation threads
// through validation and test generation. A cache lives exactly as long as
// its owner, so no answer depends on an earlier run. Blast templates are
// owner-lifetime — replay is bit-exact, so sharing them across programs
// never perturbs a result. Verdict entries are scoped to one program via
// BeginProgram(): cross-program verdict reuse would make a worker's answers
// depend on which programs it happened to process, and parallel campaign
// reports must stay bit-identical for any scheduling.
//
// Verdicts are archived under a caller-supplied *program key* (a content
// hash of the program), and BeginProgram(key) preloads exactly that
// program's archived entries — a serve session that sees the same program
// twice answers the second submission from what it learned about *that
// program*, never from a neighbour.
class ValidationCache {
 public:
  BlastCache& blast() { return blast_; }
  VerdictCache& verdicts() { return verdicts_; }
  SummaryCache& summaries() { return summaries_; }

  // Starts a new program scope. Key 0 = anonymous: verdicts are cleared but
  // nothing is stored or preloaded. A non-zero key archives the finished
  // program's verdicts under its key and preloads any stored entries for
  // the new one.
  void BeginProgram(uint64_t program_key = 0);

  // Counters accumulated since construction (verdict-layer counters are
  // kept across BeginProgram).
  CacheStats Stats() const;
  void CountSkippedQueries(uint64_t queries) { queries_skipped_ += queries; }
  void CountShortCircuit() { ++pairs_short_circuited_; }

 private:
  BlastCache blast_;
  VerdictCache verdicts_;
  SummaryCache summaries_;
  uint64_t current_program_key_ = 0;
  // Verdicts archived per program key.
  std::map<uint64_t, std::map<Fingerprint, VerdictCache::Entry>> stored_verdicts_;
  uint64_t queries_skipped_ = 0;
  uint64_t pairs_short_circuited_ = 0;
};

}  // namespace gauntlet

#endif  // SRC_CACHE_VERDICT_CACHE_H_
