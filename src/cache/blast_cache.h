#ifndef SRC_CACHE_BLAST_CACHE_H_
#define SRC_CACHE_BLAST_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/struct_hash.h"
#include "src/smt/sat.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// Memoized bit-blasting.
//
// Every solver query re-lowers its SMT DAG into CNF, and across a
// translation-validation run the same sub-DAGs get re-lowered dozens of
// times: each pass pair re-encodes the shared version's blocks, the
// undef-pinning query re-encodes what the first query encoded, and test
// generation re-encodes the source semantics the validator already blasted.
// The blast cache remembers, per exact structural fingerprint, the CNF
// fragment a gate node lowered to, and replays it into later solvers with
// the variables remapped.
//
// Replay is *bit-exact*: a template records the precise interleaved
// sequence of fresh-variable allocations and clause emissions the gate
// constructors produced, with every literal expressed relative to a tape of
// [constant-true, the node's input literals, the recorded fresh literals].
// Because the gate constructors' constant folds depend only on the identity
// pattern of their input literals — which the exact fingerprint pins down —
// replaying a template yields the very same clauses, in the same order,
// with the same relative variable numbering, as re-running the
// constructors would. The resulting SAT instance is therefore identical
// clause-for-clause, which is what keeps every verdict, witness model and
// generated test bit-identical with the cache on or off.
// ---------------------------------------------------------------------------

// A literal inside a template: tape slot << 1 | negated. Slot 0 is the
// blaster's constant-true literal; slots [1, 1 + input_count) are the
// node's input literals; later slots are appended by kFresh events.
struct TemplateLit {
  uint32_t code = 0;
};

// One recorded lowering of a gate node.
struct BlastTemplate {
  uint32_t input_count = 0;
  uint32_t fresh_count = 0;   // number of kFresh events (for tape reserve)
  uint32_t clause_count = 0;  // number of clause events (for the stats)
  // Event stream: -1 allocates a fresh literal (appending it to the tape);
  // a value n >= 0 emits a clause whose n literals are the next n entries
  // of clause_lits.
  std::vector<int32_t> events;
  std::vector<TemplateLit> clause_lits;
  // The node's result: one literal for boolean nodes, LSB-first bits for
  // bit-vector nodes.
  std::vector<TemplateLit> outputs;
};

// The memo table, shared across solvers (and, on a campaign worker, across
// programs). Not thread-safe: each worker owns its cache.
//
// Bounded: once kMaxTemplates distinct fingerprints are stored, further
// inserts are dropped. Replay is optional per node, so a full table only
// stops the cache from growing — long-running workers on a diverse
// program stream keep their working set instead of accreting templates
// until the process dies. (No eviction: the hot templates of a campaign
// are the generator's recurring shapes, which are recorded early.)
class BlastCache {
 public:
  static constexpr size_t kMaxTemplates = 1u << 18;

  // Returns the template for `fp`, counting a hit (and the clauses whose
  // re-construction it saves); null on a miss.
  const BlastTemplate* Find(const Fingerprint& fp);
  void Insert(const Fingerprint& fp, BlastTemplate tpl);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t clauses_reused() const { return clauses_reused_; }
  size_t size() const { return templates_.size(); }

 private:
  std::unordered_map<Fingerprint, BlastTemplate, FingerprintHash> templates_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t clauses_reused_ = 0;
};

}  // namespace gauntlet

#endif  // SRC_CACHE_BLAST_CACHE_H_
