#ifndef SRC_SMT_BITBLAST_H_
#define SRC_SMT_BITBLAST_H_

#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/smt/expr.h"
#include "src/smt/sat.h"

namespace gauntlet {

class BlastCache;
struct BlastTemplate;
class StructHasher;

// Lowers SMT expressions into CNF over a SatSolver via Tseitin encoding.
// Bit-vectors become little-endian literal vectors; word-level operators
// become gate networks (ripple-carry adders, shift-add multipliers, barrel
// shifters, ripple comparators). One BitBlaster per solve; memoizes per
// SmtRef so shared subgraphs are encoded once.
//
// Gate nodes are also structurally hashed ("strash", as in AIG packages):
// keyed on the op plus each operand's blasted literals, so two different
// SmtRefs that blast to the same operands — a concat of slices and the
// equivalent mask-and-or, say — share one gate network instead of reaching
// the SAT core as two circuits it must prove equal. The table is scoped to
// the blaster and works on whole nodes, never single gates: a hit returns
// before any template recording or replay starts, so a template still
// references only its own node's literals and replay stays bit-exact.
//
// With a BlastCache attached, gate nodes are additionally memoized *across*
// solves (and contexts) by exact structural fingerprint: the first lowering
// of a node records its clause fragment as a template, later lowerings
// replay the fragment with the variables remapped instead of re-running the
// gate constructors. Replay is bit-exact (see blast_cache.h), so attaching
// a cache never changes the produced SAT instance.
class BitBlaster {
 public:
  BitBlaster(const SmtContext& context, SatSolver& solver, BlastCache* cache = nullptr);
  ~BitBlaster();

  // Encodes a boolean expression and returns its literal.
  Lit BlastBool(SmtRef ref);
  // Encodes a bit-vector expression; result[0] is the least significant bit.
  std::vector<Lit> BlastVector(SmtRef ref);

  // Asserts that a boolean expression holds.
  void Assert(SmtRef ref) { solver_.AddClause({BlastBool(ref)}); }

  // After a kSat solve: concrete value of an encoded bit-vector variable.
  // Variables never encoded default to zero.
  uint64_t VarValue(uint32_t var_id) const;
  bool BoolVarValue(uint32_t var_id) const;

  // Gate nodes served from the structural hash table since the previous
  // call (the `smt/strash_hits` counter).
  uint64_t TakeStrashHits() { return std::exchange(strash_hits_, 0); }

 private:
  struct StrashKeyHash {
    size_t operator()(const std::vector<uint32_t>& key) const;
  };

  Lit TrueLit() const { return true_lit_; }
  Lit FalseLit() const { return ~true_lit_; }
  Lit FreshLit();
  // Clause sink for the gate constructors: forwards to the SAT solver and,
  // while recording, captures the clause into the template being built.
  void EmitClause(std::initializer_list<Lit> lits);

  // Gate constructors with constant folding against true_lit_.
  Lit MkAnd(Lit a, Lit b);
  Lit MkOr(Lit a, Lit b);
  Lit MkXor(Lit a, Lit b);
  Lit MkMux(Lit cond, Lit then_lit, Lit else_lit);
  Lit MkIff(Lit a, Lit b) { return ~MkXor(a, b); }

  std::vector<Lit> AddVectors(const std::vector<Lit>& a, const std::vector<Lit>& b, Lit carry_in);
  std::vector<Lit> NegateVector(const std::vector<Lit>& a);
  std::vector<Lit> MulVectors(const std::vector<Lit>& a, const std::vector<Lit>& b);
  std::vector<Lit> ShiftVector(const std::vector<Lit>& value, const std::vector<Lit>& amount,
                               bool left);
  Lit UltVectors(const std::vector<Lit>& a, const std::vector<Lit>& b, bool or_equal);
  Lit EqVectors(const std::vector<Lit>& a, const std::vector<Lit>& b);

  // The lowering of a gate node (every non-leaf op that builds gates, as
  // opposed to pure bit wiring): blasts the children, then returns the
  // outputs of a structurally equal node lowered earlier, or else either
  // replays a cached template or constructs the gates while recording one.
  // Boolean-sorted nodes return a single-literal vector.
  std::vector<Lit> BlastGateNode(SmtRef ref, const SmtNode& node);
  std::vector<Lit> LowerGateNode(SmtRef ref, const SmtNode& node,
                                 const std::vector<std::vector<Lit>>& kids);
  std::vector<Lit> ConstructGates(const SmtNode& node,
                                  const std::vector<std::vector<Lit>>& kids);
  std::vector<Lit> ReplayTemplate(const BlastTemplate& tpl, const std::vector<Lit>& inputs);
  void StartRecording(const std::vector<Lit>& inputs);
  void RegisterRecordedLit(Lit lit);
  uint32_t MapRecordedLit(Lit lit) const;

  const SmtContext& context_;
  SatSolver& solver_;
  Lit true_lit_;
  std::unordered_map<uint32_t, std::vector<Lit>> vector_cache_;  // SmtRef.index -> bits
  std::unordered_map<uint32_t, Lit> bool_cache_;                 // SmtRef.index -> lit
  std::unordered_map<uint32_t, std::vector<Lit>> var_bits_;      // var_id -> bits
  std::unordered_map<uint32_t, Lit> bool_var_lits_;              // var_id -> lit
  // Structural hash table: [op, per operand: width, literal codes...] ->
  // the node's output literals.
  std::unordered_map<std::vector<uint32_t>, std::vector<Lit>, StrashKeyHash> strash_;
  uint64_t strash_hits_ = 0;

  // Cross-solver memoization (optional).
  BlastCache* cache_ = nullptr;
  std::unique_ptr<StructHasher> hasher_;  // exact-mode, lazily sized memo
  bool recording_ = false;
  std::unique_ptr<BlastTemplate> recording_template_;
  uint32_t recording_next_slot_ = 0;
  std::unordered_map<uint32_t, uint32_t> recording_slots_;  // var -> slot<<1|neg
};

}  // namespace gauntlet

#endif  // SRC_SMT_BITBLAST_H_
