#ifndef SRC_SMT_SAT_H_
#define SRC_SMT_SAT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace gauntlet {

// A literal: variable index with sign. Variables are dense 0-based ints.
struct Lit {
  uint32_t code = 0;  // var << 1 | negated

  Lit() = default;
  Lit(uint32_t var, bool negated) : code((var << 1) | (negated ? 1 : 0)) {}

  static Lit FromCode(uint32_t code) {
    Lit lit;
    lit.code = code;
    return lit;
  }

  uint32_t var() const { return code >> 1; }
  bool negated() const { return (code & 1) != 0; }
  Lit operator~() const { return FromCode(code ^ 1); }
  friend bool operator==(const Lit&, const Lit&) = default;
};

enum class SatResult {
  kSat,
  kUnsat,
  kUnknown,  // conflict budget exhausted before a verdict
};

// Conflict-driven clause learning SAT solver: two-watched-literal
// propagation, first-UIP learning, VSIDS activity with an order heap, phase
// saving, and Luby restarts. This is the decision engine behind the SMT
// equivalence checks that replace Z3 in this reproduction.
//
// The solver is incremental: clauses may be added between Solve calls, and
// Solve accepts assumption literals that hold only for that call
// (MiniSat-style). Incrementality is what makes path enumeration in test
// generation affordable — the formula is encoded once and each path probe
// is a cheap assumption solve that reuses all learned clauses.
//
// Clause storage is one flat arena of 32-bit words (MiniSat's layout). A
// clause reference is the offset of the clause's first word: a header word
// (size << 1 | learned), the clause's conflict count, then its literal
// codes. Watchers and reasons hold these offsets, so adding a clause
// allocates nothing beyond the arena's amortized growth, and propagation
// reads the literals right after the header instead of through a separate
// heap block. Reduction compacts the arena in clause order.
//
// The search is exact: the same calls give the same watcher order, literal
// swaps, conflict analysis, restarts and reductions as the core that kept
// each clause in its own vector, which tests/reference/ keeps and sat_test
// runs in lockstep with this one. Verdicts, models, cores and statistics
// depend on the call sequence alone, so a change that alters the search
// alters them, and must say so.
class SatSolver {
 public:
  // Creates a fresh variable and returns its index.
  uint32_t NewVar();
  uint32_t VarCount() const { return static_cast<uint32_t>(level_.size()); }

  // Adds a clause (disjunction of literals). An empty clause makes the
  // instance trivially unsatisfiable. The literals are copied.
  void AddClause(const Lit* lits, size_t count);
  void AddClause(std::initializer_list<Lit> lits) { AddClause(lits.begin(), lits.size()); }
  void AddClause(const std::vector<Lit>& lits) { AddClause(lits.data(), lits.size()); }

  SatResult Solve() { return Solve({}); }

  // Solves under the given assumption literals. kUnsat means unsatisfiable
  // *under these assumptions*; the clause database is unaffected and later
  // Solve calls with different assumptions behave independently, and
  // failed_assumptions() names the assumptions responsible.
  //
  // Trail reuse: consecutive Solve calls whose assumption vectors share a
  // prefix skip re-propagating that prefix — the decision levels owned by
  // the longest common prefix of the previous call's assumptions are kept
  // on the trail (together with every literal they implied) and the search
  // resumes at the first divergent assumption. Verdicts are unaffected:
  // sat/unsat under assumptions is a property of the clause database, not
  // of the propagation order. Models from assumption solves may differ
  // from what a from-scratch solve would find (learned clauses steer the
  // search differently), which is why result-identity-sensitive callers
  // extract witness models from a fresh solver (see testgen).
  SatResult Solve(const std::vector<Lit>& assumptions);

  // Disables (or re-enables) assumption-trail reuse between Solve calls.
  // Off, every Solve unwinds to level 0 and re-propagates all assumptions
  // from scratch — the pre-incremental behavior the --no-incremental
  // escape hatch restores for A/B comparison.
  void set_trail_reuse(bool enabled) { trail_reuse_ = enabled; }

  // Caps the number of conflicts a single Solve may spend; 0 means
  // unlimited. When the budget runs out Solve returns kUnknown — callers
  // degrade gracefully (a validator reports "budget exceeded", a test
  // generator skips the path) instead of hanging on pathological instances
  // like wide-multiplier equivalence.
  void set_conflict_limit(uint64_t limit) { conflict_limit_ = limit; }

  // Wall-clock budget per Solve; 0 means unlimited. Checked every few
  // hundred conflicts, so pathological instances (wide-multiplier
  // equivalence proofs) cannot stall a campaign even when each conflict is
  // expensive. Exceeding the deadline yields kUnknown, like the conflict
  // limit.
  void set_time_limit_ms(uint64_t limit_ms) { time_limit_ms_ = limit_ms; }

  // After a kSat Solve: the value of `var` in the satisfying assignment.
  // The model is a snapshot taken at the moment of kSat, not a live view of
  // the trail: a later kUnsat or kUnknown Solve leaves it untouched, so the
  // most recent satisfying assignment stays readable across failed probes
  // (CheckWithPreferences depends on this). It is only replaced by the next
  // kSat.
  bool ValueOf(uint32_t var) const {
    return ModelCovers(var) && model_[Lit(var, false).code] == kTrue;
  }

  // Whether the model snapshot assigns `var`, i.e. `var` already existed at
  // the last kSat. ValueOf reads false for later variables, which says
  // nothing about the values they can take; a caller that reads the model
  // as a witness for new literals must check this first.
  bool ModelCovers(uint32_t var) const { return var < model_.size() / 2; }

  // After a Solve that returned kUnsat because an assumption was falsified:
  // the failed-assumption core, a subset of that call's assumptions (as
  // passed, in no particular order) that the clause database alone refutes.
  // It always contains the falsified assumption itself. Computed the way
  // MiniSat's analyzeFinal does, by walking the reason graph from that
  // assumption back to the assumption decisions it rests on, so it costs
  // one pass over the trail and no search. Empty after any other outcome:
  // kSat, kUnknown, or kUnsat of the clause database itself (the empty set
  // is then a valid core).
  const std::vector<Lit>& failed_assumptions() const { return failed_assumptions_; }

  // Whether any Solve has ever produced a model (i.e. returned kSat).
  // Reading ValueOf before that is a caller bug; SmtSolver::ExtractModel
  // checks this and fails loudly.
  bool has_model() const { return has_model_; }

  // Cumulative statistics over every Solve call.
  uint64_t conflicts() const { return conflicts_; }
  uint64_t decisions() const { return decisions_; }
  uint64_t propagations() const { return propagations_; }
  uint64_t restarts() const { return restarts_; }
  // Trail-reuse accounting: assumption literals whose decision levels were
  // carried over from the previous Solve, and trail literals (assumptions
  // plus everything they implied) that were consequently not re-propagated.
  uint64_t prefix_reused_lits() const { return prefix_reused_lits_; }
  uint64_t propagations_saved() const { return propagations_saved_; }

  // Statistics attributed to the most recent Solve call alone. The baseline
  // is re-captured on every Solve entry, so per-solve telemetry spans get
  // exact attribution even though the counters above stay cumulative.
  uint64_t solve_conflicts() const { return conflicts_ - solve_base_conflicts_; }
  uint64_t solve_decisions() const { return decisions_ - solve_base_decisions_; }
  uint64_t solve_propagations() const { return propagations_ - solve_base_propagations_; }
  uint64_t solve_restarts() const { return restarts_ - solve_base_restarts_; }
  uint64_t solve_prefix_reused_lits() const {
    return prefix_reused_lits_ - solve_base_prefix_reused_lits_;
  }
  uint64_t solve_propagations_saved() const {
    return propagations_saved_ - solve_base_propagations_saved_;
  }

 private:
  static constexpr int8_t kTrue = 1;
  static constexpr int8_t kFalse = 0;
  static constexpr int8_t kUndef = -1;

  // A clause reference is an arena offset; kNoClause marks a decision or
  // a level-0 unit (reason_) and the absence of a conflict (Propagate).
  static constexpr uint32_t kNoClause = UINT32_MAX;
  static constexpr uint32_t kHeaderWords = 2;  // size << 1 | learned, conflicts

  struct Watcher {
    uint32_t clause;
    Lit blocker;
  };

  uint32_t ClauseSize(uint32_t clause) const { return arena_[clause] >> 1; }
  bool ClauseLearned(uint32_t clause) const { return (arena_[clause] & 1) != 0; }
  uint32_t& ClauseConflicts(uint32_t clause) { return arena_[clause + 1]; }
  uint32_t* ClauseLits(uint32_t clause) { return &arena_[clause + kHeaderWords]; }
  uint32_t AppendClause(const Lit* lits, size_t count, bool learned);

  bool Enqueue(Lit lit, uint32_t reason_clause);
  uint32_t Propagate();
  void RetainAssumptionTrail(const std::vector<Lit>& assumptions);
  void AnalyzeFinal(Lit failed);
  // Learns the first-UIP clause of `conflict_clause` into learned_.
  void Analyze(uint32_t conflict_clause, uint32_t& backtrack_level);
  void Backtrack(uint32_t level);
  void BumpVar(uint32_t var);
  void DecayActivities();
  void AttachClause(uint32_t clause);
  int8_t LitValue(Lit lit) const { return lit_values_[lit.code]; }
  uint32_t DecisionLevel() const { return static_cast<uint32_t>(trail_limits_.size()); }
  static uint32_t Luby(uint32_t index);
  void ReduceLearnedClauses();

  // VSIDS order heap (max-heap on activity_, lazy deletion of assigned
  // vars). Every unassigned variable is always present in the heap, so an
  // empty heap after draining assigned entries means the assignment is
  // complete.
  bool HeapLess(uint32_t a, uint32_t b) const { return activity_[a] < activity_[b]; }
  void HeapSiftUp(size_t index);
  void HeapSiftDown(size_t index);
  void HeapInsert(uint32_t var);
  void HeapRemoveTop();

  std::vector<uint32_t> arena_;  // every clause, in the layout above
  uint64_t clause_count_ = 0;
  uint64_t learned_count_ = 0;
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  std::vector<int8_t> lit_values_;             // indexed by lit code
  std::vector<int8_t> saved_phase_;
  std::vector<int8_t> model_;  // snapshot of lit_values_ at the last kSat
  std::vector<uint32_t> reason_;  // clause reference or kNoClause
  std::vector<uint32_t> level_;
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<uint32_t> trail_limits_;
  std::vector<uint32_t> heap_;      // var indices, max-heap by activity
  std::vector<int32_t> heap_pos_;   // var -> index in heap_, or -1
  size_t propagate_head_ = 0;
  double var_inc_ = 1.0;
  bool unsat_ = false;
  bool has_model_ = false;
  bool trail_reuse_ = true;
  // The assumptions that own the decision levels still on the trail from
  // the previous Solve (one level per recorded assumption, in order).
  // Cleared whenever the trail is invalidated (AddClause, global unsat, a
  // budget exit that may leave a falsified clause under the trail).
  std::vector<Lit> trail_assumptions_;
  std::vector<Lit> failed_assumptions_;  // core of the last assumption kUnsat

  uint64_t conflicts_ = 0;
  uint64_t decisions_ = 0;
  uint64_t propagations_ = 0;
  uint64_t restarts_ = 0;
  uint64_t prefix_reused_lits_ = 0;
  uint64_t propagations_saved_ = 0;
  uint64_t solve_base_conflicts_ = 0;
  uint64_t solve_base_decisions_ = 0;
  uint64_t solve_base_propagations_ = 0;
  uint64_t solve_base_restarts_ = 0;
  uint64_t solve_base_prefix_reused_lits_ = 0;
  uint64_t solve_base_propagations_saved_ = 0;
  uint64_t conflict_limit_ = 0;
  uint64_t time_limit_ms_ = 0;

  // Scratch for Analyze and AnalyzeFinal.
  std::vector<bool> seen_;
  std::vector<Lit> learned_;      // Analyze's output
  std::vector<Lit> add_scratch_;  // AddClause's sorted copy
};

}  // namespace gauntlet

#endif  // SRC_SMT_SAT_H_
