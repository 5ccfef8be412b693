#ifndef TESTS_REFERENCE_REFERENCE_SAT_H_
#define TESTS_REFERENCE_REFERENCE_SAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/smt/sat.h"

namespace gauntlet {

// The SAT core as it stood before clause storage moved into a flat arena:
// one heap-allocated literal vector per clause, double clause activities,
// and clause indices in the watchers and reasons. sat_test drives it and
// SatSolver with identical calls and requires identical results, counters,
// cores and models, so the arena must reproduce this search bit for bit.
// Test-only: the library never links it. It keeps the search code as it
// was, with one fix that SatSolver carries too: a conflict at decision
// level 0 ends the search as kUnsat before any budget check (see
// SatSolverTest.BudgetExitAtALevelZeroConflictStillRefutes). It drops the
// wall-clock budget, which the comparison never sets, and it counts the
// clause-database reductions it performs.
class ReferenceSatSolver {
 public:
  uint32_t NewVar();
  uint32_t VarCount() const { return static_cast<uint32_t>(assigns_.size()); }
  void AddClause(std::vector<Lit> lits);
  SatResult Solve(const std::vector<Lit>& assumptions);
  void set_trail_reuse(bool enabled) { trail_reuse_ = enabled; }
  void set_conflict_limit(uint64_t limit) { conflict_limit_ = limit; }
  bool ValueOf(uint32_t var) const { return var < model_.size() && model_[var] == kTrue; }
  bool ModelCovers(uint32_t var) const { return var < model_.size(); }
  const std::vector<Lit>& failed_assumptions() const { return failed_assumptions_; }
  bool has_model() const { return has_model_; }

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
  // Calls to ReduceLearnedClauses so far.
  uint64_t reductions() const { return reductions_; }

 private:
  static constexpr int8_t kTrue = 1;
  static constexpr int8_t kFalse = 0;
  static constexpr int8_t kUndef = -1;

  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
    double activity = 0.0;
  };

  struct Watcher {
    uint32_t clause_index;
    Lit blocker;
  };

  bool Enqueue(Lit lit, int32_t reason_clause);
  int32_t Propagate();
  void RetainAssumptionTrail(const std::vector<Lit>& assumptions);
  void AnalyzeFinal(Lit failed);
  void Analyze(int32_t conflict_clause, std::vector<Lit>& learned, uint32_t& backtrack_level);
  void Backtrack(uint32_t level);
  void BumpVar(uint32_t var);
  void DecayActivities();
  void AttachClause(uint32_t clause_index);
  int8_t LitValue(Lit lit) const {
    const int8_t assigned = assigns_[lit.var()];
    if (assigned == kUndef) {
      return kUndef;
    }
    return lit.negated() ? static_cast<int8_t>(1 - assigned) : assigned;
  }
  uint32_t DecisionLevel() const { return static_cast<uint32_t>(trail_limits_.size()); }
  static uint32_t Luby(uint32_t index);
  void ReduceLearnedClauses();

  bool HeapLess(uint32_t a, uint32_t b) const { return activity_[a] < activity_[b]; }
  void HeapSiftUp(size_t index);
  void HeapSiftDown(size_t index);
  void HeapInsert(uint32_t var);
  void HeapRemoveTop();

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  std::vector<int8_t> assigns_;
  std::vector<int8_t> saved_phase_;
  std::vector<int8_t> model_;
  std::vector<int32_t> reason_;  // clause index or -1
  std::vector<uint32_t> level_;
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<uint32_t> trail_limits_;
  std::vector<uint32_t> heap_;
  std::vector<int32_t> heap_pos_;
  size_t propagate_head_ = 0;
  double var_inc_ = 1.0;
  bool unsat_ = false;
  bool has_model_ = false;
  bool trail_reuse_ = true;
  std::vector<Lit> trail_assumptions_;
  std::vector<Lit> failed_assumptions_;

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
  uint64_t reductions_ = 0;

  std::vector<bool> seen_;
};

}  // namespace gauntlet

#endif  // TESTS_REFERENCE_REFERENCE_SAT_H_
