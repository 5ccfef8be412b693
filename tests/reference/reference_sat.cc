#include "tests/reference/reference_sat.h"

#include <algorithm>

#include "src/support/error.h"

namespace gauntlet {

uint32_t ReferenceSatSolver::NewVar() {
  const auto var = static_cast<uint32_t>(assigns_.size());
  assigns_.push_back(kUndef);
  saved_phase_.push_back(kFalse);
  reason_.push_back(-1);
  level_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(false);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  HeapInsert(var);
  return var;
}

void ReferenceSatSolver::AddClause(std::vector<Lit> lits) {
  if (unsat_) {
    return;
  }
  // Incremental use: a previous Solve may have left decisions on the trail.
  // Clause insertion reasons about level-0 values only, so unwind first —
  // and forget the retained assumption prefix: the new clause may be unit
  // (or conflicting) under it, so the next Solve must re-propagate the
  // assumptions against the grown database from scratch.
  Backtrack(0);
  trail_assumptions_.clear();
  // Remove duplicate literals; detect tautologies and falsified literals at
  // level 0.
  std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) { return a.code < b.code; });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> effective;
  for (size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i].var() == lits[i + 1].var()) {
      return;  // contains both x and ~x: tautology
    }
    const int8_t value = LitValue(lits[i]);
    if (value == kTrue) {
      return;  // already satisfied at level 0
    }
    if (value == kUndef) {
      effective.push_back(lits[i]);
    }
  }
  if (effective.empty()) {
    unsat_ = true;
    return;
  }
  if (effective.size() == 1) {
    if (!Enqueue(effective[0], -1)) {
      unsat_ = true;
    }
    return;
  }
  Clause clause;
  clause.lits = std::move(effective);
  clauses_.push_back(std::move(clause));
  AttachClause(static_cast<uint32_t>(clauses_.size() - 1));
}

void ReferenceSatSolver::AttachClause(uint32_t clause_index) {
  const Clause& clause = clauses_[clause_index];
  watches_[(~clause.lits[0]).code].push_back(Watcher{clause_index, clause.lits[1]});
  watches_[(~clause.lits[1]).code].push_back(Watcher{clause_index, clause.lits[0]});
}

bool ReferenceSatSolver::Enqueue(Lit lit, int32_t reason_clause) {
  const int8_t value = LitValue(lit);
  if (value != kUndef) {
    return value == kTrue;
  }
  assigns_[lit.var()] = lit.negated() ? kFalse : kTrue;
  saved_phase_[lit.var()] = assigns_[lit.var()];
  reason_[lit.var()] = reason_clause;
  level_[lit.var()] = DecisionLevel();
  trail_.push_back(lit);
  return true;
}

int32_t ReferenceSatSolver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit lit = trail_[propagate_head_++];
    ++propagations_;
    std::vector<Watcher>& watch_list = watches_[lit.code];
    size_t keep = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher watcher = watch_list[i];
      if (LitValue(watcher.blocker) == kTrue) {
        watch_list[keep++] = watcher;
        continue;
      }
      Clause& clause = clauses_[watcher.clause_index];
      const Lit false_lit = ~lit;
      // Normalize so that lits[1] is the falsified watcher.
      if (clause.lits[0] == false_lit) {
        std::swap(clause.lits[0], clause.lits[1]);
      }
      if (LitValue(clause.lits[0]) == kTrue) {
        watch_list[keep++] = Watcher{watcher.clause_index, clause.lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (size_t j = 2; j < clause.lits.size(); ++j) {
        if (LitValue(clause.lits[j]) != kFalse) {
          std::swap(clause.lits[1], clause.lits[j]);
          watches_[(~clause.lits[1]).code].push_back(
              Watcher{watcher.clause_index, clause.lits[0]});
          found = true;
          break;
        }
      }
      if (found) {
        continue;  // moved to another watch list
      }
      // Unit or conflicting.
      watch_list[keep++] = watcher;
      if (LitValue(clause.lits[0]) == kFalse) {
        // Conflict: retain remaining watchers and report.
        for (size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return static_cast<int32_t>(watcher.clause_index);
      }
      Enqueue(clause.lits[0], static_cast<int32_t>(watcher.clause_index));
    }
    watch_list.resize(keep);
  }
  return -1;
}

void ReferenceSatSolver::HeapSiftUp(size_t index) {
  const uint32_t var = heap_[index];
  while (index > 0) {
    const size_t parent = (index - 1) / 2;
    if (!HeapLess(heap_[parent], var)) {
      break;
    }
    heap_[index] = heap_[parent];
    heap_pos_[heap_[index]] = static_cast<int32_t>(index);
    index = parent;
  }
  heap_[index] = var;
  heap_pos_[var] = static_cast<int32_t>(index);
}

void ReferenceSatSolver::HeapSiftDown(size_t index) {
  const uint32_t var = heap_[index];
  const size_t size = heap_.size();
  for (;;) {
    size_t child = 2 * index + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && HeapLess(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!HeapLess(var, heap_[child])) {
      break;
    }
    heap_[index] = heap_[child];
    heap_pos_[heap_[index]] = static_cast<int32_t>(index);
    index = child;
  }
  heap_[index] = var;
  heap_pos_[var] = static_cast<int32_t>(index);
}

void ReferenceSatSolver::HeapInsert(uint32_t var) {
  if (heap_pos_[var] >= 0) {
    return;
  }
  heap_.push_back(var);
  HeapSiftUp(heap_.size() - 1);
}

void ReferenceSatSolver::HeapRemoveTop() {
  heap_pos_[heap_[0]] = -1;
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    HeapSiftDown(0);
  }
}

void ReferenceSatSolver::BumpVar(uint32_t var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& activity : activity_) {
      activity *= 1e-100;
    }
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[var] >= 0) {
    HeapSiftUp(static_cast<size_t>(heap_pos_[var]));
  }
}

void ReferenceSatSolver::DecayActivities() { var_inc_ /= 0.95; }

void ReferenceSatSolver::Analyze(int32_t conflict_clause, std::vector<Lit>& learned,
                        uint32_t& backtrack_level) {
  learned.clear();
  learned.push_back(Lit());  // slot for the asserting literal
  uint32_t counter = 0;
  Lit lit;
  bool have_lit = false;
  size_t trail_index = trail_.size();
  int32_t clause_index = conflict_clause;

  for (;;) {
    GAUNTLET_BUG_CHECK(clause_index >= 0, "analysis reached a decision without a reason");
    const Clause& clause = clauses_[static_cast<size_t>(clause_index)];
    // For reason clauses, lits[0] is the literal being resolved on — skip it.
    const size_t start = have_lit ? 1 : 0;
    for (size_t i = start; i < clause.lits.size(); ++i) {
      const Lit other = clause.lits[i];
      const uint32_t var = other.var();
      if (!seen_[var] && level_[var] > 0) {
        seen_[var] = true;
        BumpVar(var);
        if (level_[var] >= DecisionLevel()) {
          ++counter;
        } else {
          learned.push_back(other);
        }
      }
    }
    // Select next literal from the trail to resolve on.
    do {
      --trail_index;
    } while (!seen_[trail_[trail_index].var()]);
    lit = trail_[trail_index];
    have_lit = true;
    seen_[lit.var()] = false;
    --counter;
    if (counter == 0) {
      break;
    }
    clause_index = reason_[lit.var()];
  }
  learned[0] = ~lit;

  // Compute backtrack level = second highest level in the clause.
  backtrack_level = 0;
  if (learned.size() > 1) {
    size_t max_index = 1;
    for (size_t i = 2; i < learned.size(); ++i) {
      if (level_[learned[i].var()] > level_[learned[max_index].var()]) {
        max_index = i;
      }
    }
    std::swap(learned[1], learned[max_index]);
    backtrack_level = level_[learned[1].var()];
  }
  for (const Lit& learned_lit : learned) {
    seen_[learned_lit.var()] = false;
  }
}

void ReferenceSatSolver::Backtrack(uint32_t target_level) {
  if (DecisionLevel() <= target_level) {
    return;
  }
  const uint32_t trail_limit = trail_limits_[target_level];
  for (size_t i = trail_.size(); i > trail_limit; --i) {
    const uint32_t var = trail_[i - 1].var();
    assigns_[var] = kUndef;
    reason_[var] = -1;
    HeapInsert(var);
  }
  trail_.resize(trail_limit);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

// Retains the assumption-owned prefix of the trail at a Solve exit so the
// next call can skip re-propagating a shared assumption prefix. Everything
// above the assumption levels (search decisions) is unwound; the retained
// levels are then exactly one per recorded assumption, in order. Only
// called from exits where the trail is known conflict-free (kSat, or an
// assumption found already-false before any clause was falsified) — a
// budget exit happens mid-conflict and must clear retention instead, or the
// falsified clause would silently survive under the reused prefix.
void ReferenceSatSolver::RetainAssumptionTrail(const std::vector<Lit>& assumptions) {
  trail_assumptions_.clear();
  if (!trail_reuse_) {
    Backtrack(0);
    return;
  }
  const auto keep =
      static_cast<uint32_t>(std::min<size_t>(assumptions.size(), DecisionLevel()));
  Backtrack(keep);
  trail_assumptions_.assign(assumptions.begin(), assumptions.begin() + keep);
}

// MiniSat's analyzeFinal. `failed` is an assumption the trail already
// falsifies, and every decision level on the trail belongs to an
// assumption, so the literals with no reason clause above level 0 are
// exactly the assumptions that were enqueued. Walking the trail backwards
// from ~failed through reason clauses (lits[0] is the implied literal)
// collects the ones the refutation depends on. Literals fixed at level 0
// are consequences of the clause database alone and are not followed.
void ReferenceSatSolver::AnalyzeFinal(Lit failed) {
  failed_assumptions_.assign(1, failed);
  if (level_[failed.var()] == 0) {
    return;
  }
  seen_[failed.var()] = true;
  for (size_t i = trail_.size(); i > trail_limits_[0]; --i) {
    const Lit lit = trail_[i - 1];
    if (!seen_[lit.var()]) {
      continue;
    }
    seen_[lit.var()] = false;
    const int32_t reason = reason_[lit.var()];
    if (reason < 0) {
      failed_assumptions_.push_back(lit);
      continue;
    }
    const Clause& clause = clauses_[static_cast<size_t>(reason)];
    for (size_t k = 1; k < clause.lits.size(); ++k) {
      if (level_[clause.lits[k].var()] > 0) {
        seen_[clause.lits[k].var()] = true;
      }
    }
  }
}

uint32_t ReferenceSatSolver::Luby(uint32_t index) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  uint32_t size = 1;
  uint32_t seq = 0;
  while (size < index + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != index) {
    size = (size - 1) / 2;
    --seq;
    index = index % size;
  }
  return uint32_t{1} << seq;
}

void ReferenceSatSolver::ReduceLearnedClauses() {
  // A lightweight reduction: drop the less active half of learned clauses
  // that are not currently reasons. Rebuilds watch lists afterwards.
  ++reductions_;
  std::vector<Clause> kept;
  std::vector<int32_t> remap(clauses_.size(), -1);
  std::vector<double> activities;
  for (const Clause& clause : clauses_) {
    if (clause.learned) {
      activities.push_back(clause.activity);
    }
  }
  double threshold = 0.0;
  if (!activities.empty()) {
    std::nth_element(activities.begin(), activities.begin() + activities.size() / 2,
                     activities.end());
    threshold = activities[activities.size() / 2];
  }
  std::vector<bool> is_reason(clauses_.size(), false);
  for (uint32_t var = 0; var < VarCount(); ++var) {
    if (reason_[var] >= 0) {
      is_reason[static_cast<size_t>(reason_[var])] = true;
    }
  }
  for (size_t i = 0; i < clauses_.size(); ++i) {
    Clause& clause = clauses_[i];
    if (clause.learned && !is_reason[i] && clause.activity < threshold &&
        clause.lits.size() > 2) {
      continue;  // dropped
    }
    remap[i] = static_cast<int32_t>(kept.size());
    kept.push_back(std::move(clause));
  }
  for (uint32_t var = 0; var < VarCount(); ++var) {
    if (reason_[var] >= 0) {
      reason_[var] = remap[static_cast<size_t>(reason_[var])];
    }
  }
  clauses_ = std::move(kept);
  for (auto& watch_list : watches_) {
    watch_list.clear();
  }
  for (size_t i = 0; i < clauses_.size(); ++i) {
    AttachClause(static_cast<uint32_t>(i));
  }
}

SatResult ReferenceSatSolver::Solve(const std::vector<Lit>& assumptions) {
  // Re-baseline the per-solve statistics before any early return, so even
  // trivially-unsat calls report an exact (zero) per-solve effort.
  solve_base_conflicts_ = conflicts_;
  solve_base_decisions_ = decisions_;
  solve_base_propagations_ = propagations_;
  solve_base_restarts_ = restarts_;
  solve_base_prefix_reused_lits_ = prefix_reused_lits_;
  solve_base_propagations_saved_ = propagations_saved_;
  failed_assumptions_.clear();
  if (unsat_) {
    trail_assumptions_.clear();
    return SatResult::kUnsat;
  }
  // Trail reuse: keep the decision levels owned by the longest common
  // prefix of the previous call's assumptions instead of unwinding to level
  // 0 and re-propagating them all. The retained literals were propagated to
  // fixpoint when those levels were built, so the search resumes at the
  // first divergent assumption with zero propagation work for the prefix.
  uint32_t keep = 0;
  const size_t reusable =
      !trail_reuse_ ? 0
                    : std::min<size_t>(
                          std::min(trail_assumptions_.size(), assumptions.size()),
                          DecisionLevel());
  while (keep < reusable && trail_assumptions_[keep] == assumptions[keep]) {
    ++keep;
  }
  Backtrack(keep);
  trail_assumptions_.clear();
  if (keep > 0) {
    prefix_reused_lits_ += keep;
    propagations_saved_ += trail_.size() - trail_limits_[0];
  }
  if (Propagate() >= 0) {
    // Pending unit clauses from AddClause conflicted. AddClause cleared the
    // retained prefix, so this can only happen at decision level 0, where a
    // propagation conflict means the instance itself is unsatisfiable.
    GAUNTLET_BUG_CHECK(DecisionLevel() == 0, "entry conflict above level 0");
    unsat_ = true;
    return SatResult::kUnsat;
  }
  const uint64_t conflicts_at_entry = conflicts_;
  uint32_t restart_count = 0;
  uint64_t conflict_budget = 100 * Luby(restart_count);
  uint64_t conflicts_this_restart = 0;
  uint64_t learned_limit = std::max<uint64_t>(1000, clauses_.size() * 2);
  std::vector<Lit> learned;

  for (;;) {
    const int32_t conflict = Propagate();
    if (conflict >= 0) {
      ++conflicts_;
      ++conflicts_this_restart;
      // A conflict at level 0 refutes the clause database itself. It is
      // checked before the budgets: a budget exit here would leave the
      // falsified clause under the level-0 trail, where no later Solve
      // looks, and that Solve could then report a model that falsifies it.
      if (DecisionLevel() == 0) {
        unsat_ = true;
        trail_assumptions_.clear();
        return SatResult::kUnsat;
      }
      // Budget exits must not retain the trail: we are mid-conflict, so some
      // clause is falsified under the current assignment and a reused prefix
      // would hide it from the next Solve.
      if (conflict_limit_ != 0 && conflicts_ - conflicts_at_entry >= conflict_limit_) {
        Backtrack(0);
        trail_assumptions_.clear();
        return SatResult::kUnknown;
      }
      clauses_[static_cast<size_t>(conflict)].activity += 1.0;
      uint32_t backtrack_level = 0;
      Analyze(conflict, learned, backtrack_level);
      Backtrack(backtrack_level);
      if (learned.size() == 1) {
        Enqueue(learned[0], -1);
      } else {
        Clause clause;
        clause.lits = learned;
        clause.learned = true;
        clause.activity = 1.0;
        clauses_.push_back(std::move(clause));
        AttachClause(static_cast<uint32_t>(clauses_.size() - 1));
        Enqueue(learned[0], static_cast<int32_t>(clauses_.size() - 1));
      }
      DecayActivities();
      continue;
    }
    if (conflicts_this_restart >= conflict_budget) {
      ++restart_count;
      ++restarts_;
      conflict_budget = 100 * Luby(restart_count);
      conflicts_this_restart = 0;
      Backtrack(0);
      size_t learned_count = 0;
      for (const Clause& clause : clauses_) {
        learned_count += clause.learned ? 1 : 0;
      }
      if (learned_count > learned_limit) {
        ReduceLearnedClauses();
        learned_limit = learned_limit * 11 / 10;
      }
      continue;
    }
    // Take pending assumptions first, one decision level per assumption so
    // conflict analysis can backtrack into the assumption prefix normally.
    if (DecisionLevel() < assumptions.size()) {
      const Lit assumption = assumptions[DecisionLevel()];
      const int8_t value = LitValue(assumption);
      if (value == kFalse) {
        // The assumption contradicts the clause database (under earlier
        // assumptions): unsat under assumptions, instance itself untouched.
        // The trail is conflict-free here (the contradiction is with a
        // not-yet-taken assumption), so the already-propagated prefix can
        // be kept — a repeat of this call answers kUnsat with zero work.
        // The core reads the reasons on the trail, so it comes first.
        AnalyzeFinal(assumption);
        RetainAssumptionTrail(assumptions);
        return SatResult::kUnsat;
      }
      trail_limits_.push_back(static_cast<uint32_t>(trail_.size()));
      if (value == kUndef) {
        Enqueue(assumption, -1);
      }
      continue;
    }
    // Pick the next decision variable from the activity heap (lazy
    // deletion: entries assigned by propagation are discarded on pop). An
    // empty heap means every variable is assigned — a model.
    uint32_t next_var = UINT32_MAX;
    while (!heap_.empty()) {
      const uint32_t top = heap_[0];
      if (assigns_[top] == kUndef) {
        next_var = top;
        break;
      }
      HeapRemoveTop();
    }
    if (next_var == UINT32_MAX) {
      model_ = assigns_;
      has_model_ = true;
      RetainAssumptionTrail(assumptions);
      return SatResult::kSat;
    }
    HeapRemoveTop();
    ++decisions_;
    trail_limits_.push_back(static_cast<uint32_t>(trail_.size()));
    Enqueue(Lit(next_var, saved_phase_[next_var] == kFalse), -1);
  }
}

}  // namespace gauntlet
