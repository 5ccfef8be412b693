#include "src/smt/solver.h"

#include <algorithm>
#include <functional>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace gauntlet {

namespace {
// Bucket edges (microseconds) for the per-solve latency histogram.
const std::vector<uint64_t> kSolveMicrosBounds = {100, 1000, 10000, 100000, 1000000};
}  // namespace

BitValue SmtModel::BitOf(const std::string& name) const {
  auto it = bit_values.find(name);
  GAUNTLET_BUG_CHECK(it != bit_values.end(), "no bit variable '" + name + "' in model");
  return it->second;
}

bool SmtModel::BoolOf(const std::string& name) const {
  auto it = bool_values.find(name);
  GAUNTLET_BUG_CHECK(it != bool_values.end(), "no bool variable '" + name + "' in model");
  return it->second;
}

void SmtSolver::EncodePending() {
  if (sat_ != nullptr && blasted_count_ == constraints_.size()) {
    return;
  }
  TraceSpan span("smt-encode", "smt");
  if (sat_ == nullptr) {
    sat_ = std::make_unique<SatSolver>();
    sat_->set_trail_reuse(incremental_);
    blaster_ = std::make_unique<BitBlaster>(context_, *sat_, blast_cache_);
    blasted_count_ = 0;
  }
  for (; blasted_count_ < constraints_.size(); ++blasted_count_) {
    blaster_->Assert(constraints_[blasted_count_]);
  }
}

CheckResult SmtSolver::SolveUnder(const std::vector<Lit>& assumptions) {
  sat_->set_conflict_limit(conflict_limit_);
  sat_->set_time_limit_ms(time_limit_ms_);
  TraceSpan span("smt-solve", "smt");
  const SatResult result = sat_->Solve(assumptions);
  last_solve_.conflicts = sat_->solve_conflicts();
  last_solve_.decisions = sat_->solve_decisions();
  last_solve_.propagations = sat_->solve_propagations();
  last_solve_.restarts = sat_->solve_restarts();
  last_solve_.prefix_reused_lits = sat_->solve_prefix_reused_lits();
  last_solve_.propagations_saved = sat_->solve_propagations_saved();
  last_solve_.sat_vars = sat_->VarCount();
  span.Arg("conflicts", last_solve_.conflicts);
  span.Arg("decisions", last_solve_.decisions);
  span.Arg("propagations", last_solve_.propagations);
  span.Arg("restarts", last_solve_.restarts);
  span.Arg("prefix_reused_lits", last_solve_.prefix_reused_lits);
  span.Arg("propagations_saved", last_solve_.propagations_saved);
  span.Arg("vars", last_solve_.sat_vars);
  const auto kTiming = MetricScope::kTiming;
  CountMetric("smt/solves", kTiming);
  CountMetric("smt/strash_hits", kTiming, blaster_->TakeStrashHits());
  CountMetric("smt/conflicts", kTiming, last_solve_.conflicts);
  CountMetric("smt/decisions", kTiming, last_solve_.decisions);
  CountMetric("smt/propagations", kTiming, last_solve_.propagations);
  CountMetric("smt/restarts", kTiming, last_solve_.restarts);
  CountMetric("smt/assumption_prefix_reused_lits", kTiming, last_solve_.prefix_reused_lits);
  CountMetric("smt/propagations_saved", kTiming, last_solve_.propagations_saved);
  CountMetric(result == SatResult::kSat      ? "smt/result/sat"
              : result == SatResult::kUnsat  ? "smt/result/unsat"
                                             : "smt/result/unknown",
              kTiming);
  ObserveMetric("smt/solve_micros", kTiming, kSolveMicrosBounds, span.ElapsedMicros());
  GaugeMaxMetric("smt/max_vars", kTiming, last_solve_.sat_vars);
  switch (result) {
    case SatResult::kSat:
      return CheckResult::kSat;
    case SatResult::kUnsat:
      return CheckResult::kUnsat;
    case SatResult::kUnknown:
      return CheckResult::kUnknown;
  }
  return CheckResult::kUnknown;
}

CheckResult SmtSolver::CheckUnderAssumptions(const std::vector<SmtRef>& assumptions) {
  EncodePending();
  std::vector<Lit> assumed;
  assumed.reserve(assumptions.size());
  for (const SmtRef& assumption : assumptions) {
    assumed.push_back(blaster_->BlastBool(assumption));
  }
  return SolveUnder(assumed);
}

CheckResult SmtSolver::CheckWithPreferences(const std::vector<SmtRef>& preferences,
                                            const std::vector<SmtRef>& assumptions,
                                            std::vector<size_t>* accepted_out) {
  if (accepted_out != nullptr) {
    accepted_out->clear();
  }
  EncodePending();
  std::vector<Lit> assumed;
  assumed.reserve(assumptions.size() + preferences.size());
  for (const SmtRef& assumption : assumptions) {
    assumed.push_back(blaster_->BlastBool(assumption));
  }
  const CheckResult base = SolveUnder(assumed);
  if (base != CheckResult::kSat) {
    return base;  // infeasible/budget-exhausted paths pay one solve, as before
  }
  // Greedily accept preferences that keep the instance satisfiable. The
  // accepted set is the sequential left-to-right one (preference i is kept
  // iff it is satisfiable together with the hard constraints, the
  // assumptions and every preference kept before it), found with far fewer
  // solves than one per preference:
  //
  //  - The model always satisfies everything in `assumed` (it only changes
  //    at satisfiable solves of `assumed` plus accepted blocks), so a
  //    preference the model already satisfies is accepted with no solve.
  //    Preference gates are blasted after the base solve, so their
  //    variables may postdate the model: ValueOf reads false for them, and
  //    only variables the model covers count as evidence.
  //  - The rest of a block is solved at once; if that is satisfiable, every
  //    member is accepted, as the sequential scan would.
  //  - Otherwise the failed-assumption core lies within `assumed` plus the
  //    block up to its culprit: the last member whose literal is in the
  //    core and not yet assumed. The members before the culprit are
  //    scanned first. The culprit is then rejected with no solve if the
  //    core now lies within `assumed` plus its own literal (so the
  //    sequential scan's test for it is unsatisfiable), else re-tested.
  //  - A budget-exhausted solve gives no core; that block splits in halves,
  //    and a single member is rejected.
  //
  // Literals are compared, not indices: preferences may repeat each other or
  // a path assumption. Rejected blocks do not clobber the model (the SAT
  // solver snapshots it only on satisfiable outcomes).
  std::vector<Lit> pref_lits;
  pref_lits.reserve(preferences.size());
  for (const SmtRef& preference : preferences) {
    pref_lits.push_back(blaster_->BlastBool(preference));
  }
  const auto accept = [&](size_t index) {
    assumed.push_back(pref_lits[index]);
    if (accepted_out != nullptr) {
      accepted_out->push_back(index);
    }
  };
  // Whether `lit` is among the first `count` assumed literals.
  const auto assumed_in = [&](size_t count, Lit lit) {
    const auto last = assumed.begin() + count;
    return std::find(assumed.begin(), last, lit) != last;
  };
  const std::function<void(size_t, size_t)> scan = [&](size_t begin, size_t end) {
    while (begin < end) {
      const Lit first = pref_lits[begin];
      if (sat_->ModelCovers(first.var()) && sat_->ValueOf(first.var()) != first.negated()) {
        accept(begin++);
        continue;
      }
      const size_t saved = assumed.size();
      assumed.insert(assumed.end(), pref_lits.begin() + begin, pref_lits.begin() + end);
      const CheckResult result = SolveUnder(assumed);
      assumed.resize(saved);
      if (result == CheckResult::kSat) {
        for (; begin < end; ++begin) {
          accept(begin);
        }
        return;
      }
      // A copy: the solves below replace the SAT solver's core.
      const std::vector<Lit> core = sat_->failed_assumptions();
      const auto in_core = [&core](Lit lit) {
        return std::find(core.begin(), core.end(), lit) != core.end();
      };
      size_t culprit = end;
      for (size_t i = end; i-- > begin;) {
        if (in_core(pref_lits[i]) && !assumed_in(saved, pref_lits[i])) {
          culprit = i;
          break;
        }
      }
      if (culprit == end) {
        // No core to follow (the solve ran out of budget): split the block.
        if (end - begin > 1) {
          const size_t mid = begin + (end - begin) / 2;
          scan(begin, mid);
          scan(mid, end);
        }
        return;
      }
      scan(begin, culprit);
      const Lit culprit_lit = pref_lits[culprit];
      const bool refuted = std::all_of(core.begin(), core.end(), [&](Lit lit) {
        return lit == culprit_lit || assumed_in(assumed.size(), lit);
      });
      begin = refuted ? culprit + 1 : culprit;
    }
  };
  scan(0, pref_lits.size());
  return CheckResult::kSat;
}

SmtModel SmtSolver::ExtractModel() const {
  GAUNTLET_BUG_CHECK(blaster_ != nullptr, "ExtractModel before Check");
  // The SAT model is a snapshot from the most recent kSat solve; a later
  // kUnsat/kUnknown solve preserves it (never the rewound trail). But if no
  // solve ever succeeded there is no model at all — reading one would
  // silently yield all-zero values, so fail loudly instead.
  GAUNTLET_BUG_CHECK(sat_ != nullptr && sat_->has_model(),
                     "ExtractModel without a satisfiable Check");
  SmtModel model;
  for (uint32_t var_id = 0; var_id < context_.VarCount(); ++var_id) {
    const std::string& name = context_.VarName(var_id);
    if (context_.VarIsBool(var_id)) {
      model.bool_values[name] = blaster_->BoolVarValue(var_id);
    } else {
      model.bit_values[name] =
          BitValue(context_.VarWidth(var_id), blaster_->VarValue(var_id));
    }
  }
  return model;
}

CheckResult CheckSat(SmtContext& context, SmtRef constraint) {
  SmtSolver solver(context);
  solver.Assert(constraint);
  return solver.Check();
}

}  // namespace gauntlet
