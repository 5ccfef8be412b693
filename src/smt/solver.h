#ifndef SRC_SMT_SOLVER_H_
#define SRC_SMT_SOLVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/smt/bitblast.h"

namespace gauntlet {

enum class CheckResult { kSat, kUnsat, kUnknown };

// A satisfying assignment: every variable in the context gets a value
// (unconstrained variables default to zero, like Z3's model completion).
struct SmtModel {
  std::map<std::string, BitValue> bit_values;
  std::map<std::string, bool> bool_values;

  BitValue BitOf(const std::string& name) const;
  bool BoolOf(const std::string& name) const;
};

// Statistics for one Check call, captured from the SAT core's per-solve
// counters (the smt/* metrics and the smt-solve trace spans report these).
struct SolveStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  // Trail reuse: assumption literals whose decision levels carried over
  // from the previous solve, and trail literals not re-propagated thanks
  // to them. Both zero when incremental solving is off (--no-incremental).
  uint64_t prefix_reused_lits = 0;
  uint64_t propagations_saved = 0;
  uint32_t sat_vars = 0;
};

// The Z3-replacement facade: collect boolean constraints, check
// satisfiability (by bit-blasting into the CDCL solver), extract models.
//
// The solver is incremental: constraints are encoded once, on first use, and
// later Check calls only encode what was newly asserted. Check may also be
// given *assumptions* — constraints that hold for a single call only — which
// is how test generation probes many program paths against one encoded
// formula instead of re-blasting per path.
class SmtSolver {
 public:
  explicit SmtSolver(SmtContext& context) : context_(context) {}

  void Assert(SmtRef constraint) { constraints_.push_back(constraint); }

  // Attaches a cross-solve bit-blast memo (src/cache/): sub-DAGs another
  // solver already lowered are replayed from their recorded CNF fragments
  // instead of re-blasted. Replay is bit-exact, so the produced SAT
  // instance — and therefore every Check result and model — is identical
  // with or without a cache. Must be set before the first Check; the cache
  // must outlive the solver.
  void set_blast_cache(BlastCache* cache) {
    GAUNTLET_BUG_CHECK(blaster_ == nullptr, "set_blast_cache after encoding started");
    blast_cache_ = cache;
  }

  // Enables/disables assumption-trail reuse in the SAT core (the
  // incremental hot path; on by default). Off, every assumption solve
  // re-propagates from scratch — the --no-incremental A/B mode. Verdicts
  // and every report byte are identical either way; only the work differs.
  void set_incremental(bool enabled) {
    incremental_ = enabled;
    if (sat_ != nullptr) {
      sat_->set_trail_reuse(enabled);
    }
  }

  // SAT conflict budget per Check (0 = unlimited); kUnknown on exhaustion.
  void set_conflict_limit(uint64_t limit) { conflict_limit_ = limit; }

  // Wall-clock budget per Check in milliseconds (0 = unlimited); kUnknown
  // when exceeded.
  void set_time_limit_ms(uint64_t limit_ms) { time_limit_ms_ = limit_ms; }

  CheckResult Check() { return CheckUnderAssumptions({}); }

  // Checks satisfiability of the asserted constraints plus `assumptions`,
  // which are forgotten afterwards. Incremental: learned clauses carry over
  // between calls, so probing many assumption sets against one formula is
  // far cheaper than independent solves.
  CheckResult CheckUnderAssumptions(const std::vector<SmtRef>& assumptions);

  // Greedy soft-constraint pass: after the hard constraints (plus
  // `assumptions`) are satisfiable, tries to additionally satisfy each
  // preference in order, keeping those that do not cause unsatisfiability.
  // This implements the paper's "ask Z3 for non-zero input-output values"
  // heuristic (section 6.2). When `accepted_out` is non-null it receives
  // the indices (ascending) of the preferences the pass kept — the set is
  // a pure function of per-subset satisfiability verdicts, so it is
  // identical whether or not the solver reuses trails between probes.
  //
  // Cost: one base solve, then no solve for a preference the current model
  // already satisfies, one solve per satisfiable run of the rest, and
  // typically one per rejected preference, which the SAT solver's
  // failed-assumption core points at. Only budget-exhausted solves fall
  // back to halving. The final model satisfies the hard constraints, the
  // assumptions and every kept preference, but which such model it is
  // depends on the order of the solves, not only on the kept set.
  CheckResult CheckWithPreferences(const std::vector<SmtRef>& preferences,
                                   const std::vector<SmtRef>& assumptions = {},
                                   std::vector<size_t>* accepted_out = nullptr);

  // The full model of the most recent *satisfiable* Check. The model is a
  // snapshot: a later kUnsat/kUnknown Check (e.g. a rejected preference
  // probe or an infeasible path probe) leaves it intact rather than
  // exposing the partially rewound trail. Calling this before any Check
  // has ever returned kSat is a bug and fails loudly.
  SmtModel ExtractModel() const;

  // Statistics from the most recent Check, for the telemetry layer
  // (src/obs/) and the escalation and sweep budgets. Each reflects that
  // solve alone.
  const SolveStats& last_solve() const { return last_solve_; }
  uint64_t last_conflicts() const { return last_solve_.conflicts; }
  uint64_t last_decisions() const { return last_solve_.decisions; }
  uint32_t last_sat_vars() const { return last_solve_.sat_vars; }

  SmtContext& context() { return context_; }

 private:
  // Lazily builds the SAT instance and encodes constraints added since the
  // previous call.
  void EncodePending();
  CheckResult SolveUnder(const std::vector<Lit>& assumptions);

  SmtContext& context_;
  std::vector<SmtRef> constraints_;
  BlastCache* blast_cache_ = nullptr;
  size_t blasted_count_ = 0;  // prefix of constraints_ already encoded
  uint64_t conflict_limit_ = 0;
  uint64_t time_limit_ms_ = 0;
  bool incremental_ = true;
  std::unique_ptr<SatSolver> sat_;
  std::unique_ptr<BitBlaster> blaster_;
  SolveStats last_solve_;
};

// One-shot helper: is `constraint` satisfiable in `context`?
CheckResult CheckSat(SmtContext& context, SmtRef constraint);

}  // namespace gauntlet

#endif  // SRC_SMT_SOLVER_H_
