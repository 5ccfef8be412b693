#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/smt/sat.h"
#include "src/support/rng.h"
#include "tests/reference/reference_sat.h"

namespace gauntlet {
namespace {

TEST(SatSolverTest, EmptyInstanceIsSat) {
  SatSolver solver;
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, SingleUnitClause) {
  SatSolver solver;
  const uint32_t x = solver.NewVar();
  solver.AddClause({Lit(x, false)});
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_TRUE(solver.ValueOf(x));
}

TEST(SatSolverTest, ContradictoryUnitsAreUnsat) {
  SatSolver solver;
  const uint32_t x = solver.NewVar();
  solver.AddClause({Lit(x, false)});
  solver.AddClause({Lit(x, true)});
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, EmptyClauseIsUnsat) {
  SatSolver solver;
  solver.NewVar();
  solver.AddClause({});
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, TautologyClauseIsIgnored) {
  SatSolver solver;
  const uint32_t x = solver.NewVar();
  solver.AddClause({Lit(x, false), Lit(x, true)});
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, SimpleImplicationChain) {
  SatSolver solver;
  const uint32_t a = solver.NewVar();
  const uint32_t b = solver.NewVar();
  const uint32_t c = solver.NewVar();
  solver.AddClause({Lit(a, false)});                 // a
  solver.AddClause({Lit(a, true), Lit(b, false)});   // a -> b
  solver.AddClause({Lit(b, true), Lit(c, false)});   // b -> c
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_TRUE(solver.ValueOf(a));
  EXPECT_TRUE(solver.ValueOf(b));
  EXPECT_TRUE(solver.ValueOf(c));
}

TEST(SatSolverTest, PigeonholeTwoIntoOneIsUnsat) {
  // Two pigeons, one hole: p0h0, p1h0, not both.
  SatSolver solver;
  const uint32_t p0 = solver.NewVar();
  const uint32_t p1 = solver.NewVar();
  solver.AddClause({Lit(p0, false)});
  solver.AddClause({Lit(p1, false)});
  solver.AddClause({Lit(p0, true), Lit(p1, true)});
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

// Pigeonhole principle PHP(n+1, n): always unsatisfiable, requires real
// conflict analysis to solve in reasonable time.
SatResult SolvePigeonhole(uint32_t holes) {
  SatSolver solver;
  const uint32_t pigeons = holes + 1;
  std::vector<std::vector<uint32_t>> var(pigeons, std::vector<uint32_t>(holes));
  for (uint32_t p = 0; p < pigeons; ++p) {
    for (uint32_t h = 0; h < holes; ++h) {
      var[p][h] = solver.NewVar();
    }
  }
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (uint32_t h = 0; h < holes; ++h) {
      clause.emplace_back(var[p][h], false);
    }
    solver.AddClause(clause);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.AddClause({Lit(var[p1][h], true), Lit(var[p2][h], true)});
      }
    }
  }
  return solver.Solve();
}

TEST(SatSolverTest, PigeonholeFamilyIsUnsat) {
  EXPECT_EQ(SolvePigeonhole(3), SatResult::kUnsat);
  EXPECT_EQ(SolvePigeonhole(5), SatResult::kUnsat);
  EXPECT_EQ(SolvePigeonhole(7), SatResult::kUnsat);
}

TEST(SatSolverTest, SatisfiableGraphColoring) {
  // 3-color a 5-cycle (chromatic number 3 -> satisfiable).
  SatSolver solver;
  constexpr int kNodes = 5;
  constexpr int kColors = 3;
  uint32_t var[kNodes][kColors];
  for (auto& node : var) {
    for (auto& lit : node) {
      lit = solver.NewVar();
    }
  }
  for (int n = 0; n < kNodes; ++n) {
    std::vector<Lit> at_least_one;
    for (int c = 0; c < kColors; ++c) {
      at_least_one.emplace_back(var[n][c], false);
    }
    solver.AddClause(at_least_one);
    for (int c1 = 0; c1 < kColors; ++c1) {
      for (int c2 = c1 + 1; c2 < kColors; ++c2) {
        solver.AddClause({Lit(var[n][c1], true), Lit(var[n][c2], true)});
      }
    }
  }
  for (int n = 0; n < kNodes; ++n) {
    const int next = (n + 1) % kNodes;
    for (int c = 0; c < kColors; ++c) {
      solver.AddClause({Lit(var[n][c], true), Lit(var[next][c], true)});
    }
  }
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  // Verify the model is a proper coloring.
  for (int n = 0; n < kNodes; ++n) {
    int count = 0;
    for (int c = 0; c < kColors; ++c) {
      count += solver.ValueOf(var[n][c]) ? 1 : 0;
    }
    EXPECT_EQ(count, 1);
    const int next = (n + 1) % kNodes;
    for (int c = 0; c < kColors; ++c) {
      EXPECT_FALSE(solver.ValueOf(var[n][c]) && solver.ValueOf(var[next][c]));
    }
  }
}

// Random 3-SAT at low clause/variable ratio: should be satisfiable and the
// returned model must satisfy every clause. Exercises restarts and clause
// learning on larger instances.
TEST(SatSolverTest, RandomThreeSatModelsAreValid) {
  Rng rng(2024);
  for (int round = 0; round < 5; ++round) {
    SatSolver solver;
    constexpr uint32_t kVars = 60;
    constexpr uint32_t kClauses = 150;  // ratio 2.5 — almost surely SAT
    for (uint32_t i = 0; i < kVars; ++i) {
      solver.NewVar();
    }
    std::vector<std::vector<Lit>> clauses;
    for (uint32_t i = 0; i < kClauses; ++i) {
      std::vector<Lit> clause;
      for (int j = 0; j < 3; ++j) {
        clause.emplace_back(static_cast<uint32_t>(rng.Below(kVars)), rng.Chance(50));
      }
      clauses.push_back(clause);
      solver.AddClause(clause);
    }
    ASSERT_EQ(solver.Solve(), SatResult::kSat);
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (const Lit& lit : clause) {
        satisfied |= solver.ValueOf(lit.var()) != lit.negated();
      }
      EXPECT_TRUE(satisfied);
    }
  }
}

TEST(SatSolverTest, AssumptionsRestrictWithoutCommitting) {
  // x | y with assumption ~x forces y; assuming both ~x and ~y is unsat
  // under assumptions but the instance stays satisfiable afterwards.
  SatSolver solver;
  const uint32_t x = solver.NewVar();
  const uint32_t y = solver.NewVar();
  solver.AddClause({Lit(x, false), Lit(y, false)});
  ASSERT_EQ(solver.Solve({Lit(x, true)}), SatResult::kSat);
  EXPECT_FALSE(solver.ValueOf(x));
  EXPECT_TRUE(solver.ValueOf(y));
  ASSERT_EQ(solver.Solve({Lit(x, true), Lit(y, true)}), SatResult::kUnsat);
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  ASSERT_EQ(solver.Solve({Lit(y, true)}), SatResult::kSat);
  EXPECT_TRUE(solver.ValueOf(x));
}

TEST(SatSolverTest, AssumptionContradictingUnitClauseIsUnsat) {
  SatSolver solver;
  const uint32_t x = solver.NewVar();
  solver.AddClause({Lit(x, false)});  // unit: x
  EXPECT_EQ(solver.Solve({Lit(x, true)}), SatResult::kUnsat);
  EXPECT_EQ(solver.Solve({Lit(x, false)}), SatResult::kSat);
}

TEST(SatSolverTest, IncrementalClauseAdditionBetweenSolves) {
  SatSolver solver;
  const uint32_t a = solver.NewVar();
  const uint32_t b = solver.NewVar();
  solver.AddClause({Lit(a, false), Lit(b, false)});
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  solver.AddClause({Lit(a, true)});
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_FALSE(solver.ValueOf(a));
  EXPECT_TRUE(solver.ValueOf(b));
  solver.AddClause({Lit(b, true)});
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
  // A contradictory database stays unsat regardless of assumptions.
  EXPECT_EQ(solver.Solve({Lit(a, false)}), SatResult::kUnsat);
}

TEST(SatSolverTest, AssumptionSolvesAgreeWithFreshSolves) {
  // Cross-check: solving random instances under random assumptions must
  // match solving a fresh instance with the assumptions added as units.
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    constexpr uint32_t kVars = 25;
    const uint32_t num_clauses = 40 + static_cast<uint32_t>(rng.Below(80));
    std::vector<std::vector<Lit>> clauses;
    for (uint32_t i = 0; i < num_clauses; ++i) {
      std::vector<Lit> clause;
      for (int j = 0; j < 3; ++j) {
        clause.emplace_back(static_cast<uint32_t>(rng.Below(kVars)), rng.Chance(50));
      }
      clauses.push_back(clause);
    }
    std::vector<Lit> assumptions;
    for (uint32_t var = 0; var < kVars; ++var) {
      if (rng.Chance(20)) {
        assumptions.emplace_back(var, rng.Chance(50));
      }
    }

    SatSolver incremental;
    for (uint32_t i = 0; i < kVars; ++i) {
      incremental.NewVar();
    }
    for (const auto& clause : clauses) {
      incremental.AddClause(clause);
    }
    // Exercise the incremental path: a plain solve first, then assumptions.
    (void)incremental.Solve();
    const SatResult under_assumptions = incremental.Solve(assumptions);

    SatSolver fresh;
    for (uint32_t i = 0; i < kVars; ++i) {
      fresh.NewVar();
    }
    for (const auto& clause : clauses) {
      fresh.AddClause(clause);
    }
    for (const Lit& lit : assumptions) {
      fresh.AddClause({lit});
    }
    ASSERT_EQ(under_assumptions, fresh.Solve()) << "round " << round;
    if (under_assumptions == SatResult::kSat) {
      for (const Lit& lit : assumptions) {
        EXPECT_EQ(incremental.ValueOf(lit.var()), !lit.negated());
      }
      for (const auto& clause : clauses) {
        bool satisfied = false;
        for (const Lit& lit : clause) {
          satisfied |= incremental.ValueOf(lit.var()) != lit.negated();
        }
        EXPECT_TRUE(satisfied);
      }
    }
  }
}

// Failed-assumption cores: on random CNFs under random assumption vectors
// (contradictory pairs a, ~a and literals fixed at level 0 included), every
// kUnsat core must be a subset of that call's assumptions which a fresh
// solver refutes on its own, an instance that is itself satisfiable must
// get a non-empty core, and kSat must leave no core. Consecutive vectors
// often share a prefix, so retained trails are exercised with reuse on.
TEST(SatSolverTest, FailedAssumptionCoresAreRefutedSubsets) {
  for (const bool reuse : {true, false}) {
    Rng rng(4242);
    size_t cores_checked = 0;
    for (int round = 0; round < 30; ++round) {
      constexpr uint32_t kVars = 24;
      std::vector<std::vector<Lit>> clauses;
      const uint32_t num_clauses = 30 + static_cast<uint32_t>(rng.Below(60));
      for (uint32_t i = 0; i < num_clauses; ++i) {
        std::vector<Lit> clause;
        const uint64_t size = i < 3 ? 1 : 2 + rng.Below(2);  // a few level-0 units
        for (uint64_t j = 0; j < size; ++j) {
          clause.emplace_back(static_cast<uint32_t>(rng.Below(kVars)), rng.Chance(50));
        }
        clauses.push_back(clause);
      }
      const auto fresh_solver = [&clauses] {
        SatSolver solver;
        for (uint32_t i = 0; i < kVars; ++i) {
          solver.NewVar();
        }
        for (const auto& clause : clauses) {
          solver.AddClause(clause);
        }
        return solver;
      };
      const bool instance_sat = fresh_solver().Solve() == SatResult::kSat;

      SatSolver solver = fresh_solver();
      solver.set_trail_reuse(reuse);
      std::vector<Lit> assumptions;
      for (int step = 0; step < 20; ++step) {
        // Mostly grow or shrink the previous vector (shared prefixes), now
        // and then start over; sometimes add a literal and its negation, or
        // a level-0 unit (or its negation).
        if (rng.Chance(20)) {
          assumptions.clear();
        } else if (!assumptions.empty() && rng.Chance(30)) {
          assumptions.resize(rng.Below(assumptions.size()));
        }
        const uint64_t extra = 1 + rng.Below(5);
        for (uint64_t k = 0; k < extra; ++k) {
          assumptions.emplace_back(static_cast<uint32_t>(rng.Below(kVars)), rng.Chance(50));
        }
        if (rng.Chance(15)) {
          const Lit lit(static_cast<uint32_t>(rng.Below(kVars)), rng.Chance(50));
          assumptions.insert(assumptions.begin() + rng.Below(assumptions.size() + 1), lit);
          assumptions.push_back(~lit);
        }
        if (rng.Chance(25)) {
          const Lit unit = clauses[rng.Below(3)][0];
          assumptions.push_back(rng.Chance(50) ? unit : ~unit);
        }

        const SatResult result = solver.Solve(assumptions);
        const std::vector<Lit>& core = solver.failed_assumptions();
        ASSERT_EQ(result, fresh_solver().Solve(assumptions))
            << "round " << round << " step " << step;
        if (result == SatResult::kSat) {
          EXPECT_TRUE(core.empty());
          continue;
        }
        if (instance_sat) {
          ASSERT_FALSE(core.empty()) << "round " << round << " step " << step;
        }
        if (core.empty()) {
          continue;
        }
        for (const Lit& lit : core) {
          EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), lit), assumptions.end())
              << "round " << round << " step " << step;
        }
        EXPECT_EQ(fresh_solver().Solve(core), SatResult::kUnsat)
            << "round " << round << " step " << step;
        ++cores_checked;
      }
    }
    EXPECT_GT(cores_checked, 100u);
  }
}

TEST(SatSolverTest, ModelPersistsAcrossFailedAssumptionSolve) {
  SatSolver solver;
  const uint32_t x = solver.NewVar();
  const uint32_t y = solver.NewVar();
  solver.AddClause({Lit(x, false), Lit(y, false)});
  solver.AddClause({Lit(x, true), Lit(y, true)});
  ASSERT_EQ(solver.Solve({Lit(x, false)}), SatResult::kSat);
  const bool x_value = solver.ValueOf(x);
  const bool y_value = solver.ValueOf(y);
  EXPECT_TRUE(x_value);
  EXPECT_FALSE(y_value);
  // Unsat probe must not clobber the last satisfying model.
  ASSERT_EQ(solver.Solve({Lit(x, false), Lit(y, false)}), SatResult::kUnsat);
  EXPECT_EQ(solver.ValueOf(x), x_value);
  EXPECT_EQ(solver.ValueOf(y), y_value);
}

TEST(SatSolverTest, TimeLimitReturnsUnknownOnHardInstance) {
  // A pigeonhole-style instance (n+1 pigeons, n holes) is exponentially
  // hard for resolution; a 1ms budget must give up with kUnknown.
  SatSolver solver;
  constexpr uint32_t kHoles = 9;
  constexpr uint32_t kPigeons = kHoles + 1;
  std::vector<std::vector<uint32_t>> slot(kPigeons, std::vector<uint32_t>(kHoles));
  for (uint32_t p = 0; p < kPigeons; ++p) {
    for (uint32_t h = 0; h < kHoles; ++h) {
      slot[p][h] = solver.NewVar();
    }
  }
  for (uint32_t p = 0; p < kPigeons; ++p) {
    std::vector<Lit> at_least_one;
    for (uint32_t h = 0; h < kHoles; ++h) {
      at_least_one.emplace_back(slot[p][h], false);
    }
    solver.AddClause(at_least_one);
  }
  for (uint32_t h = 0; h < kHoles; ++h) {
    for (uint32_t p1 = 0; p1 < kPigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < kPigeons; ++p2) {
        solver.AddClause({Lit(slot[p1][h], true), Lit(slot[p2][h], true)});
      }
    }
  }
  solver.set_time_limit_ms(1);
  EXPECT_EQ(solver.Solve(), SatResult::kUnknown);
}

// (a | b), (a | ~b), (~a | c), (~a | ~c) is unsatisfiable. Deciding ~a
// conflicts at level 1 and teaches the unit a, whose propagation conflicts
// at level 0: the second conflict refutes the instance. A budget of two
// conflicts runs out at that very conflict, and the solver must still
// answer kUnsat. A budget exit there would leave the falsified clause under
// the level-0 trail, and the next Solve would report a model that
// falsifies it.
TEST(SatSolverTest, BudgetExitAtALevelZeroConflictStillRefutes) {
  SatSolver solver;
  const uint32_t a = solver.NewVar();
  const uint32_t b = solver.NewVar();
  const uint32_t c = solver.NewVar();
  solver.AddClause({Lit(a, false), Lit(b, false)});
  solver.AddClause({Lit(a, false), Lit(b, true)});
  solver.AddClause({Lit(a, true), Lit(c, false)});
  solver.AddClause({Lit(a, true), Lit(c, true)});
  solver.set_conflict_limit(2);
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
  EXPECT_EQ(solver.solve_conflicts(), 2u);
  solver.set_conflict_limit(0);
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
  EXPECT_FALSE(solver.has_model());
}

TEST(SatSolverTest, StatisticsAdvance) {
  SatSolver solver;
  const uint32_t a = solver.NewVar();
  const uint32_t b = solver.NewVar();
  solver.AddClause({Lit(a, false), Lit(b, false)});
  solver.AddClause({Lit(a, true), Lit(b, false)});
  solver.AddClause({Lit(a, false), Lit(b, true)});
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_GT(solver.decisions() + solver.propagations(), 0u);
}

// Drives SatSolver and the pre-arena core (tests/reference/) with the same
// calls and compares everything a caller can observe after each Solve: the
// result, the six per-solve counters, the failed-assumption core in order,
// has_model() and the model of every variable. Each model is also checked
// against every clause added and every assumption of the call.
class LockstepSolvers {
 public:
  explicit LockstepSolvers(bool trail_reuse) {
    solver_.set_trail_reuse(trail_reuse);
    reference_.set_trail_reuse(trail_reuse);
  }

  void NewVars(uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      solver_.NewVar();
      reference_.NewVar();
    }
  }
  uint32_t VarCount() const { return solver_.VarCount(); }

  void AddClause(const std::vector<Lit>& lits) {
    solver_.AddClause(lits);
    reference_.AddClause(lits);
    clauses_.push_back(lits);
  }

  void SetConflictLimit(uint64_t limit) {
    solver_.set_conflict_limit(limit);
    reference_.set_conflict_limit(limit);
  }

  ::testing::AssertionResult Solve(const std::vector<Lit>& assumptions) {
    const SatResult result = solver_.Solve(assumptions);
    if (result != reference_.Solve(assumptions)) {
      return ::testing::AssertionFailure() << "results differ";
    }
    const std::pair<const char*, bool> counters[] = {
        {"conflicts", solver_.solve_conflicts() == reference_.solve_conflicts()},
        {"decisions", solver_.solve_decisions() == reference_.solve_decisions()},
        {"propagations", solver_.solve_propagations() == reference_.solve_propagations()},
        {"restarts", solver_.solve_restarts() == reference_.solve_restarts()},
        {"prefix_reused_lits",
         solver_.solve_prefix_reused_lits() == reference_.solve_prefix_reused_lits()},
        {"propagations_saved",
         solver_.solve_propagations_saved() == reference_.solve_propagations_saved()},
    };
    for (const auto& [name, equal] : counters) {
      if (!equal) {
        return ::testing::AssertionFailure() << "solve_" << name << " differs";
      }
    }
    if (solver_.failed_assumptions() != reference_.failed_assumptions()) {
      return ::testing::AssertionFailure() << "failed assumptions differ";
    }
    if (solver_.has_model() != reference_.has_model()) {
      return ::testing::AssertionFailure() << "has_model differs";
    }
    for (uint32_t var = 0; var < solver_.VarCount(); ++var) {
      if (solver_.ModelCovers(var) != reference_.ModelCovers(var) ||
          solver_.ValueOf(var) != reference_.ValueOf(var)) {
        return ::testing::AssertionFailure() << "models differ at var " << var;
      }
    }
    if (result == SatResult::kSat) {
      const auto holds = [this](Lit lit) { return solver_.ValueOf(lit.var()) != lit.negated(); };
      for (const std::vector<Lit>& clause : clauses_) {
        if (std::none_of(clause.begin(), clause.end(), holds)) {
          return ::testing::AssertionFailure() << "the model falsifies a clause";
        }
      }
      if (!std::all_of(assumptions.begin(), assumptions.end(), holds)) {
        return ::testing::AssertionFailure() << "the model falsifies an assumption";
      }
    }
    return ::testing::AssertionSuccess();
  }

  uint64_t reductions() const { return reference_.reductions(); }

 private:
  SatSolver solver_;
  ReferenceSatSolver reference_;
  std::vector<std::vector<Lit>> clauses_;
};

Lit RandomLit(Rng& rng, uint32_t vars) {
  return Lit(static_cast<uint32_t>(rng.Below(vars)), rng.Chance(50));
}

// A 2- or 3-literal clause, the shapes BitBlaster emits.
std::vector<Lit> RandomClause(Rng& rng, uint32_t vars) {
  std::vector<Lit> clause(rng.Chance(40) ? 2 : 3);
  for (Lit& lit : clause) {
    lit = RandomLit(rng, vars);
  }
  return clause;
}

// One fixed-seed script of incremental calls: a random mixed CNF, then
// solves under assumption vectors that mostly grow or shrink the previous
// one (shared prefixes), with clauses added between solves (units, clauses
// holding a literal already false at level 0, duplicate literals,
// tautologies), fresh variables, and conflict limits low enough to end in
// kUnknown.
void RunLockstepScript(uint64_t seed, bool trail_reuse) {
  Rng rng(seed);
  LockstepSolvers solvers(trail_reuse);
  solvers.NewVars(20 + static_cast<uint32_t>(rng.Below(60)));
  const uint64_t initial_clauses = solvers.VarCount() * (12 + rng.Below(20)) / 10;
  for (uint64_t i = 0; i < initial_clauses; ++i) {
    solvers.AddClause(RandomClause(rng, solvers.VarCount()));
  }
  std::vector<Lit> units;
  std::vector<Lit> assumptions;
  for (int step = 0; step < 40; ++step) {
    const uint32_t vars = solvers.VarCount();
    if (rng.Chance(25)) {
      std::vector<Lit> clause = RandomClause(rng, vars);
      switch (rng.Below(5)) {
        case 0:  // a unit, fixed at level 0 from now on
          clause.resize(1);
          units.push_back(clause[0]);
          break;
        case 1:  // a literal a unit already falsified
          if (!units.empty()) {
            clause.push_back(~units[rng.Below(units.size())]);
          }
          break;
        case 2:
          clause.push_back(clause[0]);
          break;
        case 3:
          clause.push_back(~clause[1]);
          break;
        default:
          solvers.NewVars(1 + static_cast<uint32_t>(rng.Below(3)));
          clause.push_back(Lit(solvers.VarCount() - 1, rng.Chance(50)));
          break;
      }
      solvers.AddClause(clause);
    }
    if (rng.Chance(20)) {
      assumptions.clear();
    } else if (!assumptions.empty() && rng.Chance(30)) {
      assumptions.resize(rng.Below(assumptions.size()));
    }
    const uint64_t extra = rng.Below(3);
    for (uint64_t k = 0; k < extra; ++k) {
      assumptions.push_back(RandomLit(rng, vars));
    }
    if (rng.Chance(10)) {
      const Lit lit = RandomLit(rng, vars);
      assumptions.insert(assumptions.begin() + rng.Below(assumptions.size() + 1), lit);
      assumptions.push_back(~lit);
    }
    solvers.SetConflictLimit(rng.Chance(20) ? 1 + rng.Below(3) : 0);
    ASSERT_TRUE(solvers.Solve(assumptions))
        << "seed " << seed << " reuse " << trail_reuse << " step " << step;
  }
}

// Random 3-SAT at the threshold ratio: hard enough that one Solve learns
// past the reduction limit and runs ReduceLearnedClauses. Each instance is
// solved outright, then under growing assumption vectors, every other one
// under a conflict limit.
uint64_t RunLockstepHardInstance(uint64_t seed, bool trail_reuse) {
  Rng rng(seed);
  LockstepSolvers solvers(trail_reuse);
  constexpr uint32_t kVars = 150;
  solvers.NewVars(kVars);
  for (int i = 0; i < 639; ++i) {
    std::vector<Lit> clause(3);
    for (Lit& lit : clause) {
      lit = RandomLit(rng, kVars);
    }
    solvers.AddClause(clause);
  }
  EXPECT_TRUE(solvers.Solve({})) << "seed " << seed << " reuse " << trail_reuse;
  std::vector<Lit> assumptions;
  for (int step = 0; step < 6; ++step) {
    assumptions.push_back(RandomLit(rng, kVars));
    solvers.SetConflictLimit(step % 2 == 0 ? 0 : 25);
    EXPECT_TRUE(solvers.Solve(assumptions))
        << "seed " << seed << " reuse " << trail_reuse << " step " << step;
  }
  return solvers.reductions();
}

TEST(SatSolverTest, ArenaCoreMatchesTheReferenceCoreCallForCall) {
  for (const bool reuse : {true, false}) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      RunLockstepScript(seed, reuse);
    }
    uint64_t reductions = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      reductions += RunLockstepHardInstance(seed, reuse);
    }
    EXPECT_GT(reductions, 0u) << "reuse " << reuse;
  }
}

}  // namespace
}  // namespace gauntlet
