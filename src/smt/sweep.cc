#include "src/smt/sweep.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <unordered_map>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/solver.h"

namespace gauntlet {

namespace {

// Random simulation patterns a sweep starts from (counterexamples add
// more), and their seed: fixed, so a sweep depends only on its miter.
constexpr size_t kSweepPatterns = 64;
constexpr uint64_t kPatternSeed = 0x6a09e667f3bcc908ULL;

// Position of a candidate that is a constant rather than a cone node.
constexpr uint32_t kConstantCandidate = UINT32_MAX;

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

class Sweeper {
 public:
  Sweeper(SmtContext& context, SmtRef miter, const SweepLimits& limits);

  SmtRef Run(SweepStats& stats);

 private:
  struct Candidate {
    SmtRef ref;        // invalid: nothing to prove against
    uint32_t position;  // the cone node it represents, or kConstantCandidate
  };

  // Appends one pattern: evaluates the whole cone with each variable leaf
  // read from `leaf_value` and folds every value into its node's signature.
  template <typename LeafValue>
  void Simulate(LeafValue&& leaf_value);
  // A signature (plus the node's width, so sorts never mix) names a class.
  uint64_t ClassKey(uint32_t position) const;
  Candidate CandidateFor(uint32_t position);
  void Register(uint32_t position);
  bool OutOfBudget() const;
  CheckResult Prove(SmtRef rebuilt, SmtRef candidate, SweepStats& stats);

  SmtContext& context_;
  SweepLimits limits_;
  std::chrono::steady_clock::time_point deadline_;
  // The miter's cone in index order, and each node's argument positions.
  std::vector<SmtRef> cone_;
  std::vector<std::array<uint32_t, 3>> arg_positions_;
  // Per position: its value under the newest pattern, the hash of its
  // values under all patterns, its value under the first pattern, and
  // whether every pattern so far gave that same value.
  std::vector<uint64_t> values_;
  std::vector<uint64_t> signatures_;
  std::vector<uint64_t> first_values_;
  std::vector<bool> uniform_;
  size_t patterns_ = 0;
  // Per position: the node it is replaced by (itself, rebuilt or merged).
  std::vector<SmtRef> representatives_;
  // Positions kept as they were rebuilt, in order; the earliest of each
  // class heads it. Reindexed whenever a new pattern splits classes.
  std::vector<uint32_t> registered_;
  std::unordered_map<uint64_t, uint32_t> classes_;
  uint64_t conflicts_spent_ = 0;
  SmtSolver solver_;
};

Sweeper::Sweeper(SmtContext& context, SmtRef miter, const SweepLimits& limits)
    : context_(context), limits_(limits), solver_(context) {
  if (limits_.time_limit_ms != 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits_.time_limit_ms);
  }
  std::unordered_map<uint32_t, uint32_t> positions;
  std::vector<SmtRef> stack = {miter};
  positions.emplace(miter.index, 0);
  while (!stack.empty()) {
    const SmtRef ref = stack.back();
    stack.pop_back();
    cone_.push_back(ref);
    for (const SmtRef& arg : context_.node(ref).args) {
      if (positions.emplace(arg.index, 0).second) {
        stack.push_back(arg);
      }
    }
  }
  // Arguments are interned before the nodes that use them, so index order
  // is a topological order.
  std::sort(cone_.begin(), cone_.end(),
            [](SmtRef a, SmtRef b) { return a.index < b.index; });
  arg_positions_.resize(cone_.size());
  for (uint32_t position = 0; position < cone_.size(); ++position) {
    positions[cone_[position].index] = position;
    const SmtNode& node = context_.node(cone_[position]);
    for (size_t i = 0; i < node.args.size(); ++i) {
      arg_positions_[position][i] = positions.at(node.args[i].index);
    }
  }
  values_.resize(cone_.size());
  signatures_.resize(cone_.size());
  first_values_.resize(cone_.size());
  uniform_.assign(cone_.size(), true);
  representatives_.resize(cone_.size());
}

template <typename LeafValue>
void Sweeper::Simulate(LeafValue&& leaf_value) {
  for (size_t position = 0; position < cone_.size(); ++position) {
    const SmtNode& node = context_.node(cone_[position]);
    const auto& args = arg_positions_[position];
    const uint64_t value =
        node.op == SmtOp::kVar || node.op == SmtOp::kBoolVar
            ? leaf_value(node)
            : EvalSmtOp(context_, node, [&](size_t i) { return values_[args[i]]; });
    values_[position] = value;
    signatures_[position] = HashCombine(signatures_[position], value);
    if (patterns_ == 0) {
      first_values_[position] = value;
    } else if (value != first_values_[position]) {
      uniform_[position] = false;
    }
  }
  ++patterns_;
}

uint64_t Sweeper::ClassKey(uint32_t position) const {
  return HashCombine(signatures_[position], context_.WidthOf(cone_[position]));
}

Sweeper::Candidate Sweeper::CandidateFor(uint32_t position) {
  const SmtRef ref = cone_[position];
  if (uniform_[position]) {
    const uint64_t value = first_values_[position];
    return {context_.IsBool(ref) ? context_.BoolConst(value != 0)
                                 : context_.Const(context_.WidthOf(ref), value),
            kConstantCandidate};
  }
  const auto it = classes_.find(ClassKey(position));
  if (it == classes_.end()) {
    return {SmtRef{}, kConstantCandidate};
  }
  return {representatives_[it->second], it->second};
}

void Sweeper::Register(uint32_t position) {
  registered_.push_back(position);
  classes_.try_emplace(ClassKey(position), position);
}

bool Sweeper::OutOfBudget() const {
  if (limits_.conflict_budget != 0 && conflicts_spent_ >= limits_.conflict_budget) {
    return true;
  }
  return limits_.time_limit_ms != 0 && std::chrono::steady_clock::now() >= deadline_;
}

CheckResult Sweeper::Prove(SmtRef rebuilt, SmtRef candidate, SweepStats& stats) {
  uint64_t conflicts = kSweepProofConflictLimit;
  if (limits_.conflict_budget != 0) {
    conflicts = std::min(conflicts, limits_.conflict_budget - conflicts_spent_);
  }
  solver_.set_conflict_limit(conflicts);
  if (limits_.time_limit_ms != 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    solver_.set_time_limit_ms(std::max<int64_t>(left.count(), 1));
  }
  const SmtRef differ = context_.BoolNot(context_.Eq(rebuilt, candidate));
  const CheckResult result = solver_.CheckUnderAssumptions({differ});
  ++stats.proofs;
  stats.conflicts += solver_.last_conflicts();
  conflicts_spent_ += solver_.last_conflicts();
  if (result == CheckResult::kUnsat) {
    ++stats.merges;
  }
  return result;
}

SmtRef Sweeper::Run(SweepStats& stats) {
  uint64_t state = kPatternSeed;
  for (size_t pattern = 0; pattern < kSweepPatterns; ++pattern) {
    Simulate([&state](const SmtNode& leaf) {
      const uint64_t random = SplitMix64(state);
      return leaf.op == SmtOp::kBoolVar ? random & 1 : random & BitValue::MaskFor(leaf.width);
    });
  }
  std::vector<SmtRef> args;
  for (uint32_t position = 0; position < cone_.size(); ++position) {
    const SmtRef ref = cone_[position];
    const size_t arity = context_.node(ref).args.size();
    if (arity == 0) {
      representatives_[position] = ref;
      if (!context_.IsConst(ref)) {
        Register(position);
      }
      continue;
    }
    args.clear();
    for (size_t i = 0; i < arity; ++i) {
      args.push_back(representatives_[arg_positions_[position][i]]);
    }
    const SmtRef rebuilt = context_.Rebuild(ref, args);
    representatives_[position] = rebuilt;
    if (context_.IsConst(rebuilt)) {
      continue;
    }
    bool merged = false;
    for (;;) {
      const Candidate candidate = CandidateFor(position);
      if (!candidate.ref.IsValid() || candidate.ref == rebuilt || OutOfBudget()) {
        break;
      }
      const CheckResult result = Prove(rebuilt, candidate.ref, stats);
      if (result == CheckResult::kUnsat) {
        representatives_[position] = candidate.ref;
        merged = true;
        break;
      }
      if (result != CheckResult::kSat) {
        break;
      }
      // The model tells the pair apart: simulate it, and match the node
      // again against the classes it splits.
      const SmtModel model = solver_.ExtractModel();
      Simulate([&](const SmtNode& leaf) -> uint64_t {
        const std::string& name = context_.VarName(leaf.var_id);
        return leaf.op == SmtOp::kBoolVar ? model.BoolOf(name) : model.BitOf(name).bits();
      });
      const uint64_t expected = candidate.position == kConstantCandidate
                                    ? first_values_[position]
                                    : values_[candidate.position];
      GAUNTLET_BUG_CHECK(values_[position] != expected,
                         "sweep: a counterexample does not separate its pair");
      classes_.clear();
      for (const uint32_t kept : registered_) {
        classes_.try_emplace(ClassKey(kept), kept);
      }
    }
    if (!merged) {
      Register(position);
    }
  }
  return representatives_.back();
}

}  // namespace

SmtRef SweepMiter(SmtContext& context, SmtRef miter, const SweepLimits& limits,
                  SweepStats* stats) {
  return Sweeper(context, miter, limits).Run(*stats);
}

}  // namespace gauntlet
