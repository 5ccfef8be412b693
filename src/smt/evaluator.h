#ifndef SRC_SMT_EVALUATOR_H_
#define SRC_SMT_EVALUATOR_H_

#include "src/smt/solver.h"

namespace gauntlet {

// The concrete semantics of one SMT operator, written once for every
// evaluator (the model evaluator below and the sweep's simulator): the value
// of `node` (its low `width` bits, or 0/1 for a boolean) given `arg(i)`, the
// value of its i-th argument. `arg` is only called for the arguments the
// result depends on, so an ite evaluates just the branch its condition
// selects. Variables have no operator semantics: callers resolve them.
template <typename ArgValue>
uint64_t EvalSmtOp(const SmtContext& context, const SmtNode& node, ArgValue&& arg) {
  switch (node.op) {
    case SmtOp::kConst:
    case SmtOp::kBoolConst:
      return node.bits;
    case SmtOp::kVar:
    case SmtOp::kBoolVar:
      break;
    case SmtOp::kAdd:
      return BitValue(node.width, arg(0)).Add(BitValue(node.width, arg(1))).bits();
    case SmtOp::kSub:
      return BitValue(node.width, arg(0)).Sub(BitValue(node.width, arg(1))).bits();
    case SmtOp::kMul:
      return BitValue(node.width, arg(0)).Mul(BitValue(node.width, arg(1))).bits();
    case SmtOp::kAnd:
      return arg(0) & arg(1);
    case SmtOp::kOr:
      return arg(0) | arg(1);
    case SmtOp::kXor:
      return arg(0) ^ arg(1);
    case SmtOp::kNot:
      return ~arg(0) & BitValue::MaskFor(node.width);
    case SmtOp::kNeg:
      return BitValue(node.width, 0).Sub(BitValue(node.width, arg(0))).bits();
    case SmtOp::kShl: {
      const uint64_t amount = arg(1);
      return amount >= node.width ? 0 : (arg(0) << amount) & BitValue::MaskFor(node.width);
    }
    case SmtOp::kShr: {
      const uint64_t amount = arg(1);
      return amount >= node.width ? 0 : arg(0) >> amount;
    }
    case SmtOp::kConcat:
      return (arg(0) << context.WidthOf(node.args[1])) | arg(1);
    case SmtOp::kExtract:
      return (arg(0) >> node.aux1) & BitValue::MaskFor(node.width);
    case SmtOp::kZext:
    case SmtOp::kTrunc:
      return arg(0) & BitValue::MaskFor(node.width);
    case SmtOp::kEq:
      return arg(0) == arg(1) ? 1 : 0;
    case SmtOp::kUlt:
      return arg(0) < arg(1) ? 1 : 0;
    case SmtOp::kUle:
      return arg(0) <= arg(1) ? 1 : 0;
    case SmtOp::kBoolAnd:
      return (arg(0) != 0 && arg(1) != 0) ? 1 : 0;
    case SmtOp::kBoolOr:
      return (arg(0) != 0 || arg(1) != 0) ? 1 : 0;
    case SmtOp::kBoolNot:
      return arg(0) != 0 ? 0 : 1;
    case SmtOp::kBoolEq:
      return (arg(0) != 0) == (arg(1) != 0) ? 1 : 0;
    case SmtOp::kIte:
    case SmtOp::kBoolIte:
      return arg(0) != 0 ? arg(1) : arg(2);
  }
  throw CompilerBugError("EvalSmtOp on a variable");
}

// Evaluates an SMT expression DAG under a full model (concrete value per
// variable; absent variables read as zero, matching model completion).
// Used by test-case generation to compute the *expected* output packet from
// the formal semantics — the "generate expected output" box of Figure 4.
class ModelEvaluator {
 public:
  ModelEvaluator(const SmtContext& context, const SmtModel& model)
      : context_(context), model_(model) {}

  // Value of a bit-vector node (low `width` bits) or a boolean node (0/1).
  uint64_t Eval(SmtRef ref);
  bool EvalBool(SmtRef ref) { return Eval(ref) != 0; }
  BitValue EvalBits(SmtRef ref) { return BitValue(context_.WidthOf(ref), Eval(ref)); }

 private:
  const SmtContext& context_;
  const SmtModel& model_;
  std::map<uint32_t, uint64_t> memo_;
};

}  // namespace gauntlet

#endif  // SRC_SMT_EVALUATOR_H_
