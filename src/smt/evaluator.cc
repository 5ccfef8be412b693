#include "src/smt/evaluator.h"

namespace gauntlet {

uint64_t ModelEvaluator::Eval(SmtRef ref) {
  auto cached = memo_.find(ref.index);
  if (cached != memo_.end()) {
    return cached->second;
  }
  const SmtNode& node = context_.node(ref);
  uint64_t value = 0;
  if (node.op == SmtOp::kVar) {
    auto it = model_.bit_values.find(context_.VarName(node.var_id));
    value = it != model_.bit_values.end() ? it->second.bits() : 0;
  } else if (node.op == SmtOp::kBoolVar) {
    auto it = model_.bool_values.find(context_.VarName(node.var_id));
    value = it != model_.bool_values.end() && it->second ? 1 : 0;
  } else {
    value = EvalSmtOp(context_, node, [&](size_t i) { return Eval(node.args[i]); });
  }
  memo_[ref.index] = value;
  return value;
}

}  // namespace gauntlet
