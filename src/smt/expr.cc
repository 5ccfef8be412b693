#include "src/smt/expr.h"

#include <sstream>

namespace gauntlet {

namespace {

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

uint64_t HashNode(const SmtNode& node) {
  uint64_t hash = static_cast<uint64_t>(node.op);
  hash = HashCombine(hash, node.width);
  hash = HashCombine(hash, node.bits);
  hash = HashCombine(hash, node.aux0);
  hash = HashCombine(hash, node.aux1);
  hash = HashCombine(hash, node.var_id);
  for (const SmtRef& arg : node.args) {
    hash = HashCombine(hash, arg.index);
  }
  return hash;
}

bool NodesEqual(const SmtNode& a, const SmtNode& b) {
  if (a.op != b.op || a.width != b.width || a.bits != b.bits || a.aux0 != b.aux0 ||
      a.aux1 != b.aux1 || a.var_id != b.var_id || a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!(a.args[i] == b.args[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

SmtContext::SmtContext() {
  nodes_.emplace_back();  // index 0 is a sentinel
}

SmtRef SmtContext::Intern(SmtNode node) {
  const uint64_t hash = HashNode(node);
  auto& bucket = cons_table_[hash];
  for (uint32_t index : bucket) {
    if (NodesEqual(nodes_[index], node)) {
      return SmtRef{index};
    }
  }
  const auto index = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  bucket.push_back(index);
  return SmtRef{index};
}

bool SmtContext::IsBool(SmtRef ref) const {
  switch (node(ref).op) {
    case SmtOp::kBoolConst:
    case SmtOp::kBoolVar:
    case SmtOp::kEq:
    case SmtOp::kUlt:
    case SmtOp::kUle:
    case SmtOp::kBoolAnd:
    case SmtOp::kBoolOr:
    case SmtOp::kBoolNot:
    case SmtOp::kBoolEq:
    case SmtOp::kBoolIte:
      return true;
    default:
      return false;
  }
}

bool SmtContext::IsConst(SmtRef ref) const {
  const SmtOp op = node(ref).op;
  return op == SmtOp::kConst || op == SmtOp::kBoolConst;
}

uint64_t SmtContext::ConstBits(SmtRef ref) const {
  GAUNTLET_BUG_CHECK(IsConst(ref), "ConstBits on non-constant");
  return node(ref).bits;
}

SmtRef SmtContext::Const(uint32_t width, uint64_t bits) {
  SmtNode node;
  node.op = SmtOp::kConst;
  node.width = width;
  node.bits = bits & BitValue::MaskFor(width);
  return Intern(std::move(node));
}

SmtRef SmtContext::BoolConst(bool value) {
  SmtNode node;
  node.op = SmtOp::kBoolConst;
  node.bits = value ? 1 : 0;
  return Intern(std::move(node));
}

SmtRef SmtContext::Var(const std::string& name, uint32_t width, bool undefined) {
  GAUNTLET_BUG_CHECK(width >= 1 && width <= 64, "variable width out of range");
  auto it = vars_by_name_.find(name);
  if (it != vars_by_name_.end()) {
    GAUNTLET_BUG_CHECK(var_widths_[it->second] == width, "variable re-declared at new width");
    return var_refs_[it->second];
  }
  const auto var_id = static_cast<uint32_t>(var_names_.size());
  var_names_.push_back(name);
  var_widths_.push_back(width);
  var_undefined_.push_back(undefined);
  vars_by_name_[name] = var_id;
  SmtNode node;
  node.op = SmtOp::kVar;
  node.width = width;
  node.var_id = var_id;
  SmtRef ref = Intern(std::move(node));
  var_refs_[var_id] = ref;
  return ref;
}

SmtRef SmtContext::BoolVar(const std::string& name, bool undefined) {
  auto it = vars_by_name_.find(name);
  if (it != vars_by_name_.end()) {
    GAUNTLET_BUG_CHECK(var_widths_[it->second] == 0, "variable re-declared as bool");
    return var_refs_[it->second];
  }
  const auto var_id = static_cast<uint32_t>(var_names_.size());
  var_names_.push_back(name);
  var_widths_.push_back(0);
  var_undefined_.push_back(undefined);
  vars_by_name_[name] = var_id;
  SmtNode node;
  node.op = SmtOp::kBoolVar;
  node.var_id = var_id;
  SmtRef ref = Intern(std::move(node));
  var_refs_[var_id] = ref;
  return ref;
}

SmtRef SmtContext::FindVar(const std::string& name) const {
  auto it = vars_by_name_.find(name);
  if (it == vars_by_name_.end()) {
    return SmtRef{};
  }
  return var_refs_.at(it->second);
}

SmtRef SmtContext::MakeBinary(SmtOp op, SmtRef a, SmtRef b, uint32_t width) {
  SmtNode node;
  node.op = op;
  node.width = width;
  node.args = {a, b};
  return Intern(std::move(node));
}

SmtRef SmtContext::Add(SmtRef a, SmtRef b) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(width == WidthOf(b), "Add width mismatch");
  if (IsConst(a) && IsConst(b)) {
    return Const(width, ConstBits(a) + ConstBits(b));
  }
  if (IsConst(a) && ConstBits(a) == 0) {
    return b;
  }
  if (IsConst(b) && ConstBits(b) == 0) {
    return a;
  }
  return MakeBinary(SmtOp::kAdd, a, b, width);
}

SmtRef SmtContext::Sub(SmtRef a, SmtRef b) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(width == WidthOf(b), "Sub width mismatch");
  if (IsConst(a) && IsConst(b)) {
    return Const(width, ConstBits(a) - ConstBits(b));
  }
  if (IsConst(b) && ConstBits(b) == 0) {
    return a;
  }
  if (a == b) {
    return Const(width, 0);
  }
  return MakeBinary(SmtOp::kSub, a, b, width);
}

SmtRef SmtContext::Mul(SmtRef a, SmtRef b) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(width == WidthOf(b), "Mul width mismatch");
  if (IsConst(a) && IsConst(b)) {
    return Const(width, ConstBits(a) * ConstBits(b));
  }
  if (IsConst(a) && ConstBits(a) == 0) {
    return a;
  }
  if (IsConst(b) && ConstBits(b) == 0) {
    return b;
  }
  if (IsConst(a) && ConstBits(a) == 1) {
    return b;
  }
  if (IsConst(b) && ConstBits(b) == 1) {
    return a;
  }
  return MakeBinary(SmtOp::kMul, a, b, width);
}

SmtRef SmtContext::And(SmtRef a, SmtRef b) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(width == WidthOf(b), "And width mismatch");
  if (IsConst(a) && IsConst(b)) {
    return Const(width, ConstBits(a) & ConstBits(b));
  }
  const uint64_t mask = BitValue::MaskFor(width);
  if (IsConst(a)) {
    if (ConstBits(a) == 0) {
      return a;
    }
    if (ConstBits(a) == mask) {
      return b;
    }
  }
  if (IsConst(b)) {
    if (ConstBits(b) == 0) {
      return b;
    }
    if (ConstBits(b) == mask) {
      return a;
    }
  }
  if (a == b) {
    return a;
  }
  return MakeBinary(SmtOp::kAnd, a, b, width);
}

SmtRef SmtContext::Or(SmtRef a, SmtRef b) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(width == WidthOf(b), "Or width mismatch");
  if (IsConst(a) && IsConst(b)) {
    return Const(width, ConstBits(a) | ConstBits(b));
  }
  const uint64_t mask = BitValue::MaskFor(width);
  if (IsConst(a)) {
    if (ConstBits(a) == 0) {
      return b;
    }
    if (ConstBits(a) == mask) {
      return a;
    }
  }
  if (IsConst(b)) {
    if (ConstBits(b) == 0) {
      return a;
    }
    if (ConstBits(b) == mask) {
      return b;
    }
  }
  if (a == b) {
    return a;
  }
  return MakeBinary(SmtOp::kOr, a, b, width);
}

SmtRef SmtContext::Xor(SmtRef a, SmtRef b) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(width == WidthOf(b), "Xor width mismatch");
  if (IsConst(a) && IsConst(b)) {
    return Const(width, ConstBits(a) ^ ConstBits(b));
  }
  if (IsConst(a) && ConstBits(a) == 0) {
    return b;
  }
  if (IsConst(b) && ConstBits(b) == 0) {
    return a;
  }
  if (a == b) {
    return Const(width, 0);
  }
  return MakeBinary(SmtOp::kXor, a, b, width);
}

SmtRef SmtContext::Not(SmtRef a) {
  const uint32_t width = WidthOf(a);
  if (IsConst(a)) {
    return Const(width, ~ConstBits(a));
  }
  SmtNode node;
  node.op = SmtOp::kNot;
  node.width = width;
  node.args = {a};
  return Intern(std::move(node));
}

SmtRef SmtContext::Neg(SmtRef a) {
  const uint32_t width = WidthOf(a);
  if (IsConst(a)) {
    return Const(width, ~ConstBits(a) + 1);
  }
  SmtNode node;
  node.op = SmtOp::kNeg;
  node.width = width;
  node.args = {a};
  return Intern(std::move(node));
}

SmtRef SmtContext::Shl(SmtRef a, SmtRef amount) {
  const uint32_t width = WidthOf(a);
  if (IsConst(a) && IsConst(amount)) {
    return Const(width, BitValue(width, ConstBits(a))
                            .Shl(BitValue(WidthOf(amount), ConstBits(amount)))
                            .bits());
  }
  if (IsConst(amount) && ConstBits(amount) == 0) {
    return a;
  }
  return MakeBinary(SmtOp::kShl, a, amount, width);
}

SmtRef SmtContext::Shr(SmtRef a, SmtRef amount) {
  const uint32_t width = WidthOf(a);
  if (IsConst(a) && IsConst(amount)) {
    return Const(width, BitValue(width, ConstBits(a))
                            .Shr(BitValue(WidthOf(amount), ConstBits(amount)))
                            .bits());
  }
  if (IsConst(amount) && ConstBits(amount) == 0) {
    return a;
  }
  return MakeBinary(SmtOp::kShr, a, amount, width);
}

SmtRef SmtContext::Concat(SmtRef high, SmtRef low) {
  const uint32_t width = WidthOf(high) + WidthOf(low);
  GAUNTLET_BUG_CHECK(width <= 64, "concat result too wide");
  if (IsConst(high) && IsConst(low)) {
    return Const(width, (ConstBits(high) << WidthOf(low)) | ConstBits(low));
  }
  return MakeBinary(SmtOp::kConcat, high, low, width);
}

SmtRef SmtContext::Extract(SmtRef a, uint32_t hi, uint32_t lo) {
  const uint32_t base_width = WidthOf(a);
  GAUNTLET_BUG_CHECK(hi >= lo && hi < base_width, "extract indices out of range");
  const uint32_t width = hi - lo + 1;
  if (width == base_width) {
    return a;
  }
  if (IsConst(a)) {
    return Const(width, ConstBits(a) >> lo);
  }
  // extract(extract(x, h1, l1), h2, l2) == extract(x, l1+h2, l1+l2)
  if (node(a).op == SmtOp::kExtract) {
    const SmtNode& inner = node(a);
    return Extract(inner.args[0], inner.aux1 + hi, inner.aux1 + lo);
  }
  SmtNode node;
  node.op = SmtOp::kExtract;
  node.width = width;
  node.aux0 = hi;
  node.aux1 = lo;
  node.args = {a};
  return Intern(std::move(node));
}

SmtRef SmtContext::Zext(SmtRef a, uint32_t new_width) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(new_width >= width, "Zext must not shrink");
  if (new_width == width) {
    return a;
  }
  if (IsConst(a)) {
    return Const(new_width, ConstBits(a));
  }
  SmtNode node;
  node.op = SmtOp::kZext;
  node.width = new_width;
  node.args = {a};
  return Intern(std::move(node));
}

SmtRef SmtContext::Trunc(SmtRef a, uint32_t new_width) {
  const uint32_t width = WidthOf(a);
  GAUNTLET_BUG_CHECK(new_width <= width, "Trunc must not grow");
  if (new_width == width) {
    return a;
  }
  return Extract(a, new_width - 1, 0);
}

SmtRef SmtContext::Resize(SmtRef a, uint32_t new_width) {
  const uint32_t width = WidthOf(a);
  if (new_width > width) {
    return Zext(a, new_width);
  }
  if (new_width < width) {
    return Trunc(a, new_width);
  }
  return a;
}

SmtRef SmtContext::Eq(SmtRef a, SmtRef b) {
  GAUNTLET_BUG_CHECK(IsBool(a) == IsBool(b), "Eq sort mismatch");
  if (IsBool(a)) {
    return BoolEq(a, b);
  }
  GAUNTLET_BUG_CHECK(WidthOf(a) == WidthOf(b), "Eq width mismatch");
  if (a == b) {
    return True();
  }
  if (IsConst(a) && IsConst(b)) {
    return BoolConst(ConstBits(a) == ConstBits(b));
  }
  return MakeBinary(SmtOp::kEq, a, b, 0);
}

SmtRef SmtContext::Ult(SmtRef a, SmtRef b) {
  GAUNTLET_BUG_CHECK(WidthOf(a) == WidthOf(b), "Ult width mismatch");
  if (a == b) {
    return False();
  }
  if (IsConst(a) && IsConst(b)) {
    return BoolConst(ConstBits(a) < ConstBits(b));
  }
  if (IsConst(b) && ConstBits(b) == 0) {
    return False();
  }
  return MakeBinary(SmtOp::kUlt, a, b, 0);
}

SmtRef SmtContext::Ule(SmtRef a, SmtRef b) {
  GAUNTLET_BUG_CHECK(WidthOf(a) == WidthOf(b), "Ule width mismatch");
  if (a == b) {
    return True();
  }
  if (IsConst(a) && IsConst(b)) {
    return BoolConst(ConstBits(a) <= ConstBits(b));
  }
  if (IsConst(a) && ConstBits(a) == 0) {
    return True();
  }
  return MakeBinary(SmtOp::kUle, a, b, 0);
}

SmtRef SmtContext::BoolAnd(SmtRef a, SmtRef b) {
  if (IsConst(a)) {
    return ConstBits(a) != 0 ? b : a;
  }
  if (IsConst(b)) {
    return ConstBits(b) != 0 ? a : b;
  }
  if (a == b) {
    return a;
  }
  return MakeBinary(SmtOp::kBoolAnd, a, b, 0);
}

SmtRef SmtContext::BoolOr(SmtRef a, SmtRef b) {
  if (IsConst(a)) {
    return ConstBits(a) != 0 ? a : b;
  }
  if (IsConst(b)) {
    return ConstBits(b) != 0 ? b : a;
  }
  if (a == b) {
    return a;
  }
  return MakeBinary(SmtOp::kBoolOr, a, b, 0);
}

SmtRef SmtContext::BoolNot(SmtRef a) {
  if (IsConst(a)) {
    return BoolConst(ConstBits(a) == 0);
  }
  if (node(a).op == SmtOp::kBoolNot) {
    return node(a).args[0];
  }
  SmtNode node;
  node.op = SmtOp::kBoolNot;
  node.args = {a};
  return Intern(std::move(node));
}

SmtRef SmtContext::BoolEq(SmtRef a, SmtRef b) {
  if (a == b) {
    return True();
  }
  if (IsConst(a) && IsConst(b)) {
    return BoolConst(ConstBits(a) == ConstBits(b));
  }
  if (IsConst(a)) {
    return ConstBits(a) != 0 ? b : BoolNot(b);
  }
  if (IsConst(b)) {
    return ConstBits(b) != 0 ? a : BoolNot(a);
  }
  return MakeBinary(SmtOp::kBoolEq, a, b, 0);
}

SmtRef SmtContext::Ite(SmtRef cond, SmtRef then_ref, SmtRef else_ref) {
  GAUNTLET_BUG_CHECK(WidthOf(then_ref) == WidthOf(else_ref), "Ite width mismatch");
  if (IsConst(cond)) {
    return ConstBits(cond) != 0 ? then_ref : else_ref;
  }
  if (then_ref == else_ref) {
    return then_ref;
  }
  SmtNode node;
  node.op = SmtOp::kIte;
  node.width = WidthOf(then_ref);
  node.args = {cond, then_ref, else_ref};
  return Intern(std::move(node));
}

SmtRef SmtContext::BoolIte(SmtRef cond, SmtRef then_ref, SmtRef else_ref) {
  if (IsConst(cond)) {
    return ConstBits(cond) != 0 ? then_ref : else_ref;
  }
  if (then_ref == else_ref) {
    return then_ref;
  }
  if (IsConst(then_ref) && IsConst(else_ref)) {
    if (ConstBits(then_ref) != 0 && ConstBits(else_ref) == 0) {
      return cond;
    }
    if (ConstBits(then_ref) == 0 && ConstBits(else_ref) != 0) {
      return BoolNot(cond);
    }
  }
  SmtNode node;
  node.op = SmtOp::kBoolIte;
  node.args = {cond, then_ref, else_ref};
  return Intern(std::move(node));
}

SmtRef SmtContext::Rebuild(SmtRef ref, const std::vector<SmtRef>& args) {
  const SmtNode& original = node(ref);
  GAUNTLET_BUG_CHECK(args.size() == original.args.size(), "Rebuild arity mismatch");
  if (args == original.args) {
    return ref;
  }
  // Copies: the constructors below may grow nodes_ and move `original`.
  const SmtOp op = original.op;
  const uint32_t width = original.width;
  const uint32_t hi = original.aux0;
  const uint32_t lo = original.aux1;
  switch (op) {
    case SmtOp::kConst:
    case SmtOp::kBoolConst:
    case SmtOp::kVar:
    case SmtOp::kBoolVar:
      return ref;
    case SmtOp::kAdd:
      return Add(args[0], args[1]);
    case SmtOp::kSub:
      return Sub(args[0], args[1]);
    case SmtOp::kMul:
      return Mul(args[0], args[1]);
    case SmtOp::kAnd:
      return And(args[0], args[1]);
    case SmtOp::kOr:
      return Or(args[0], args[1]);
    case SmtOp::kXor:
      return Xor(args[0], args[1]);
    case SmtOp::kNot:
      return Not(args[0]);
    case SmtOp::kNeg:
      return Neg(args[0]);
    case SmtOp::kShl:
      return Shl(args[0], args[1]);
    case SmtOp::kShr:
      return Shr(args[0], args[1]);
    case SmtOp::kConcat:
      return Concat(args[0], args[1]);
    case SmtOp::kExtract:
      return Extract(args[0], hi, lo);
    case SmtOp::kZext:
      return Zext(args[0], width);
    case SmtOp::kTrunc:
      return Trunc(args[0], width);
    case SmtOp::kEq:
      return Eq(args[0], args[1]);
    case SmtOp::kUlt:
      return Ult(args[0], args[1]);
    case SmtOp::kUle:
      return Ule(args[0], args[1]);
    case SmtOp::kBoolAnd:
      return BoolAnd(args[0], args[1]);
    case SmtOp::kBoolOr:
      return BoolOr(args[0], args[1]);
    case SmtOp::kBoolNot:
      return BoolNot(args[0]);
    case SmtOp::kBoolEq:
      return BoolEq(args[0], args[1]);
    case SmtOp::kIte:
      return Ite(args[0], args[1], args[2]);
    case SmtOp::kBoolIte:
      return BoolIte(args[0], args[1], args[2]);
  }
  return ref;
}

std::string SmtContext::ToString(SmtRef ref) const {
  const SmtNode& n = node(ref);
  auto binary = [&](const char* name) {
    return std::string("(") + name + " " + ToString(n.args[0]) + " " + ToString(n.args[1]) + ")";
  };
  switch (n.op) {
    case SmtOp::kConst:
      return std::to_string(n.width) + "w" + std::to_string(n.bits);
    case SmtOp::kBoolConst:
      return n.bits != 0 ? "true" : "false";
    case SmtOp::kVar:
    case SmtOp::kBoolVar:
      return var_names_[n.var_id];
    case SmtOp::kAdd:
      return binary("bvadd");
    case SmtOp::kSub:
      return binary("bvsub");
    case SmtOp::kMul:
      return binary("bvmul");
    case SmtOp::kAnd:
      return binary("bvand");
    case SmtOp::kOr:
      return binary("bvor");
    case SmtOp::kXor:
      return binary("bvxor");
    case SmtOp::kNot:
      return "(bvnot " + ToString(n.args[0]) + ")";
    case SmtOp::kNeg:
      return "(bvneg " + ToString(n.args[0]) + ")";
    case SmtOp::kShl:
      return binary("bvshl");
    case SmtOp::kShr:
      return binary("bvlshr");
    case SmtOp::kConcat:
      return binary("concat");
    case SmtOp::kExtract:
      return "(extract " + std::to_string(n.aux0) + " " + std::to_string(n.aux1) + " " +
             ToString(n.args[0]) + ")";
    case SmtOp::kZext:
      return "(zext " + std::to_string(n.width) + " " + ToString(n.args[0]) + ")";
    case SmtOp::kTrunc:
      return "(trunc " + std::to_string(n.width) + " " + ToString(n.args[0]) + ")";
    case SmtOp::kEq:
      return binary("=");
    case SmtOp::kUlt:
      return binary("bvult");
    case SmtOp::kUle:
      return binary("bvule");
    case SmtOp::kBoolAnd:
      return binary("and");
    case SmtOp::kBoolOr:
      return binary("or");
    case SmtOp::kBoolNot:
      return "(not " + ToString(n.args[0]) + ")";
    case SmtOp::kBoolEq:
      return binary("iff");
    case SmtOp::kIte:
    case SmtOp::kBoolIte:
      return "(ite " + ToString(n.args[0]) + " " + ToString(n.args[1]) + " " +
             ToString(n.args[2]) + ")";
  }
  return "<invalid>";
}

}  // namespace gauntlet
