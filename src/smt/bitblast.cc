#include "src/smt/bitblast.h"

#include "src/cache/blast_cache.h"

namespace gauntlet {

BitBlaster::BitBlaster(const SmtContext& context, SatSolver& solver, BlastCache* cache)
    : context_(context), solver_(solver), cache_(cache) {
  true_lit_ = Lit(solver_.NewVar(), false);
  solver_.AddClause({true_lit_});
  if (cache_ != nullptr) {
    // Exact mode: the cache replays recorded clause streams, which is only
    // sound for nodes that would lower to the very same gate network —
    // commutative normalization belongs to the semantic (verdict) layer.
    hasher_ = std::make_unique<StructHasher>(context_, StructHasher::Mode::kExact);
  }
}

BitBlaster::~BitBlaster() = default;

Lit BitBlaster::FreshLit() {
  const Lit lit(solver_.NewVar(), false);
  if (recording_) {
    recording_template_->events.push_back(-1);
    ++recording_template_->fresh_count;
    RegisterRecordedLit(lit);
  }
  return lit;
}

void BitBlaster::EmitClause(std::initializer_list<Lit> lits) {
  if (recording_) {
    recording_template_->events.push_back(static_cast<int32_t>(lits.size()));
    ++recording_template_->clause_count;
    for (const Lit lit : lits) {
      recording_template_->clause_lits.push_back(TemplateLit{MapRecordedLit(lit)});
    }
  }
  solver_.AddClause(lits);
}

void BitBlaster::StartRecording(const std::vector<Lit>& inputs) {
  recording_ = true;
  recording_template_ = std::make_unique<BlastTemplate>();
  recording_template_->input_count = static_cast<uint32_t>(inputs.size());
  recording_next_slot_ = 0;
  recording_slots_.clear();
  RegisterRecordedLit(true_lit_);  // slot 0
  for (const Lit input : inputs) {
    RegisterRecordedLit(input);
  }
}

void BitBlaster::RegisterRecordedLit(Lit lit) {
  // First registration wins: when two tape slots carry the same literal
  // (shared bits across children, a constant input equal to true/false),
  // mapping every later reference through the first slot is sound because
  // replay binds both slots to equally shared literals — the sharing
  // pattern is fixed by the exact structural fingerprint.
  const uint32_t slot = recording_next_slot_++;
  recording_slots_.emplace(lit.var(), (slot << 1) | (lit.negated() ? 1u : 0u));
}

uint32_t BitBlaster::MapRecordedLit(Lit lit) const {
  auto it = recording_slots_.find(lit.var());
  GAUNTLET_BUG_CHECK(it != recording_slots_.end(),
                     "recorded clause references a literal outside the node");
  const uint32_t slot = it->second >> 1;
  const bool base_negated = (it->second & 1) != 0;
  return (slot << 1) | ((base_negated != lit.negated()) ? 1u : 0u);
}

std::vector<Lit> BitBlaster::ReplayTemplate(const BlastTemplate& tpl,
                                            const std::vector<Lit>& inputs) {
  GAUNTLET_BUG_CHECK(inputs.size() == tpl.input_count, "blast template arity mismatch");
  std::vector<Lit> tape;
  tape.reserve(1 + inputs.size() + tpl.fresh_count);
  tape.push_back(true_lit_);
  tape.insert(tape.end(), inputs.begin(), inputs.end());
  const auto lit_of = [&tape](TemplateLit ref) {
    const Lit lit = tape[ref.code >> 1];
    return (ref.code & 1) != 0 ? ~lit : lit;
  };
  size_t lit_pos = 0;
  std::vector<Lit> clause;
  for (const int32_t event : tpl.events) {
    if (event < 0) {
      tape.push_back(Lit(solver_.NewVar(), false));
      continue;
    }
    clause.clear();
    for (int32_t i = 0; i < event; ++i) {
      clause.push_back(lit_of(tpl.clause_lits[lit_pos++]));
    }
    solver_.AddClause(clause);
  }
  std::vector<Lit> outputs;
  outputs.reserve(tpl.outputs.size());
  for (const TemplateLit out : tpl.outputs) {
    outputs.push_back(lit_of(out));
  }
  return outputs;
}

Lit BitBlaster::MkAnd(Lit a, Lit b) {
  if (a == FalseLit() || b == FalseLit()) {
    return FalseLit();
  }
  if (a == TrueLit()) {
    return b;
  }
  if (b == TrueLit()) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a == ~b) {
    return FalseLit();
  }
  const Lit out = FreshLit();
  EmitClause({~a, ~b, out});
  EmitClause({a, ~out});
  EmitClause({b, ~out});
  return out;
}

Lit BitBlaster::MkOr(Lit a, Lit b) { return ~MkAnd(~a, ~b); }

Lit BitBlaster::MkXor(Lit a, Lit b) {
  if (a == FalseLit()) {
    return b;
  }
  if (b == FalseLit()) {
    return a;
  }
  if (a == TrueLit()) {
    return ~b;
  }
  if (b == TrueLit()) {
    return ~a;
  }
  if (a == b) {
    return FalseLit();
  }
  if (a == ~b) {
    return TrueLit();
  }
  const Lit out = FreshLit();
  EmitClause({~a, ~b, ~out});
  EmitClause({a, b, ~out});
  EmitClause({~a, b, out});
  EmitClause({a, ~b, out});
  return out;
}

Lit BitBlaster::MkMux(Lit cond, Lit then_lit, Lit else_lit) {
  if (cond == TrueLit()) {
    return then_lit;
  }
  if (cond == FalseLit()) {
    return else_lit;
  }
  if (then_lit == else_lit) {
    return then_lit;
  }
  const Lit out = FreshLit();
  EmitClause({~cond, ~then_lit, out});
  EmitClause({~cond, then_lit, ~out});
  EmitClause({cond, ~else_lit, out});
  EmitClause({cond, else_lit, ~out});
  return out;
}

std::vector<Lit> BitBlaster::AddVectors(const std::vector<Lit>& a, const std::vector<Lit>& b,
                                        Lit carry_in) {
  GAUNTLET_BUG_CHECK(a.size() == b.size(), "adder width mismatch");
  std::vector<Lit> sum(a.size());
  Lit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit axb = MkXor(a[i], b[i]);
    sum[i] = MkXor(axb, carry);
    // carry_out = (a & b) | (carry & (a ^ b))
    carry = MkOr(MkAnd(a[i], b[i]), MkAnd(carry, axb));
  }
  return sum;
}

std::vector<Lit> BitBlaster::NegateVector(const std::vector<Lit>& a) {
  std::vector<Lit> inverted(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    inverted[i] = ~a[i];
  }
  std::vector<Lit> zero(a.size(), FalseLit());
  return AddVectors(inverted, zero, TrueLit());
}

std::vector<Lit> BitBlaster::MulVectors(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  const size_t width = a.size();
  std::vector<Lit> acc(width, FalseLit());
  for (size_t i = 0; i < width; ++i) {
    // acc += (a << i) & replicate(b[i])
    std::vector<Lit> addend(width, FalseLit());
    for (size_t j = i; j < width; ++j) {
      addend[j] = MkAnd(a[j - i], b[i]);
    }
    acc = AddVectors(acc, addend, FalseLit());
  }
  return acc;
}

std::vector<Lit> BitBlaster::ShiftVector(const std::vector<Lit>& value,
                                         const std::vector<Lit>& amount, bool left) {
  const size_t width = value.size();
  std::vector<Lit> current = value;
  // Barrel shifter over the amount's bits. Stages whose shift quantity
  // meets or exceeds the width clear the result (P4 shift semantics).
  for (size_t stage = 0; stage < amount.size(); ++stage) {
    const uint64_t shift_by = uint64_t{1} << stage;
    std::vector<Lit> shifted(width, FalseLit());
    if (shift_by < width) {
      for (size_t i = 0; i < width; ++i) {
        if (left) {
          if (i >= shift_by) {
            shifted[i] = current[i - shift_by];
          }
        } else {
          if (i + shift_by < width) {
            shifted[i] = current[i + shift_by];
          }
        }
      }
    }
    // else: shifted stays all zero
    for (size_t i = 0; i < width; ++i) {
      current[i] = MkMux(amount[stage], shifted[i], current[i]);
    }
    if (stage > 63) {
      break;
    }
  }
  return current;
}

Lit BitBlaster::UltVectors(const std::vector<Lit>& a, const std::vector<Lit>& b, bool or_equal) {
  // Ripple from LSB: result = (a_i < b_i) | ((a_i == b_i) & result_below).
  Lit result = or_equal ? TrueLit() : FalseLit();
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit lt = MkAnd(~a[i], b[i]);
    const Lit eq = MkIff(a[i], b[i]);
    result = MkOr(lt, MkAnd(eq, result));
  }
  return result;
}

Lit BitBlaster::EqVectors(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  Lit result = TrueLit();
  for (size_t i = 0; i < a.size(); ++i) {
    result = MkAnd(result, MkIff(a[i], b[i]));
  }
  return result;
}

std::vector<Lit> BitBlaster::ConstructGates(const SmtNode& node,
                                            const std::vector<std::vector<Lit>>& kids) {
  std::vector<Lit> bits;
  switch (node.op) {
    case SmtOp::kAdd:
      bits = AddVectors(kids[0], kids[1], FalseLit());
      break;
    case SmtOp::kSub: {
      std::vector<Lit> rhs = kids[1];
      for (Lit& lit : rhs) {
        lit = ~lit;
      }
      bits = AddVectors(kids[0], rhs, TrueLit());
      break;
    }
    case SmtOp::kMul:
      bits = MulVectors(kids[0], kids[1]);
      break;
    case SmtOp::kAnd: {
      bits.resize(kids[0].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkAnd(kids[0][i], kids[1][i]);
      }
      break;
    }
    case SmtOp::kOr: {
      bits.resize(kids[0].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkOr(kids[0][i], kids[1][i]);
      }
      break;
    }
    case SmtOp::kXor: {
      bits.resize(kids[0].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkXor(kids[0][i], kids[1][i]);
      }
      break;
    }
    case SmtOp::kNeg:
      bits = NegateVector(kids[0]);
      break;
    case SmtOp::kShl:
      bits = ShiftVector(kids[0], kids[1], /*left=*/true);
      break;
    case SmtOp::kShr:
      bits = ShiftVector(kids[0], kids[1], /*left=*/false);
      break;
    case SmtOp::kIte: {
      const Lit cond = kids[0][0];
      bits.resize(kids[1].size());
      for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = MkMux(cond, kids[1][i], kids[2][i]);
      }
      break;
    }
    case SmtOp::kEq:
      bits = {EqVectors(kids[0], kids[1])};
      break;
    case SmtOp::kUlt:
      bits = {UltVectors(kids[0], kids[1], /*or_equal=*/false)};
      break;
    case SmtOp::kUle:
      bits = {UltVectors(kids[0], kids[1], /*or_equal=*/true)};
      break;
    case SmtOp::kBoolAnd:
      bits = {MkAnd(kids[0][0], kids[1][0])};
      break;
    case SmtOp::kBoolOr:
      bits = {MkOr(kids[0][0], kids[1][0])};
      break;
    case SmtOp::kBoolEq:
      bits = {MkIff(kids[0][0], kids[1][0])};
      break;
    case SmtOp::kBoolIte:
      bits = {MkMux(kids[0][0], kids[1][0], kids[2][0])};
      break;
    default:
      GAUNTLET_BUG_CHECK(false, "ConstructGates on a wiring/leaf node");
  }
  return bits;
}

size_t BitBlaster::StrashKeyHash::operator()(const std::vector<uint32_t>& key) const {
  uint64_t hash = key.size();
  for (const uint32_t word : key) {
    hash ^= word + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  }
  return static_cast<size_t>(hash);
}

std::vector<Lit> BitBlaster::BlastGateNode(SmtRef ref, const SmtNode& node) {
  // Children first (outside any recording): templates are node-local, so a
  // child's own clauses belong to the child's template, and a child shared
  // with an earlier node comes straight from the per-solve memo.
  std::vector<std::vector<Lit>> kids;
  kids.reserve(node.args.size());
  std::vector<uint32_t> key = {static_cast<uint32_t>(node.op)};
  for (const SmtRef& arg : node.args) {
    if (context_.IsBool(arg)) {
      kids.push_back({BlastBool(arg)});
    } else {
      kids.push_back(BlastVector(arg));
    }
    key.push_back(static_cast<uint32_t>(kids.back().size()));
    for (const Lit lit : kids.back()) {
      key.push_back(lit.code);
    }
  }
  // The gate constructors are a pure function of the op and the operand
  // literals, so a node keyed like an earlier one would rebuild its very
  // gates. The lookup precedes template replay and recording: a hit adds no
  // clauses at all, and a recorded template never sees one. Which operands
  // end up sharing literals through a hit is decided by their sub-DAGs, so
  // the exact fingerprint still pins a template's input sharing pattern.
  if (auto hit = strash_.find(key); hit != strash_.end()) {
    ++strash_hits_;
    return hit->second;
  }
  std::vector<Lit> bits = LowerGateNode(ref, node, kids);
  strash_.emplace(std::move(key), bits);
  return bits;
}

std::vector<Lit> BitBlaster::LowerGateNode(SmtRef ref, const SmtNode& node,
                                           const std::vector<std::vector<Lit>>& kids) {
  if (cache_ == nullptr) {
    return ConstructGates(node, kids);
  }
  std::vector<Lit> inputs;
  for (const std::vector<Lit>& kid : kids) {
    inputs.insert(inputs.end(), kid.begin(), kid.end());
  }
  const Fingerprint fp = hasher_->Hash(ref);
  if (const BlastTemplate* tpl = cache_->Find(fp)) {
    return ReplayTemplate(*tpl, inputs);
  }
  StartRecording(inputs);
  std::vector<Lit> bits = ConstructGates(node, kids);
  for (const Lit bit : bits) {
    recording_template_->outputs.push_back(TemplateLit{MapRecordedLit(bit)});
  }
  recording_ = false;
  cache_->Insert(fp, std::move(*recording_template_));
  recording_template_.reset();
  return bits;
}

std::vector<Lit> BitBlaster::BlastVector(SmtRef ref) {
  auto cached = vector_cache_.find(ref.index);
  if (cached != vector_cache_.end()) {
    return cached->second;
  }
  const SmtNode& node = context_.node(ref);
  std::vector<Lit> bits;
  switch (node.op) {
    case SmtOp::kConst: {
      bits.resize(node.width);
      for (uint32_t i = 0; i < node.width; ++i) {
        bits[i] = ((node.bits >> i) & 1) != 0 ? TrueLit() : FalseLit();
      }
      break;
    }
    case SmtOp::kVar: {
      auto it = var_bits_.find(node.var_id);
      if (it == var_bits_.end()) {
        std::vector<Lit> fresh(node.width);
        for (uint32_t i = 0; i < node.width; ++i) {
          fresh[i] = Lit(solver_.NewVar(), false);
        }
        it = var_bits_.emplace(node.var_id, std::move(fresh)).first;
      }
      bits = it->second;
      break;
    }
    // Pure bit wiring: no gates, no clauses — cheaper to rebuild than to
    // look up, so these stay outside the blast cache.
    case SmtOp::kNot: {
      const std::vector<Lit> a = BlastVector(node.args[0]);
      bits.resize(a.size());
      for (size_t i = 0; i < a.size(); ++i) {
        bits[i] = ~a[i];
      }
      break;
    }
    case SmtOp::kConcat: {
      const std::vector<Lit> high = BlastVector(node.args[0]);
      const std::vector<Lit> low = BlastVector(node.args[1]);
      bits = low;
      bits.insert(bits.end(), high.begin(), high.end());
      break;
    }
    case SmtOp::kExtract: {
      const std::vector<Lit> base = BlastVector(node.args[0]);
      bits.assign(base.begin() + node.aux1, base.begin() + node.aux0 + 1);
      break;
    }
    case SmtOp::kZext: {
      bits = BlastVector(node.args[0]);
      bits.resize(node.width, FalseLit());
      break;
    }
    case SmtOp::kTrunc: {
      const std::vector<Lit> base = BlastVector(node.args[0]);
      bits.assign(base.begin(), base.begin() + node.width);
      break;
    }
    case SmtOp::kAdd:
    case SmtOp::kSub:
    case SmtOp::kMul:
    case SmtOp::kAnd:
    case SmtOp::kOr:
    case SmtOp::kXor:
    case SmtOp::kNeg:
    case SmtOp::kShl:
    case SmtOp::kShr:
    case SmtOp::kIte:
      bits = BlastGateNode(ref, node);
      break;
    default:
      GAUNTLET_BUG_CHECK(false, "BlastVector on boolean-sorted node");
  }
  GAUNTLET_BUG_CHECK(bits.size() == node.width, "blasted width mismatch");
  return vector_cache_.emplace(ref.index, std::move(bits)).first->second;
}

Lit BitBlaster::BlastBool(SmtRef ref) {
  auto cached = bool_cache_.find(ref.index);
  if (cached != bool_cache_.end()) {
    return cached->second;
  }
  const SmtNode& node = context_.node(ref);
  Lit lit;
  switch (node.op) {
    case SmtOp::kBoolConst:
      lit = node.bits != 0 ? TrueLit() : FalseLit();
      break;
    case SmtOp::kBoolVar: {
      auto it = bool_var_lits_.find(node.var_id);
      if (it == bool_var_lits_.end()) {
        it = bool_var_lits_.emplace(node.var_id, Lit(solver_.NewVar(), false)).first;
      }
      lit = it->second;
      break;
    }
    case SmtOp::kBoolNot:
      lit = ~BlastBool(node.args[0]);
      break;
    case SmtOp::kEq:
    case SmtOp::kUlt:
    case SmtOp::kUle:
    case SmtOp::kBoolAnd:
    case SmtOp::kBoolOr:
    case SmtOp::kBoolEq:
    case SmtOp::kBoolIte:
      lit = BlastGateNode(ref, node)[0];
      break;
    default:
      GAUNTLET_BUG_CHECK(false, "BlastBool on bit-vector-sorted node");
  }
  bool_cache_.emplace(ref.index, lit);
  return lit;
}

uint64_t BitBlaster::VarValue(uint32_t var_id) const {
  auto it = var_bits_.find(var_id);
  if (it == var_bits_.end()) {
    return 0;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < it->second.size(); ++i) {
    const Lit lit = it->second[i];
    bool bit;
    if (lit == true_lit_) {
      bit = true;
    } else if (lit == ~true_lit_) {
      bit = false;
    } else {
      bit = solver_.ValueOf(lit.var()) != lit.negated();
    }
    if (bit) {
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

bool BitBlaster::BoolVarValue(uint32_t var_id) const {
  auto it = bool_var_lits_.find(var_id);
  if (it == bool_var_lits_.end()) {
    return false;
  }
  const Lit lit = it->second;
  return solver_.ValueOf(lit.var()) != lit.negated();
}

}  // namespace gauntlet
