#include "src/gen/generator.h"

#include <algorithm>

#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {

namespace {

// A readable/writable scalar location visible to the expression generator.
struct Slot {
  std::vector<std::string> path;  // e.g. {"hdr", "h0", "f1"}
  TypePtr type;
  bool writable = false;
};

ExprPtr SlotExpr(const Slot& slot) {
  ExprPtr expr = MakePath(slot.path[0]);
  for (size_t i = 1; i < slot.path.size(); ++i) {
    expr = MakeMember(std::move(expr), slot.path[i]);
  }
  return expr;
}

// Per-program generation state.
class Builder {
 public:
  Builder(const GeneratorOptions& options, Rng& rng) : options_(options), rng_(rng) {}

  ProgramPtr Build() {
    program_ = std::make_unique<Program>();
    GenerateTypes();
    GenerateFunctions();
    GenerateParser();
    GenerateIngress();
    const bool with_egress = rng_.Chance(options_.p_egress);
    if (with_egress) {
      GenerateEgress();
    }
    GenerateDeparser();
    program_->BindBlock(BlockRole::kParser, "p");
    program_->BindBlock(BlockRole::kIngress, "ig");
    if (with_egress) {
      program_->BindBlock(BlockRole::kEgress, "eg");
    }
    program_->BindBlock(BlockRole::kDeparser, "dp");
    return std::move(program_);
  }

 private:
  uint32_t PickWidth() {
    static const std::vector<uint32_t> narrow = {1, 2, 4, 7, 8, 12, 16};
    static const std::vector<uint32_t> wide = {33, 48, 64};
    static const std::vector<uint32_t> narrow_bytes = {8, 8, 16, 16, 24, 32};
    static const std::vector<uint32_t> wide_bytes = {40, 48, 64};
    const bool bytes = options_.byte_aligned_fields;
    if (rng_.Chance(options_.p_wide_arith) ||
        (options_.backend == GeneratorBackend::kTofino && rng_.Chance(20))) {
      return rng_.PickFrom(bytes ? wide_bytes : wide);
    }
    return rng_.PickFrom(bytes ? narrow_bytes : narrow);
  }

  std::string Fresh(const std::string& hint) {
    return hint + std::to_string(name_counter_++);
  }

  // --- types ---

  void GenerateTypes() {
    const int header_count = static_cast<int>(rng_.Range(1, options_.max_headers));
    std::vector<Type::Field> struct_fields;
    for (int h = 0; h < header_count; ++h) {
      const int field_count = static_cast<int>(rng_.Range(1, options_.max_fields_per_header));
      std::vector<Type::Field> fields;
      for (int f = 0; f < field_count; ++f) {
        fields.push_back(Type::Field{"f" + std::to_string(f), Type::Bit(PickWidth())});
      }
      const std::string name = "H" + std::to_string(h);
      TypePtr header = Type::MakeHeader(name, std::move(fields));
      program_->AddType(header);
      struct_fields.push_back(Type::Field{"h" + std::to_string(h), header});
      header_names_.push_back("h" + std::to_string(h));
    }
    hdr_type_ = Type::MakeStruct("Hdr", std::move(struct_fields));
    program_->AddType(hdr_type_);
  }

  // Collects the header-field slots reachable from `hdr`.
  std::vector<Slot> HeaderSlots(bool writable) const {
    std::vector<Slot> slots;
    for (const Type::Field& header_field : hdr_type_->fields()) {
      for (const Type::Field& field : header_field.type->fields()) {
        Slot slot;
        slot.path = {"hdr", header_field.name, field.name};
        slot.type = field.type;
        slot.writable = writable;
        slots.push_back(std::move(slot));
      }
    }
    return slots;
  }

  // --- expressions ---

  std::vector<const Slot*> SlotsOfWidth(const std::vector<Slot>& slots, uint32_t width,
                                        bool need_writable) const {
    std::vector<const Slot*> matches;
    for (const Slot& slot : slots) {
      if (slot.type->IsBit() && slot.type->width() == width &&
          (!need_writable || slot.writable)) {
        matches.push_back(&slot);
      }
    }
    return matches;
  }

  ExprPtr GenBitExpr(const std::vector<Slot>& scope, uint32_t width, int depth,
                     bool allow_calls) {
    // Leaf choices when the depth budget is exhausted.
    const std::vector<const Slot*> matches =
        SlotsOfWidth(scope, width, /*need_writable=*/false);
    if (depth <= 0) {
      if (!matches.empty() && rng_.Chance(70)) {
        return SlotExpr(*rng_.PickFrom(matches));
      }
      return MakeConstant(width, rng_.Next());
    }
    switch (rng_.Below(10)) {
      case 0:  // constant
        return MakeConstant(width, rng_.Next());
      case 1:  // direct read
        if (!matches.empty()) {
          return SlotExpr(*rng_.PickFrom(matches));
        }
        return MakeConstant(width, rng_.Next());
      case 2: {  // slice of a wider slot
        std::vector<const Slot*> wider;
        for (const Slot& slot : scope) {
          if (slot.type->IsBit() && slot.type->width() > width) {
            wider.push_back(&slot);
          }
        }
        if (wider.empty()) {
          return GenBitExpr(scope, width, depth - 1, allow_calls);
        }
        const Slot* slot = rng_.PickFrom(wider);
        const uint32_t lo =
            static_cast<uint32_t>(rng_.Below(slot->type->width() - width + 1));
        return std::make_unique<SliceExpr>(SlotExpr(*slot), lo + width - 1, lo);
      }
      case 3: {  // cast from another width
        const uint32_t source_width = PickWidth();
        return std::make_unique<CastExpr>(
            Type::Bit(width), GenBitExpr(scope, source_width, depth - 1, allow_calls));
      }
      case 4: {  // constant arithmetic (constant-folding fodder)
        if (rng_.Chance(options_.p_const_arith)) {
          const BinaryOp op = rng_.Chance(50) ? BinaryOp::kAdd : BinaryOp::kMul;
          return MakeBinary(op, MakeConstant(width, rng_.Next()),
                            MakeConstant(width, rng_.Next()));
        }
        return GenBitExpr(scope, width, depth - 1, allow_calls);
      }
      case 5: {  // constant shifted by a variable (Fig. 5b fodder)
        if (rng_.Chance(options_.p_const_shift) && !matches.empty()) {
          return MakeBinary(BinaryOp::kShl, MakeConstant(width, 1),
                            SlotExpr(*rng_.PickFrom(matches)));
        }
        return GenBitExpr(scope, width, depth - 1, allow_calls);
      }
      case 6: {  // conditional expression (side-effect free by construction)
        return std::make_unique<MuxExpr>(GenBoolExpr(scope, depth - 1),
                                         GenBitExpr(scope, width, depth - 1, false),
                                         GenBitExpr(scope, width, depth - 1, false));
      }
      case 7: {  // function call (copy-in/copy-out stress)
        if (allow_calls && rng_.Chance(options_.p_function_call)) {
          ExprPtr call = GenFunctionCall(scope, width, depth);
          if (call != nullptr) {
            return call;
          }
        }
        return GenBitExpr(scope, width, depth - 1, allow_calls);
      }
      case 8: {  // unary
        const UnaryOp op = rng_.Chance(50) ? UnaryOp::kComplement : UnaryOp::kNegate;
        return MakeUnary(op, GenBitExpr(scope, width, depth - 1, allow_calls));
      }
      default: {  // binary
        static const std::vector<BinaryOp> ops = {
            BinaryOp::kAdd,    BinaryOp::kSub,   BinaryOp::kMul,
            BinaryOp::kBitAnd, BinaryOp::kBitOr, BinaryOp::kBitXor,
            BinaryOp::kShl,    BinaryOp::kShr,
        };
        const BinaryOp op = rng_.PickFrom(ops);
        // Shifts by a literal constant are StrengthReduction fodder
        // (the Fig. 5c slice-rewrite path only fires on `x >> c`).
        if ((op == BinaryOp::kShr || op == BinaryOp::kShl) && rng_.Chance(60)) {
          return MakeBinary(op, GenBitExpr(scope, width, depth - 1, allow_calls),
                            MakeConstant(width, rng_.Below(width + 2)));
        }
        return MakeBinary(op, GenBitExpr(scope, width, depth - 1, allow_calls),
                          GenBitExpr(scope, width, depth - 1, allow_calls));
      }
    }
  }

  ExprPtr GenBoolExpr(const std::vector<Slot>& scope, int depth) {
    if (depth <= 0) {
      return MakeBool(rng_.Chance(50));
    }
    switch (rng_.Below(6)) {
      case 0: {  // isValid — only where `hdr` is actually in scope
        bool hdr_in_scope = false;
        for (const Slot& slot : scope) {
          hdr_in_scope |= !slot.path.empty() && slot.path[0] == "hdr";
        }
        if (hdr_in_scope && !header_names_.empty() && rng_.Chance(options_.p_validity_ops)) {
          const std::string& header = rng_.PickFrom(header_names_);
          return std::make_unique<CallExpr>(CallKind::kIsValid, "isValid",
                                            MakeMember(MakePath("hdr"), header),
                                            std::vector<ExprPtr>{});
        }
        [[fallthrough]];
      }
      case 1:
      case 2: {  // comparison between two bit expressions (call-free)
        const uint32_t width = PickWidth();
        static const std::vector<BinaryOp> ops = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                                  BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
        return MakeBinary(rng_.PickFrom(ops), GenBitExpr(scope, width, depth - 1, false),
                          GenBitExpr(scope, width, depth - 1, false));
      }
      case 3:
        return MakeUnary(UnaryOp::kLogicalNot, GenBoolExpr(scope, depth - 1));
      case 4:
        return MakeBinary(rng_.Chance(50) ? BinaryOp::kLogicalAnd : BinaryOp::kLogicalOr,
                          GenBoolExpr(scope, depth - 1), GenBoolExpr(scope, depth - 1));
      default:
        return MakeBool(rng_.Chance(50));
    }
  }

  // Picks a function whose return width matches and whose out/inout
  // parameters can be satisfied from writable slots; returns null if none.
  ExprPtr GenFunctionCall(const std::vector<Slot>& scope, uint32_t width, int depth) {
    std::vector<const FunctionDecl*> candidates;
    for (const DeclPtr& decl : program_->decls()) {
      if (decl->kind() == DeclKind::kFunction) {
        const auto& function = static_cast<const FunctionDecl&>(*decl);
        if (function.return_type()->IsBit() && function.return_type()->width() == width) {
          candidates.push_back(&function);
        }
      }
    }
    if (candidates.empty()) {
      return nullptr;
    }
    const FunctionDecl* function = rng_.PickFrom(candidates);
    std::vector<ExprPtr> args;
    for (const Param& param : function->params()) {
      if (param.direction == Direction::kIn) {
        args.push_back(GenBitExpr(scope, param.type->width(), depth - 1, false));
        continue;
      }
      ExprPtr lvalue = PickWritableLValue(scope, param.type->width());
      if (lvalue == nullptr) {
        return nullptr;
      }
      args.push_back(std::move(lvalue));
    }
    return std::make_unique<CallExpr>(CallKind::kFunction, function->name(), nullptr,
                                      std::move(args));
  }

  // A writable l-value of exactly `width` bits: either a matching slot or a
  // slice of a wider writable slot (Fig. 5d fodder).
  ExprPtr PickWritableLValue(const std::vector<Slot>& scope, uint32_t width) {
    std::vector<const Slot*> exact = SlotsOfWidth(scope, width, /*need_writable=*/true);
    std::vector<const Slot*> wider;
    for (const Slot& slot : scope) {
      if (slot.writable && slot.type->IsBit() && slot.type->width() > width) {
        wider.push_back(&slot);
      }
    }
    const bool use_slice =
        !wider.empty() && (exact.empty() || rng_.Chance(options_.p_slice_argument));
    if (use_slice) {
      const Slot* slot = rng_.PickFrom(wider);
      const uint32_t lo = static_cast<uint32_t>(rng_.Below(slot->type->width() - width + 1));
      return std::make_unique<SliceExpr>(SlotExpr(*slot), lo + width - 1, lo);
    }
    if (!exact.empty()) {
      return SlotExpr(*rng_.PickFrom(exact));
    }
    return nullptr;
  }

  // --- functions ---

  void GenerateFunctions() {
    const int count = static_cast<int>(rng_.Below(options_.max_functions + 1));
    for (int i = 0; i < count; ++i) {
      const std::string name = Fresh("fn");
      std::vector<Param> params;
      std::vector<Slot> scope;
      // "Accumulator" shape: the first parameter is inout, the body mutates
      // it, and the return value reads it back. Two calls sharing an
      // argument then observe each other's side effects, which is what
      // makes argument-evaluation-order faults (§7.2) show up as output
      // differences instead of silent reshuffles.
      const bool accumulator = rng_.Chance(50);
      const int param_count = static_cast<int>(rng_.Range(1, 3));
      for (int j = 0; j < param_count; ++j) {
        Param param;
        const uint64_t roll = rng_.Below(3);
        param.direction = roll == 0   ? Direction::kIn
                          : roll == 1 ? Direction::kInOut
                                      : Direction::kOut;
        if (accumulator && j == 0) {
          param.direction = Direction::kInOut;
        }
        param.type = Type::Bit(PickWidth());
        param.name = name + "_p" + std::to_string(j);
        Slot slot;
        slot.path = {param.name};
        slot.type = param.type;
        slot.writable = param.direction != Direction::kIn;
        scope.push_back(std::move(slot));
        params.push_back(std::move(param));
      }
      const TypePtr return_type =
          accumulator ? params[0].type : Type::Bit(PickWidth());
      auto body = std::make_unique<BlockStmt>();
      // out params must be written before any return path may leave them
      // undefined in a surprising way — initialize them first.
      for (size_t j = 0; j < params.size(); ++j) {
        if (params[j].direction == Direction::kOut) {
          body->Append(std::make_unique<AssignStmt>(
              MakePath(params[j].name),
              GenBitExpr(scope, params[j].type->width(), 1, false)));
        }
      }
      if (accumulator) {
        body->Append(std::make_unique<AssignStmt>(
            MakePath(params[0].name),
            MakeBinary(BinaryOp::kAdd, MakePath(params[0].name),
                       MakeConstant(params[0].type->width(), 1 + rng_.Below(200)))));
        accumulator_functions_.push_back(name);
      }
      const int statement_count = static_cast<int>(rng_.Below(3));
      for (int j = 0; j < statement_count; ++j) {
        ExprPtr lvalue = PickWritableLValue(scope, PickWidth());
        if (lvalue == nullptr) {
          continue;
        }
        const uint32_t width = lvalue->kind() == ExprKind::kSlice
                                   ? LValueWidth(*lvalue)
                                   : WidthOfSlotLValue(scope, *lvalue);
        body->Append(std::make_unique<AssignStmt>(std::move(lvalue),
                                                  GenBitExpr(scope, width, 2, false)));
      }
      // Optional early return inside a branch (inliner stress).
      auto return_expr = [&](int depth) -> ExprPtr {
        ExprPtr expr = GenBitExpr(scope, return_type->width(), depth, false);
        if (accumulator) {
          // The return value reads the mutated parameter, so call order is
          // observable through the result.
          expr = MakeBinary(BinaryOp::kBitXor, MakePath(params[0].name), std::move(expr));
        }
        return expr;
      };
      if (rng_.Chance(40)) {
        auto early = std::make_unique<BlockStmt>();
        early->Append(std::make_unique<ReturnStmt>(return_expr(1)));
        body->Append(std::make_unique<IfStmt>(GenBoolExpr(scope, 1), std::move(early), nullptr));
      }
      body->Append(std::make_unique<ReturnStmt>(return_expr(2)));
      program_->AddDecl(
          std::make_unique<FunctionDecl>(name, return_type, std::move(params), std::move(body)));
    }
  }

  static uint32_t LValueWidth(const Expr& lvalue) {
    if (lvalue.kind() == ExprKind::kSlice) {
      const auto& slice = static_cast<const SliceExpr&>(lvalue);
      return slice.hi() - slice.lo() + 1;
    }
    // Path/member of a slot: the builder only produces typed slot widths,
    // so recompute from the slice-free shape via the slot that made it.
    GAUNTLET_BUG_CHECK(false, "LValueWidth only called for slices");
    return 0;
  }

  // --- parser ---

  void GenerateParser() {
    std::vector<Param> params;
    params.push_back(Param{Direction::kOut, hdr_type_, "hdr"});
    std::vector<ParserState> states;

    ParserState start;
    start.name = "start";
    start.statements.push_back(MakeExtract(header_names_[0]));
    const bool use_select = header_names_.size() > 1 && rng_.Chance(options_.p_parser_select);
    if (use_select) {
      // Select on the first field of h0.
      const Type::Field& field = hdr_type_->fields()[0].type->fields()[0];
      start.select_expr =
          MakeMember(MakeMember(MakePath("hdr"), header_names_[0]), field.name);
      const uint32_t width = field.type->width();
      SelectCase to_next;
      to_next.value = MakeConstant(width, rng_.Next());
      to_next.next_state = "parse_h1";
      start.cases.push_back(std::move(to_next));
      if (rng_.Chance(25)) {
        SelectCase to_reject;
        to_reject.value = MakeConstant(width, rng_.Next());
        to_reject.next_state = "reject";
        start.cases.push_back(std::move(to_reject));
      }
      SelectCase fallback;
      fallback.value = nullptr;
      fallback.next_state = "accept";
      start.cases.push_back(std::move(fallback));
      states.push_back(std::move(start));

      ParserState parse_h1;
      parse_h1.name = "parse_h1";
      parse_h1.statements.push_back(MakeExtract(header_names_[1]));
      SelectCase done;
      done.value = nullptr;
      done.next_state = "accept";
      parse_h1.cases.push_back(std::move(done));
      states.push_back(std::move(parse_h1));
    } else {
      // Extract every header unconditionally.
      for (size_t h = 1; h < header_names_.size(); ++h) {
        start.statements.push_back(MakeExtract(header_names_[h]));
      }
      SelectCase done;
      done.value = nullptr;
      done.next_state = "accept";
      start.cases.push_back(std::move(done));
      states.push_back(std::move(start));
    }
    program_->AddDecl(std::make_unique<ParserDecl>("p", std::move(params), std::move(states)));
  }

  StmtPtr MakeExtract(const std::string& header) {
    auto call = std::make_unique<CallExpr>(CallKind::kExtract, "pkt",
                                           MakeMember(MakePath("hdr"), header),
                                           std::vector<ExprPtr>{});
    return std::make_unique<CallStmt>(std::move(call));
  }

  // --- ingress ---

  void GenerateIngress() {
    std::vector<Param> params;
    params.push_back(Param{Direction::kInOut, hdr_type_, "hdr"});
    std::vector<DeclPtr> locals;
    std::vector<Slot> scope = HeaderSlots(/*writable=*/true);

    // Table actions (control-plane data params) and direct actions
    // (directional params).
    std::vector<std::string> table_action_names;
    std::vector<const ActionDecl*> direct_actions;
    const int action_count = static_cast<int>(rng_.Range(1, options_.max_actions));
    for (int i = 0; i < action_count; ++i) {
      const bool direct = rng_.Chance(options_.p_direct_action);
      DeclPtr action = direct ? GenDirectAction(scope) : GenTableAction(scope);
      if (!direct) {
        table_action_names.push_back(action->name());
      } else {
        direct_actions.push_back(static_cast<const ActionDecl*>(action.get()));
      }
      locals.push_back(std::move(action));
    }

    // Tables over the table actions. The Tofino skeleton allows more tables
    // to exercise the chip's stage budget (§4.2 back-end specialization).
    std::vector<std::string> table_names;
    const int table_count = static_cast<int>(
        options_.backend == GeneratorBackend::kTofino
            ? rng_.Range(1, options_.max_tables + 4)
            : rng_.Range(0, options_.max_tables));
    for (int i = 0; i < table_count; ++i) {
      const std::string name = Fresh("t");
      std::vector<TableKey> keys;
      const int key_count = static_cast<int>(rng_.Range(1, 2));
      for (int k = 0; k < key_count; ++k) {
        const std::vector<Slot> header_scope = HeaderSlots(false);
        TableKey key;
        key.expr = SlotExpr(rng_.PickFrom(header_scope));
        key.match_kind = "exact";
        keys.push_back(std::move(key));
      }
      std::vector<std::string> actions = table_action_names;
      actions.push_back("NoAction");
      // Default: NoAction, or a table action with constant arguments.
      std::string default_action = "NoAction";
      std::vector<ExprPtr> default_args;
      if (!table_action_names.empty() && rng_.Chance(40)) {
        default_action = rng_.PickFrom(table_action_names);
        const Decl* decl = nullptr;
        for (const DeclPtr& local : locals) {
          if (local->name() == default_action) {
            decl = local.get();
          }
        }
        for (const Param& param : static_cast<const ActionDecl*>(decl)->params()) {
          default_args.push_back(MakeConstant(param.type->width(), rng_.Next()));
        }
      }
      locals.push_back(std::make_unique<TableDecl>(name, std::move(keys), std::move(actions),
                                                   default_action, std::move(default_args)));
      table_names.push_back(name);
    }

    // Apply body.
    auto apply = std::make_unique<BlockStmt>();
    std::vector<Slot> apply_scope = scope;
    const int statement_count =
        static_cast<int>(rng_.Range(1, options_.max_apply_statements));
    size_t next_table = 0;
    for (int i = 0; i < statement_count; ++i) {
      GenApplyStatement(*apply, apply_scope, direct_actions, table_names, next_table);
    }
    for (; next_table < table_names.size(); ++next_table) {
      apply->Append(std::make_unique<CallStmt>(
          std::make_unique<CallExpr>(CallKind::kTableApply, table_names[next_table], nullptr,
                                     std::vector<ExprPtr>{})));
    }
    program_->AddDecl(std::make_unique<ControlDecl>("ig", std::move(params), std::move(locals),
                                                    std::move(apply)));
  }

  DeclPtr GenTableAction(const std::vector<Slot>& header_scope) {
    const std::string name = Fresh("act");
    std::vector<Param> params;
    std::vector<Slot> scope = header_scope;
    const int data_count = static_cast<int>(rng_.Below(3));
    for (int i = 0; i < data_count; ++i) {
      Param param;
      param.direction = Direction::kNone;
      param.type = Type::Bit(PickWidth());
      param.name = name + "_d" + std::to_string(i);
      Slot slot;
      slot.path = {param.name};
      slot.type = param.type;
      slot.writable = false;  // action data is read-only
      scope.push_back(std::move(slot));
      params.push_back(std::move(param));
    }
    auto body = std::make_unique<BlockStmt>();
    GenActionBody(*body, scope, /*allow_exit=*/false);
    return std::make_unique<ActionDecl>(name, std::move(params), std::move(body));
  }

  DeclPtr GenDirectAction(const std::vector<Slot>& header_scope) {
    const std::string name = Fresh("act");
    std::vector<Param> params;
    std::vector<Slot> scope = header_scope;
    const int param_count = static_cast<int>(rng_.Range(1, 2));
    for (int i = 0; i < param_count; ++i) {
      Param param;
      param.direction = rng_.Chance(75) ? Direction::kInOut : Direction::kOut;
      param.type = Type::Bit(PickWidth());
      param.name = name + "_v" + std::to_string(i);
      Slot slot;
      slot.path = {param.name};
      slot.type = param.type;
      slot.writable = true;
      scope.push_back(std::move(slot));
      params.push_back(std::move(param));
    }
    auto body = std::make_unique<BlockStmt>();
    // out params are written unconditionally first.
    for (const Param& param : params) {
      if (param.direction == Direction::kOut) {
        body->Append(std::make_unique<AssignStmt>(
            MakePath(param.name), GenBitExpr(scope, param.type->width(), 1, false)));
      }
    }
    GenActionBody(*body, scope, rng_.Chance(options_.p_exit_in_action));
    return std::make_unique<ActionDecl>(name, std::move(params), std::move(body));
  }

  void GenActionBody(BlockStmt& body, const std::vector<Slot>& scope, bool allow_exit) {
    const int statement_count =
        static_cast<int>(rng_.Range(1, options_.max_action_statements));
    for (int i = 0; i < statement_count; ++i) {
      if (rng_.Chance(options_.p_if_statement)) {
        // Branches contain only assignments — Predication fodder.
        auto then_block = std::make_unique<BlockStmt>();
        AppendAssignment(*then_block, scope);
        StmtPtr else_block;
        if (rng_.Chance(60)) {
          auto block = std::make_unique<BlockStmt>();
          AppendAssignment(*block, scope);
          else_block = std::move(block);
        }
        body.Append(std::make_unique<IfStmt>(GenBoolExpr(scope, 2), std::move(then_block),
                                             std::move(else_block)));
        continue;
      }
      AppendAssignment(body, scope);
    }
    if (allow_exit) {
      body.Append(std::make_unique<ExitStmt>());
    }
  }

  void AppendAssignment(BlockStmt& block, const std::vector<Slot>& scope,
                        bool allow_calls = false) {
    ExprPtr lvalue = PickWritableLValue(scope, PickWidth());
    if (lvalue == nullptr) {
      return;
    }
    const uint32_t width = lvalue->kind() == ExprKind::kSlice
                               ? LValueWidth(*lvalue)
                               : WidthOfSlotLValue(scope, *lvalue);
    block.Append(std::make_unique<AssignStmt>(std::move(lvalue),
                                              GenBitExpr(scope, width, 2, allow_calls)));
  }

  uint32_t WidthOfSlotLValue(const std::vector<Slot>& scope, const Expr& lvalue) const {
    // Reconstruct the dotted path and look it up.
    std::vector<std::string> path;
    const Expr* current = &lvalue;
    while (current->kind() == ExprKind::kMember) {
      path.insert(path.begin(), static_cast<const MemberExpr&>(*current).member());
      current = &static_cast<const MemberExpr&>(*current).base();
    }
    GAUNTLET_BUG_CHECK(current->kind() == ExprKind::kPath, "unexpected l-value shape");
    path.insert(path.begin(), static_cast<const PathExpr&>(*current).name());
    for (const Slot& slot : scope) {
      if (slot.path == path) {
        return slot.type->width();
      }
    }
    GAUNTLET_BUG_CHECK(false, "generated l-value not found in scope");
    return 0;
  }

  // Emits `bit<w> tmp = e; f(.., tmp, ..);` where tmp's only use is the
  // call's inout/out argument — the exact def-use pattern of Fig. 5a.
  bool TryEmitDefUseFodder(BlockStmt& apply, std::vector<Slot>& scope) {
    std::vector<const FunctionDecl*> candidates;
    for (const DeclPtr& decl : program_->decls()) {
      if (decl->kind() != DeclKind::kFunction) {
        continue;
      }
      const auto& function = static_cast<const FunctionDecl&>(*decl);
      for (const Param& param : function.params()) {
        if (param.direction != Direction::kIn) {
          candidates.push_back(&function);
          break;
        }
      }
    }
    if (candidates.empty()) {
      return false;
    }
    const FunctionDecl* function = rng_.PickFrom(candidates);
    // Fresh temporary bound to the first non-in parameter.
    std::string temp_name;
    std::vector<ExprPtr> args;
    for (const Param& param : function->params()) {
      if (param.direction != Direction::kIn && temp_name.empty()) {
        temp_name = Fresh("v");
        apply.Append(std::make_unique<VarDeclStmt>(
            temp_name, param.type, GenBitExpr(scope, param.type->width(), 2, false)));
        args.push_back(MakePath(temp_name));
        continue;
      }
      if (param.direction == Direction::kIn) {
        args.push_back(GenBitExpr(scope, param.type->width(), 1, false));
        continue;
      }
      ExprPtr lvalue = PickWritableLValue(scope, param.type->width());
      if (lvalue == nullptr) {
        return false;  // partially emitted temp decl stays; harmless
      }
      args.push_back(std::move(lvalue));
    }
    apply.Append(std::make_unique<CallStmt>(std::make_unique<CallExpr>(
        CallKind::kFunction, function->name(), nullptr, std::move(args))));
    // Deliberately do NOT add the temp to the scope: its only use is the
    // call argument, which is what the buggy SimplifyDefUse ignores.
    return true;
  }

  // Emits `bit<w> s = e; x = f(s, ..) - f(s, ..);` — two calls to an
  // accumulator-shaped function sharing the inout argument `s`, so the
  // calls observe each other's mutation and their evaluation order is
  // visible in the difference (the §7.2 argument-order bug class).
  // Subtraction (not xor/add) keeps the two orders from cancelling out.
  bool TryEmitOrderFodder(BlockStmt& apply, std::vector<Slot>& scope) {
    if (accumulator_functions_.empty()) {
      return false;
    }
    const std::string& chosen = rng_.PickFrom(accumulator_functions_);
    const FunctionDecl* function = nullptr;
    for (const DeclPtr& decl : program_->decls()) {
      if (decl->kind() == DeclKind::kFunction && decl->name() == chosen) {
        function = static_cast<const FunctionDecl*>(decl.get());
        break;
      }
    }
    if (function == nullptr) {
      return false;
    }
    const uint32_t width = function->return_type()->width();
    ExprPtr target = PickWritableLValue(scope, width);
    if (target == nullptr) {
      return false;
    }
    const std::string shared = Fresh("s");
    apply.Append(std::make_unique<VarDeclStmt>(shared, function->params()[0].type,
                                               GenBitExpr(scope, width, 2, false)));
    auto make_call = [&]() -> ExprPtr {
      std::vector<ExprPtr> args;
      args.push_back(MakePath(shared));
      for (size_t j = 1; j < function->params().size(); ++j) {
        const Param& param = function->params()[j];
        if (param.direction == Direction::kIn) {
          args.push_back(GenBitExpr(scope, param.type->width(), 1, false));
          continue;
        }
        ExprPtr lvalue = PickWritableLValue(scope, param.type->width());
        if (lvalue == nullptr) {
          return nullptr;
        }
        args.push_back(std::move(lvalue));
      }
      return std::make_unique<CallExpr>(CallKind::kFunction, function->name(), nullptr,
                                        std::move(args));
    };
    ExprPtr first = make_call();
    ExprPtr second = make_call();
    if (first == nullptr || second == nullptr) {
      return false;
    }
    apply.Append(std::make_unique<AssignStmt>(
        std::move(target),
        MakeBinary(BinaryOp::kSub, std::move(first), std::move(second))));
    Slot slot;
    slot.path = {shared};
    slot.type = function->params()[0].type;
    slot.writable = true;
    scope.push_back(std::move(slot));
    return true;
  }

  // Emits `if (<cond>) { x = f(..); }` — a call nested under a branch, the
  // exact shape the seeded InlineFunctions fault leaves uninlined (the back
  // end then asserts on the residual call).
  bool TryEmitNestedCallFodder(BlockStmt& apply, std::vector<Slot>& scope) {
    std::vector<const FunctionDecl*> functions;
    for (const DeclPtr& decl : program_->decls()) {
      if (decl->kind() == DeclKind::kFunction) {
        functions.push_back(static_cast<const FunctionDecl*>(decl.get()));
      }
    }
    if (functions.empty()) {
      return false;
    }
    const FunctionDecl* function = rng_.PickFrom(functions);
    const uint32_t width = function->return_type()->width();
    ExprPtr target = PickWritableLValue(scope, width);
    if (target == nullptr) {
      return false;
    }
    std::vector<ExprPtr> args;
    for (const Param& param : function->params()) {
      if (param.direction == Direction::kIn) {
        args.push_back(GenBitExpr(scope, param.type->width(), 1, false));
        continue;
      }
      ExprPtr lvalue = PickWritableLValue(scope, param.type->width());
      if (lvalue == nullptr) {
        return false;
      }
      args.push_back(std::move(lvalue));
    }
    auto then_block = std::make_unique<BlockStmt>();
    then_block->Append(std::make_unique<AssignStmt>(
        std::move(target),
        std::make_unique<CallExpr>(CallKind::kFunction, function->name(), nullptr,
                                   std::move(args))));
    apply.Append(std::make_unique<IfStmt>(GenBoolExpr(scope, 2), std::move(then_block),
                                          nullptr));
    return true;
  }

  // Emits `bit<w> v = e; v[hi:lo] = e2; sink = v;` — a full store, a
  // disjoint partial overwrite, and a read. The Fig. 5d fault treats the
  // slice write as a full definition and deletes the first store.
  bool TryEmitSliceKillFodder(BlockStmt& apply, std::vector<Slot>& scope) {
    static const std::vector<uint32_t> widths = {4, 7, 8, 12, 16};
    const uint32_t width = rng_.PickFrom(widths);
    ExprPtr sink = PickWritableLValue(scope, width);
    if (sink == nullptr) {
      return false;
    }
    const std::string name = Fresh("v");
    const TypePtr type = Type::Bit(width);
    apply.Append(std::make_unique<VarDeclStmt>(name, type,
                                               GenBitExpr(scope, width, 2, false)));
    // Strict sub-range: the untouched bits keep the first store live.
    const uint32_t slice_width = 1 + static_cast<uint32_t>(rng_.Below(width - 1));
    const uint32_t lo = static_cast<uint32_t>(rng_.Below(width - slice_width + 1));
    apply.Append(std::make_unique<AssignStmt>(
        std::make_unique<SliceExpr>(MakePath(name), lo + slice_width - 1, lo),
        GenBitExpr(scope, slice_width, 1, false)));
    apply.Append(std::make_unique<AssignStmt>(std::move(sink), MakePath(name)));
    Slot slot;
    slot.path = {name};
    slot.type = type;
    slot.writable = true;
    scope.push_back(std::move(slot));
    return true;
  }

  // Emits `bit<w> k = hdr.X.f; hdr.X.setValid(); <lvalue> = k;` — the copy
  // that the Fig. 5e fault propagates across the validity change.
  bool TryEmitValidityCopyFodder(BlockStmt& apply, std::vector<Slot>& scope) {
    if (header_names_.empty()) {
      return false;
    }
    const std::string& header = rng_.PickFrom(header_names_);
    const TypePtr header_type = program_->FindType("Hdr")->FindField(header)->type;
    if (header_type->fields().empty()) {
      return false;
    }
    const Type::Field& field = rng_.PickFrom(header_type->fields());
    ExprPtr sink = PickWritableLValue(scope, field.type->width());
    if (sink == nullptr) {
      return false;
    }
    const std::string temp = Fresh("k");
    apply.Append(std::make_unique<VarDeclStmt>(
        temp, field.type,
        MakeMember(MakeMember(MakePath("hdr"), header), field.name)));
    apply.Append(std::make_unique<CallStmt>(std::make_unique<CallExpr>(
        rng_.Chance(70) ? CallKind::kSetValid : CallKind::kSetInvalid, "setValid",
        MakeMember(MakePath("hdr"), header), std::vector<ExprPtr>{})));
    apply.Append(std::make_unique<AssignStmt>(std::move(sink), MakePath(temp)));
    Slot slot;
    slot.path = {temp};
    slot.type = field.type;
    slot.writable = true;
    scope.push_back(std::move(slot));
    return true;
  }

  void GenApplyStatement(BlockStmt& apply, std::vector<Slot>& scope,
                         const std::vector<const ActionDecl*>& direct_actions,
                         const std::vector<std::string>& table_names, size_t& next_table) {
    // Dedicated bug-class fodder shapes, emitted with small probability so
    // campaigns can reach every seeded fault (§4.1: "we can steer the
    // generator towards the language constructs we want to focus on").
    if (rng_.Chance(12) && TryEmitDefUseFodder(apply, scope)) {
      return;
    }
    if (rng_.Chance(10) && TryEmitOrderFodder(apply, scope)) {
      return;
    }
    if (rng_.Chance(10) && TryEmitValidityCopyFodder(apply, scope)) {
      return;
    }
    if (rng_.Chance(8) && TryEmitNestedCallFodder(apply, scope)) {
      return;
    }
    if (rng_.Chance(8) && TryEmitSliceKillFodder(apply, scope)) {
      return;
    }
    switch (rng_.Below(8)) {
      case 0: {  // local variable declaration
        const std::string name = Fresh("v");
        const TypePtr type = Type::Bit(PickWidth());
        ExprPtr init;
        if (!rng_.Chance(options_.p_uninitialized_var)) {
          init = GenBitExpr(scope, type->width(), 2, true);
        }
        apply.Append(std::make_unique<VarDeclStmt>(name, type, std::move(init)));
        Slot slot;
        slot.path = {name};
        slot.type = type;
        slot.writable = true;
        scope.push_back(std::move(slot));
        return;
      }
      case 1: {  // table apply (in declaration order)
        if (next_table < table_names.size()) {
          apply.Append(std::make_unique<CallStmt>(
              std::make_unique<CallExpr>(CallKind::kTableApply, table_names[next_table],
                                         nullptr, std::vector<ExprPtr>{})));
          ++next_table;
          return;
        }
        [[fallthrough]];
      }
      case 2: {  // direct action call (slice args, Fig. 5d/5f fodder)
        if (!direct_actions.empty()) {
          const ActionDecl* action = rng_.PickFrom(direct_actions);
          std::vector<ExprPtr> args;
          bool feasible = true;
          for (const Param& param : action->params()) {
            ExprPtr lvalue = PickWritableLValue(scope, param.type->width());
            if (lvalue == nullptr) {
              feasible = false;
              break;
            }
            args.push_back(std::move(lvalue));
          }
          if (feasible) {
            apply.Append(std::make_unique<CallStmt>(std::make_unique<CallExpr>(
                CallKind::kAction, action->name(), nullptr, std::move(args))));
            return;
          }
        }
        [[fallthrough]];
      }
      case 3: {  // validity operation (Fig. 5e fodder)
        if (rng_.Chance(options_.p_validity_ops)) {
          const std::string& header = rng_.PickFrom(header_names_);
          const CallKind kind = rng_.Chance(60) ? CallKind::kSetValid : CallKind::kSetInvalid;
          apply.Append(std::make_unique<CallStmt>(std::make_unique<CallExpr>(
              kind, kind == CallKind::kSetValid ? "setValid" : "setInvalid",
              MakeMember(MakePath("hdr"), header), std::vector<ExprPtr>{})));
          return;
        }
        [[fallthrough]];
      }
      case 4: {  // if with nested simple statements (may contain exit)
        auto then_block = std::make_unique<BlockStmt>();
        // Calls inside branches are InlineFunctions fodder (the seeded
        // skip-nested-call crash only fires on calls under an if).
        AppendAssignment(*then_block, scope, /*allow_calls=*/rng_.Chance(40));
        if (rng_.Chance(15)) {
          then_block->Append(std::make_unique<ExitStmt>());
        }
        StmtPtr else_block;
        if (rng_.Chance(40)) {
          auto block = std::make_unique<BlockStmt>();
          AppendAssignment(*block, scope);
          else_block = std::move(block);
        }
        apply.Append(std::make_unique<IfStmt>(GenBoolExpr(scope, 2), std::move(then_block),
                                              std::move(else_block)));
        return;
      }
      default: {  // plain assignment (may contain function calls)
        ExprPtr lvalue = PickWritableLValue(scope, PickWidth());
        if (lvalue == nullptr) {
          return;
        }
        const uint32_t width = lvalue->kind() == ExprKind::kSlice
                                   ? LValueWidth(*lvalue)
                                   : WidthOfSlotLValue(scope, *lvalue);
        apply.Append(std::make_unique<AssignStmt>(std::move(lvalue),
                                                  GenBitExpr(scope, width, 3, true)));
        return;
      }
    }
  }

  // --- egress ---

  // A lighter match-action block between ingress and deparser: a couple of
  // actions, at most one table, a few apply statements. Exercises the
  // pipeline glue (ingress outputs feeding egress inputs) in translation
  // validation and test generation — the v1model has six programmable
  // blocks, and bugs can hide in any of them.
  void GenerateEgress() {
    std::vector<Param> params;
    params.push_back(Param{Direction::kInOut, hdr_type_, "hdr"});
    std::vector<DeclPtr> locals;
    std::vector<Slot> scope = HeaderSlots(/*writable=*/true);

    std::vector<std::string> table_action_names;
    std::vector<const ActionDecl*> direct_actions;
    const int action_count = static_cast<int>(rng_.Range(1, 2));
    for (int i = 0; i < action_count; ++i) {
      const bool direct = rng_.Chance(options_.p_direct_action);
      DeclPtr action = direct ? GenDirectAction(scope) : GenTableAction(scope);
      if (!direct) {
        table_action_names.push_back(action->name());
      } else {
        direct_actions.push_back(static_cast<const ActionDecl*>(action.get()));
      }
      locals.push_back(std::move(action));
    }

    std::vector<std::string> table_names;
    if (!table_action_names.empty() && rng_.Chance(50)) {
      const std::string name = Fresh("t");
      std::vector<TableKey> keys;
      const std::vector<Slot> header_scope = HeaderSlots(false);
      TableKey key;
      key.expr = SlotExpr(rng_.PickFrom(header_scope));
      key.match_kind = "exact";
      keys.push_back(std::move(key));
      std::vector<std::string> actions = table_action_names;
      actions.push_back("NoAction");
      locals.push_back(std::make_unique<TableDecl>(name, std::move(keys), std::move(actions),
                                                   "NoAction", std::vector<ExprPtr>{}));
      table_names.push_back(name);
    }

    auto apply = std::make_unique<BlockStmt>();
    std::vector<Slot> apply_scope = scope;
    const int statement_count = static_cast<int>(rng_.Range(1, 4));
    size_t next_table = 0;
    for (int i = 0; i < statement_count; ++i) {
      GenApplyStatement(*apply, apply_scope, direct_actions, table_names, next_table);
    }
    for (; next_table < table_names.size(); ++next_table) {
      apply->Append(std::make_unique<CallStmt>(
          std::make_unique<CallExpr>(CallKind::kTableApply, table_names[next_table], nullptr,
                                     std::vector<ExprPtr>{})));
    }
    program_->AddDecl(std::make_unique<ControlDecl>("eg", std::move(params), std::move(locals),
                                                    std::move(apply)));
  }

  // --- deparser ---

  void GenerateDeparser() {
    std::vector<Param> params;
    params.push_back(Param{Direction::kIn, hdr_type_, "hdr"});
    auto apply = std::make_unique<BlockStmt>();
    for (const std::string& header : header_names_) {
      auto call = std::make_unique<CallExpr>(CallKind::kEmit, "pkt",
                                             MakeMember(MakePath("hdr"), header),
                                             std::vector<ExprPtr>{});
      apply->Append(std::make_unique<CallStmt>(std::move(call)));
    }
    program_->AddDecl(std::make_unique<ControlDecl>("dp", std::move(params),
                                                    std::vector<DeclPtr>{}, std::move(apply)));
  }

  const GeneratorOptions& options_;
  Rng& rng_;
  ProgramPtr program_;
  TypePtr hdr_type_;
  std::vector<std::string> header_names_;
  std::vector<std::string> accumulator_functions_;
  int name_counter_ = 0;
};

}  // namespace

ProgramGenerator::ProgramGenerator(GeneratorOptions options)
    : options_(options), rng_(options.seed) {}

ProgramPtr ProgramGenerator::Generate() {
  Builder builder(options_, rng_);
  ProgramPtr program = builder.Build();
  // Self-check (§4.2): the generator must only emit programs that pass the
  // (clean) type checker; a rejection is a bug in the generator itself.
  // Checking in place also injects the implicit NoAction declaration.
  try {
    TypeCheck(*program);
  } catch (const std::exception& error) {
    throw CompilerBugError(std::string("program generator produced an ill-typed program: ") +
                           error.what());
  }
  ++program_counter_;
  return program;
}

// --- construct census ------------------------------------------------------

namespace {

// Best-effort bit width of an expression. Generated programs are typed by
// construction, but the census also runs on replayed/cloned trees where
// type() may be unset; fall back to structural hints instead of asserting.
uint32_t ApproxWidth(const Expr& expr) {
  if (expr.type() != nullptr && expr.type()->IsBit()) {
    return expr.type()->width();
  }
  switch (expr.kind()) {
    case ExprKind::kConstant:
      return static_cast<const ConstantExpr&>(expr).value().width();
    case ExprKind::kSlice: {
      const auto& slice = static_cast<const SliceExpr&>(expr);
      return slice.hi() - slice.lo() + 1;
    }
    case ExprKind::kCast: {
      const TypePtr& target = static_cast<const CastExpr&>(expr).target();
      return target != nullptr && target->IsBit() ? target->width() : 0;
    }
    default:
      return 0;
  }
}

class CensusWalker {
 public:
  explicit CensusWalker(ProgramConstructCensus& census) : census_(census) {}

  void Expr_(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::kConstant:
      case ExprKind::kBoolConst:
      case ExprKind::kPath:
        break;
      case ExprKind::kMember:
        Expr_(static_cast<const MemberExpr&>(expr).base());
        break;
      case ExprKind::kSlice:
        ++census_.slice_exprs;
        Expr_(static_cast<const SliceExpr&>(expr).base());
        break;
      case ExprKind::kUnary:
        Expr_(static_cast<const UnaryExpr&>(expr).operand());
        break;
      case ExprKind::kBinary: {
        const auto& binary = static_cast<const BinaryExpr&>(expr);
        const bool arith = !IsBooleanResult(binary.op());
        if (binary.op() == BinaryOp::kShl || binary.op() == BinaryOp::kShr) {
          ++census_.shifts;
          if (binary.left().kind() == ExprKind::kConstant) {
            ++census_.const_shifts;
          }
        }
        if (binary.op() == BinaryOp::kConcat) {
          ++census_.concats;
        }
        if (arith && binary.left().kind() == ExprKind::kConstant &&
            binary.right().kind() == ExprKind::kConstant) {
          ++census_.const_arith;
        }
        if (arith && (ApproxWidth(expr) > 32 || ApproxWidth(binary.left()) > 32)) {
          ++census_.wide_arith_ops;
          if (binary.op() == BinaryOp::kMul) {
            ++census_.wide_multiplies;
          }
        }
        Expr_(binary.left());
        Expr_(binary.right());
        break;
      }
      case ExprKind::kMux: {
        const auto& mux = static_cast<const MuxExpr&>(expr);
        ++census_.muxes;
        Expr_(mux.cond());
        Expr_(mux.then_expr());
        Expr_(mux.else_expr());
        break;
      }
      case ExprKind::kCast:
        ++census_.casts;
        Expr_(static_cast<const CastExpr&>(expr).operand());
        break;
      case ExprKind::kCall:
        Call(static_cast<const CallExpr&>(expr));
        break;
    }
  }

  void Call(const CallExpr& call) {
    switch (call.call_kind()) {
      case CallKind::kFunction:
        ++census_.function_calls;
        break;
      case CallKind::kAction:
        ++census_.direct_action_calls;
        break;
      case CallKind::kTableApply:
        ++census_.table_applies;
        break;
      case CallKind::kSetValid:
      case CallKind::kSetInvalid:
        ++census_.validity_ops;
        break;
      case CallKind::kIsValid:
        ++census_.isvalid_calls;
        break;
      case CallKind::kExtract:
        ++census_.parser_extracts;
        break;
      case CallKind::kEmit:
        ++census_.emits;
        break;
    }
    for (const ExprPtr& arg : call.args()) {
      if (arg->kind() == ExprKind::kSlice) {
        ++census_.slice_args;
      }
      Expr_(*arg);
    }
  }

  void Stmt_(const Stmt& stmt, bool in_action) {
    switch (stmt.kind()) {
      case StmtKind::kBlock:
        for (const StmtPtr& child : static_cast<const BlockStmt&>(stmt).statements()) {
          Stmt_(*child, in_action);
        }
        break;
      case StmtKind::kAssign: {
        const auto& assign = static_cast<const AssignStmt&>(stmt);
        ++census_.assignments;
        if (assign.target().kind() == ExprKind::kSlice) {
          ++census_.slice_writes;
        }
        Expr_(assign.target());
        Expr_(assign.value());
        break;
      }
      case StmtKind::kIf: {
        const auto& branch = static_cast<const IfStmt&>(stmt);
        ++census_.if_statements;
        if (branch.else_branch() != nullptr) {
          ++census_.if_with_else;
        }
        Expr_(branch.cond());
        Stmt_(branch.then_branch(), in_action);
        if (branch.else_branch() != nullptr) {
          Stmt_(*branch.else_branch(), in_action);
        }
        break;
      }
      case StmtKind::kVarDecl: {
        const auto& decl = static_cast<const VarDeclStmt&>(stmt);
        if (decl.init() == nullptr) {
          ++census_.uninitialized_vars;
        } else {
          Expr_(*decl.init());
        }
        break;
      }
      case StmtKind::kCall:
        Call(static_cast<const CallStmt&>(stmt).call());
        break;
      case StmtKind::kExit:
        if (in_action) {
          ++census_.exits_in_actions;
        }
        break;
      case StmtKind::kReturn: {
        const Expr* value = static_cast<const ReturnStmt&>(stmt).value();
        if (value != nullptr) {
          Expr_(*value);
        }
        break;
      }
      case StmtKind::kEmpty:
        break;
    }
  }

  void Decl_(const Decl& decl) {
    switch (decl.kind()) {
      case DeclKind::kAction: {
        const auto& action = static_cast<const ActionDecl&>(decl);
        ++census_.actions;
        if (!action.params().empty()) {
          ++census_.actions_with_params;
        }
        Stmt_(action.body(), /*in_action=*/true);
        break;
      }
      case DeclKind::kFunction:
        ++census_.functions;
        Stmt_(static_cast<const FunctionDecl&>(decl).body(), /*in_action=*/false);
        break;
      case DeclKind::kTable: {
        const auto& table = static_cast<const TableDecl&>(decl);
        ++census_.tables;
        if (table.keys().empty()) {
          ++census_.keyless_tables;
        }
        bool multi_byte_key = false;
        for (const TableKey& key : table.keys()) {
          Expr_(*key.expr);
          const uint32_t width = ApproxWidth(*key.expr);
          multi_byte_key = multi_byte_key || (width >= 16 && width % 8 == 0);
        }
        if (multi_byte_key) {
          ++census_.multi_byte_key_tables;
        }
        break;
      }
      case DeclKind::kControl: {
        const auto& control = static_cast<const ControlDecl&>(decl);
        for (const DeclPtr& local : control.locals()) {
          Decl_(*local);
        }
        Stmt_(control.apply(), /*in_action=*/false);
        break;
      }
      case DeclKind::kParser: {
        const auto& parser = static_cast<const ParserDecl&>(decl);
        for (const ParserState& state : parser.states()) {
          ++census_.parser_states;
          if (state.select_expr != nullptr) {
            ++census_.parser_selects;
            Expr_(*state.select_expr);
          }
          for (const StmtPtr& stmt : state.statements) {
            Stmt_(*stmt, /*in_action=*/false);
          }
        }
        break;
      }
    }
  }

 private:
  ProgramConstructCensus& census_;
};

}  // namespace

ProgramConstructCensus CensusProgram(const Program& program) {
  ProgramConstructCensus census;
  CensusWalker walker(census);
  for (const TypePtr& type : program.type_decls()) {
    if (type->IsHeader()) {
      ++census.headers;
      census.header_fields += static_cast<int>(type->fields().size());
      if (type->fields().size() >= 2) {
        ++census.multi_field_headers;
      }
    }
  }
  for (const DeclPtr& decl : program.decls()) {
    walker.Decl_(*decl);
  }
  census.has_egress = program.FindBlock(BlockRole::kEgress) != nullptr;
  return census;
}

void RecordConstructCoverage(const ProgramConstructCensus& census) {
  if (CurrentMetrics() == nullptr) {
    return;
  }
  const auto point = [](std::string_view name, int count) {
    CoverPoint("gen-construct", name, static_cast<uint64_t>(count));
  };
  point("program", 1);
  point("header", census.headers);
  point("header-field", census.header_fields);
  point("header-multi-field", census.multi_field_headers);
  point("function", census.functions);
  point("action", census.actions);
  point("action-with-params", census.actions_with_params);
  point("table", census.tables);
  point("table-keyless", census.keyless_tables);
  point("table-multi-byte-key", census.multi_byte_key_tables);
  point("assignment", census.assignments);
  point("if", census.if_statements);
  point("if-else", census.if_with_else);
  point("exit-in-action", census.exits_in_actions);
  point("validity-op", census.validity_ops);
  point("isvalid", census.isvalid_calls);
  point("uninitialized-var", census.uninitialized_vars);
  point("shift", census.shifts);
  point("const-shift", census.const_shifts);
  point("const-arith", census.const_arith);
  point("slice", census.slice_exprs);
  point("slice-write", census.slice_writes);
  point("slice-arg", census.slice_args);
  point("function-call", census.function_calls);
  point("direct-action-call", census.direct_action_calls);
  point("table-apply", census.table_applies);
  point("wide-arith", census.wide_arith_ops);
  point("wide-multiply", census.wide_multiplies);
  point("mux", census.muxes);
  point("cast", census.casts);
  point("concat", census.concats);
  point("emit", census.emits);
  point("parser-state", census.parser_states);
  point("parser-select", census.parser_selects);
  point("parser-extract", census.parser_extracts);
  point("egress-block", census.has_egress ? 1 : 0);
}

}  // namespace gauntlet
