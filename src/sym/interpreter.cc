#include "src/sym/interpreter.h"

#include "src/support/error.h"
#include "src/table/table_model.h"

namespace gauntlet {

namespace {

// Shared implementation state for interpreting one block.
class InterpreterImpl {
 public:
  InterpreterImpl(SmtContext& context, const Program& program, const std::string& prefix,
                  size_t table_entries)
      : ctx_(context), program_(program), prefix_(prefix), table_entries_(table_entries) {
    exited_ = ctx_.False();
  }

  BlockSemantics InterpretControl(const ControlDecl& control, bool is_deparser) {
    current_control_ = &control;
    in_deparser_ = is_deparser;
    env_.PushLayer();
    BindBlockParams(control.params());
    frames_.push_back(Frame{ctx_.False(), SmtRef{}, nullptr});
    env_.PushLayer();  // apply-body scope
    ExecBlock(control.apply(), ctx_.True());
    env_.PopLayer();
    frames_.pop_back();
    CollectParamOutputs(control.params());
    CollectEmitOutputs();
    result_.outputs.emplace_back("$exited", exited_);
    return std::move(result_);
  }

  BlockSemantics InterpretParser(const ParserDecl& parser) {
    current_parser_ = &parser;
    env_.PushLayer();
    // Parser out-params start with invalid headers and undefined scalars.
    for (const Param& param : parser.params()) {
      SymValue value = MakeUndefValue(*param.type, /*headers_invalid=*/true);
      env_.Bind(param.name, std::move(value));
    }
    frames_.push_back(Frame{ctx_.False(), SmtRef{}, nullptr});
    reject_ = ctx_.False();
    RunParserState("start", ctx_.True(), 0, 0);
    frames_.pop_back();
    CollectParamOutputs(parser.params());
    result_.outputs.emplace_back("$reject", reject_);
    return std::move(result_);
  }

 private:
  struct Frame {
    SmtRef returned;
    SmtRef ret_value;          // accumulated return value (invalid if void/none yet)
    const TypePtr* ret_type;   // null for actions / top level
  };

  // --- setup helpers ---

  // Builds a symbolic input value whose leaves are free variables named by
  // field path, and records them as block inputs.
  SymValue MakeInputValue(const Type& type, const std::string& path) {
    SymValue value;
    value.type = type.IsBit()    ? Type::Bit(type.width())
                 : type.IsBool() ? Type::Bool()
                                 : nullptr;
    if (type.IsBit()) {
      value.scalar = ctx_.Var(prefix_ + path, type.width());
      result_.input_vars.push_back(prefix_ + path);
      return value;
    }
    if (type.IsBool()) {
      value.scalar = ctx_.BoolVar(prefix_ + path);
      result_.input_vars.push_back(prefix_ + path);
      return value;
    }
    // Struct-like: rebuild with the program's interned type.
    value.type = program_.FindType(type.name());
    GAUNTLET_BUG_CHECK(value.type != nullptr, "unknown struct type in MakeInputValue");
    for (const Type::Field& field : type.fields()) {
      value.fields.emplace_back(field.name, MakeInputValue(*field.type, path + "." + field.name));
    }
    if (type.IsHeader()) {
      value.valid = ctx_.BoolVar(prefix_ + path + ".$valid");
      result_.input_vars.push_back(prefix_ + path + ".$valid");
    }
    return value;
  }

  // Builds an undefined value: fresh "undef<N>" variables at every leaf.
  SymValue MakeUndefValue(const Type& type, bool headers_invalid) {
    SymValue value;
    if (type.IsBit()) {
      value.type = Type::Bit(type.width());
      value.scalar = FreshUndef(type.width());
      return value;
    }
    if (type.IsBool()) {
      value.type = Type::Bool();
      value.scalar = FreshUndefBool();
      return value;
    }
    value.type = program_.FindType(type.name());
    GAUNTLET_BUG_CHECK(value.type != nullptr, "unknown struct type in MakeUndefValue");
    for (const Type::Field& field : type.fields()) {
      value.fields.emplace_back(field.name, MakeUndefValue(*field.type, headers_invalid));
    }
    if (type.IsHeader()) {
      value.valid = headers_invalid ? ctx_.False() : FreshUndefBool();
    }
    return value;
  }

  // Undefined values are numbered in interpretation order so that both
  // sides of a translation-validation pair allocate matching names; the
  // width suffix keeps misaligned allocation orders (a pass that reorders
  // or deletes undefined declarations) from colliding — they simply become
  // independent variables and fall into the undef-divergence class. The
  // context marks each one undefined, which is what PinUndefinedValues
  // reads: the name is only a label.
  SmtRef FreshUndef(uint32_t width) {
    return ctx_.Var(prefix_ + "undef" + std::to_string(undef_counter_++) + "w" +
                        std::to_string(width),
                    width, /*undefined=*/true);
  }
  SmtRef FreshUndefBool() {
    return ctx_.BoolVar(prefix_ + "undef" + std::to_string(undef_counter_++) + "b",
                        /*undefined=*/true);
  }

  void BindBlockParams(const std::vector<Param>& params) {
    for (const Param& param : params) {
      if (param.direction == Direction::kOut) {
        env_.Bind(param.name, MakeUndefValue(*param.type, /*headers_invalid=*/false));
      } else {
        env_.Bind(param.name, MakeInputValue(*param.type, param.name));
      }
    }
  }

  // --- output collection ---

  void FlattenOutput(const SymValue& value, const std::string& path, SmtRef invalid_mask) {
    if (value.IsScalar()) {
      SmtRef leaf = value.scalar;
      if (invalid_mask.IsValid()) {
        // Fields of invalid headers are canonicalized to zero/false in the
        // block output (paper section 5.2, "Header validity").
        if (value.type->IsBit()) {
          leaf = ctx_.Ite(invalid_mask, leaf, ctx_.Const(value.type->width(), 0));
        } else {
          leaf = ctx_.BoolIte(invalid_mask, leaf, ctx_.False());
        }
      }
      result_.outputs.emplace_back(path, leaf);
      return;
    }
    SmtRef mask = invalid_mask;
    if (value.type->IsHeader()) {
      result_.outputs.emplace_back(path + ".$valid", value.valid);
      mask = mask.IsValid() ? ctx_.BoolAnd(mask, value.valid) : value.valid;
    }
    for (const auto& [name, field] : value.fields) {
      FlattenOutput(field, path + "." + name, mask);
    }
  }

  void CollectParamOutputs(const std::vector<Param>& params) {
    for (const Param& param : params) {
      if (param.direction == Direction::kInOut || param.direction == Direction::kOut) {
        const SymValue* value = env_.Find(param.name);
        GAUNTLET_BUG_CHECK(value != nullptr, "lost block parameter");
        FlattenOutput(*value, param.name, SmtRef{});
      }
    }
  }

  void CollectEmitOutputs() {
    for (const auto& [name, ref] : emits_) {
      result_.outputs.emplace_back(name, ref);
    }
  }

  // --- guards ---

  SmtRef EffectiveGuard(SmtRef path_guard) {
    SmtRef guard = ctx_.BoolAnd(path_guard, ctx_.BoolNot(exited_));
    return ctx_.BoolAnd(guard, ctx_.BoolNot(frames_.back().returned));
  }

  // --- l-values ---

  struct LValueSlot {
    SymValue* leaf = nullptr;  // scalar SymValue being written
    bool is_slice = false;
    uint32_t hi = 0;
    uint32_t lo = 0;
  };

  SymValue* ResolveValue(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::kPath: {
        SymValue* value = env_.Find(static_cast<const PathExpr&>(expr).name());
        GAUNTLET_BUG_CHECK(value != nullptr,
                           "unbound variable '" + static_cast<const PathExpr&>(expr).name() +
                               "' at interpretation time");
        return value;
      }
      case ExprKind::kMember: {
        const auto& member = static_cast<const MemberExpr&>(expr);
        SymValue* base = ResolveValue(member.base());
        SymValue* field = base->FindField(member.member());
        GAUNTLET_BUG_CHECK(field != nullptr, "missing field at interpretation time");
        return field;
      }
      default:
        GAUNTLET_BUG_CHECK(false, "not a resolvable l-value shape");
        return nullptr;
    }
  }

  LValueSlot ResolveLValue(const Expr& expr) {
    LValueSlot slot;
    if (expr.kind() == ExprKind::kSlice) {
      const auto& slice = static_cast<const SliceExpr&>(expr);
      slot.leaf = ResolveValue(slice.base());
      slot.is_slice = true;
      slot.hi = slice.hi();
      slot.lo = slice.lo();
    } else {
      slot.leaf = ResolveValue(expr);
    }
    GAUNTLET_BUG_CHECK(slot.leaf->IsScalar(), "assignment to non-scalar l-value");
    return slot;
  }

  // Splices `value` into bits [hi:lo] of `old`.
  SmtRef SpliceBits(SmtRef old_value, uint32_t hi, uint32_t lo, SmtRef value) {
    const uint32_t width = ctx_.WidthOf(old_value);
    SmtRef result = value;
    if (hi + 1 < width) {
      result = ctx_.Concat(ctx_.Extract(old_value, width - 1, hi + 1), result);
    }
    if (lo > 0) {
      result = ctx_.Concat(result, ctx_.Extract(old_value, lo - 1, 0));
    }
    return result;
  }

  void WriteLValue(const Expr& target, SmtRef value, SmtRef guard) {
    LValueSlot slot = ResolveLValue(target);
    if (slot.is_slice) {
      const SmtRef updated = SpliceBits(slot.leaf->scalar, slot.hi, slot.lo, value);
      slot.leaf->scalar = ctx_.Ite(guard, updated, slot.leaf->scalar);
      return;
    }
    if (slot.leaf->type->IsBool()) {
      slot.leaf->scalar = ctx_.BoolIte(guard, value, slot.leaf->scalar);
    } else {
      slot.leaf->scalar = ctx_.Ite(guard, value, slot.leaf->scalar);
    }
  }

  // --- expression evaluation (may perform calls with side effects) ---

  SmtRef Eval(const Expr& expr, SmtRef guard) {
    switch (expr.kind()) {
      case ExprKind::kConstant:
        return ctx_.Const(static_cast<const ConstantExpr&>(expr).value());
      case ExprKind::kBoolConst:
        return ctx_.BoolConst(static_cast<const BoolConstExpr&>(expr).value());
      case ExprKind::kPath:
      case ExprKind::kMember: {
        const SymValue* value = ResolveValue(expr);
        GAUNTLET_BUG_CHECK(value->IsScalar(), "reading non-scalar value");
        return value->scalar;
      }
      case ExprKind::kSlice: {
        const auto& slice = static_cast<const SliceExpr&>(expr);
        return ctx_.Extract(Eval(slice.base(), guard), slice.hi(), slice.lo());
      }
      case ExprKind::kUnary: {
        const auto& unary = static_cast<const UnaryExpr&>(expr);
        const SmtRef operand = Eval(unary.operand(), guard);
        switch (unary.op()) {
          case UnaryOp::kComplement:
            return ctx_.Not(operand);
          case UnaryOp::kNegate:
            return ctx_.Neg(operand);
          case UnaryOp::kLogicalNot:
            return ctx_.BoolNot(operand);
        }
        break;
      }
      case ExprKind::kBinary:
        return EvalBinary(static_cast<const BinaryExpr&>(expr), guard);
      case ExprKind::kMux: {
        const auto& mux = static_cast<const MuxExpr&>(expr);
        const SmtRef cond = Eval(mux.cond(), guard);
        const SmtRef then_ref = Eval(mux.then_expr(), guard);
        const SmtRef else_ref = Eval(mux.else_expr(), guard);
        if (mux.type() != nullptr && mux.type()->IsBool()) {
          return ctx_.BoolIte(cond, then_ref, else_ref);
        }
        return ctx_.Ite(cond, then_ref, else_ref);
      }
      case ExprKind::kCast: {
        const auto& cast = static_cast<const CastExpr&>(expr);
        return ctx_.Resize(Eval(cast.operand(), guard), cast.target()->width());
      }
      case ExprKind::kCall: {
        const auto& call = static_cast<const CallExpr&>(expr);
        if (call.call_kind() == CallKind::kIsValid) {
          const SymValue* header = ResolveValue(*call.receiver());
          GAUNTLET_BUG_CHECK(header->type->IsHeader(), "isValid on non-header");
          return header->valid;
        }
        GAUNTLET_BUG_CHECK(call.call_kind() == CallKind::kFunction,
                           "unexpected call kind in expression");
        const FunctionDecl* function = program_.FindFunction(call.callee());
        GAUNTLET_BUG_CHECK(function != nullptr, "unknown function at interpretation time");
        return ExecCall(function->params(), function->body(), call.args(), guard,
                        &function->return_type());
      }
    }
    GAUNTLET_BUG_CHECK(false, "unhandled expression in symbolic interpreter");
    return SmtRef{};
  }

  SmtRef EvalBinary(const BinaryExpr& binary, SmtRef guard) {
    // P4 && and || short-circuit; because our expression fragment is free of
    // side effects in pure positions (the type checker confines calls with
    // effects to statements and argument positions), eager evaluation is
    // observationally equivalent.
    const SmtRef left = Eval(binary.left(), guard);
    const SmtRef right = Eval(binary.right(), guard);
    switch (binary.op()) {
      case BinaryOp::kAdd:
        return ctx_.Add(left, right);
      case BinaryOp::kSub:
        return ctx_.Sub(left, right);
      case BinaryOp::kMul:
        return ctx_.Mul(left, right);
      case BinaryOp::kBitAnd:
        return ctx_.And(left, right);
      case BinaryOp::kBitOr:
        return ctx_.Or(left, right);
      case BinaryOp::kBitXor:
        return ctx_.Xor(left, right);
      case BinaryOp::kShl:
        return ctx_.Shl(left, right);
      case BinaryOp::kShr:
        return ctx_.Shr(left, right);
      case BinaryOp::kConcat:
        return ctx_.Concat(left, right);
      case BinaryOp::kEq:
        return ctx_.Eq(left, right);
      case BinaryOp::kNe:
        return ctx_.BoolNot(ctx_.Eq(left, right));
      case BinaryOp::kLt:
        return ctx_.Ult(left, right);
      case BinaryOp::kLe:
        return ctx_.Ule(left, right);
      case BinaryOp::kGt:
        return ctx_.Ult(right, left);
      case BinaryOp::kGe:
        return ctx_.Ule(right, left);
      case BinaryOp::kLogicalAnd:
        return ctx_.BoolAnd(left, right);
      case BinaryOp::kLogicalOr:
        return ctx_.BoolOr(left, right);
    }
    GAUNTLET_BUG_CHECK(false, "unhandled binary op in symbolic interpreter");
    return SmtRef{};
  }

  // --- calls: copy-in/copy-out (P4-16 section 6.7) ---

  SmtRef ExecCall(const std::vector<Param>& params, const BlockStmt& body,
                  const std::vector<ExprPtr>& args, SmtRef path_guard,
                  const TypePtr* ret_type) {
    const SmtRef entry_guard = EffectiveGuard(path_guard);
    // Copy-in: evaluate arguments left-to-right.
    struct CopyOut {
      const Expr* lvalue;
      std::string param_name;
    };
    std::vector<CopyOut> copy_outs;
    std::vector<std::pair<std::string, SymValue>> bindings;
    for (size_t i = 0; i < params.size(); ++i) {
      const Param& param = params[i];
      SymValue bound;
      bound.type = param.type;
      if (param.direction == Direction::kOut) {
        bound = MakeUndefValue(*param.type, /*headers_invalid=*/false);
      } else {
        bound.scalar = Eval(*args[i], path_guard);
      }
      if (param.direction == Direction::kOut || param.direction == Direction::kInOut) {
        copy_outs.push_back(CopyOut{args[i].get(), param.name});
      }
      bindings.emplace_back(param.name, std::move(bound));
    }
    // New frame.
    env_.PushLayer();
    for (auto& [name, value] : bindings) {
      env_.Bind(name, std::move(value));
    }
    frames_.push_back(Frame{ctx_.False(), SmtRef{}, ret_type});
    ExecBlock(body, path_guard);
    SmtRef ret_value = frames_.back().ret_value;
    frames_.pop_back();
    // Copy-out (left-to-right), unconditionally on return OR exit — the
    // specification interpretation that resolved the Fig. 5f ambiguity:
    // exit inside an action still respects copy-in/copy-out. Snapshot the
    // final parameter values before dropping the frame, then write them back
    // into the caller's scope.
    std::vector<std::pair<const Expr*, SmtRef>> writebacks;
    writebacks.reserve(copy_outs.size());
    for (const CopyOut& copy_out : copy_outs) {
      const SymValue* param_value = env_.Find(copy_out.param_name);
      GAUNTLET_BUG_CHECK(param_value != nullptr && param_value->IsScalar(),
                         "copy-out of non-scalar parameter");
      writebacks.emplace_back(copy_out.lvalue, param_value->scalar);
    }
    env_.PopLayer();
    for (const auto& [lvalue, value] : writebacks) {
      WriteLValue(*lvalue, value, entry_guard);
    }
    return ret_value;
  }

  // Calls an action whose parameters are pre-bound values (table-invoked
  // actions with control-plane data, or the default action's constants).
  void ExecBoundAction(const ActionDecl& action,
                       std::vector<std::pair<std::string, SymValue>> bindings,
                       SmtRef path_guard) {
    env_.PushLayer();
    for (auto& [name, value] : bindings) {
      env_.Bind(name, std::move(value));
    }
    frames_.push_back(Frame{ctx_.False(), SmtRef{}, nullptr});
    ExecBlock(action.body(), path_guard);
    frames_.pop_back();
    env_.PopLayer();
  }

  // --- tables (paper Figure 3, generalized to N entries — src/table/) ---

  void ApplyTable(const TableDecl& table, SmtRef path_guard) {
    const SmtRef guard = EffectiveGuard(path_guard);
    GAUNTLET_BUG_CHECK(current_control_ != nullptr, "table applied outside a control");
    const TableModel model(*current_control_, table);

    // Key expressions evaluate once, in column order (their side effects —
    // there are none in the supported fragment — would land here).
    std::vector<SmtRef> key_values;
    key_values.reserve(table.keys().size());
    for (const TableKey& key : table.keys()) {
      key_values.push_back(Eval(*key.expr, path_guard));
    }
    SymbolicEntrySet entry_set(ctx_, model, prefix_, key_values, table_entries_);

    // Decision conditions, in evaluation order: which slot wins the lookup,
    // whether adjacent slots overlap on the key (the entry-shadowing
    // scenario), then which listed action the winner selects. Path
    // enumeration flipping these is what makes "hit the second installed
    // entry" and "two installed entries match this packet" ordinary
    // symbolic paths.
    for (const SymbolicTableEntry& entry : entry_set.info().entries) {
      result_.branch_conditions.push_back(ctx_.BoolAnd(guard, entry.win_condition));
      result_.branch_kinds.push_back("entry-win");
    }
    for (const SmtRef& overlap : entry_set.OverlapConditions()) {
      result_.branch_conditions.push_back(ctx_.BoolAnd(guard, overlap));
      result_.branch_kinds.push_back("entry-overlap");
    }

    SmtRef any_selected = ctx_.False();
    if (entry_set.size() > 0) {
      for (size_t i = 0; i < model.action_count(); ++i) {
        const ActionDecl& action = model.action(i);
        const SmtRef selected = entry_set.ActionSelected(i);
        result_.branch_conditions.push_back(ctx_.BoolAnd(guard, selected));
        result_.branch_kinds.push_back("action-select");
        // Control-plane action data: the winning slot's symbolic arguments.
        std::vector<std::pair<std::string, SymValue>> bindings;
        for (size_t p = 0; p < action.params().size(); ++p) {
          SymValue value;
          value.type = action.params()[p].type;
          value.scalar = entry_set.ActionDataValue(i, p);
          bindings.emplace_back(action.params()[p].name, std::move(value));
        }
        ExecBoundAction(action, std::move(bindings), ctx_.BoolAnd(path_guard, selected));
        any_selected = ctx_.BoolOr(any_selected, selected);
      }
    }

    // Miss — no slot wins (keyless tables never hit) — runs the default
    // action with its compile-time constant arguments.
    const ActionDecl& default_action = model.default_action();
    std::vector<std::pair<std::string, SymValue>> default_bindings;
    for (size_t i = 0; i < default_action.params().size(); ++i) {
      SymValue value;
      value.type = default_action.params()[i].type;
      value.scalar = Eval(*table.default_args()[i], path_guard);
      default_bindings.emplace_back(default_action.params()[i].name, std::move(value));
    }
    const SmtRef default_guard = ctx_.BoolAnd(path_guard, ctx_.BoolNot(any_selected));
    ExecBoundAction(default_action, std::move(default_bindings), default_guard);
    result_.tables.push_back(entry_set.TakeInfo());
  }

  const ActionDecl* FindAction(const std::string& name) const {
    GAUNTLET_BUG_CHECK(current_control_ != nullptr, "table applied outside a control");
    const Decl* local = current_control_->FindLocal(name);
    if (local != nullptr && local->kind() == DeclKind::kAction) {
      return static_cast<const ActionDecl*>(local);
    }
    return nullptr;
  }

  // --- statements ---

  void ExecBlock(const BlockStmt& block, SmtRef path_guard) {
    for (const StmtPtr& stmt : block.statements()) {
      ExecStmt(*stmt, path_guard);
    }
  }

  void ExecStmt(const Stmt& stmt, SmtRef path_guard) {
    switch (stmt.kind()) {
      case StmtKind::kBlock:
        ExecBlock(static_cast<const BlockStmt&>(stmt), path_guard);
        return;
      case StmtKind::kEmpty:
        return;
      case StmtKind::kAssign: {
        const auto& assign = static_cast<const AssignStmt&>(stmt);
        const SmtRef value = Eval(assign.value(), path_guard);
        WriteLValue(assign.target(), value, EffectiveGuard(path_guard));
        return;
      }
      case StmtKind::kVarDecl: {
        const auto& var_decl = static_cast<const VarDeclStmt&>(stmt);
        SymValue value;
        value.type = var_decl.var_type();
        if (var_decl.init() != nullptr) {
          value.scalar = Eval(*var_decl.init(), path_guard);
        } else {
          value.scalar = var_decl.var_type()->IsBool()
                             ? FreshUndefBool()
                             : FreshUndef(var_decl.var_type()->width());
        }
        env_.Bind(var_decl.name(), std::move(value));
        return;
      }
      case StmtKind::kIf: {
        const auto& if_stmt = static_cast<const IfStmt&>(stmt);
        const SmtRef cond = Eval(if_stmt.cond(), path_guard);
        result_.branch_conditions.push_back(ctx_.BoolAnd(EffectiveGuard(path_guard), cond));
        result_.branch_kinds.push_back("if");
        ExecStmt(if_stmt.then_branch(), ctx_.BoolAnd(path_guard, cond));
        if (if_stmt.else_branch() != nullptr) {
          ExecStmt(*if_stmt.else_branch(), ctx_.BoolAnd(path_guard, ctx_.BoolNot(cond)));
        }
        return;
      }
      case StmtKind::kExit: {
        exited_ = ctx_.BoolOr(exited_, EffectiveGuard(path_guard));
        return;
      }
      case StmtKind::kReturn: {
        const auto& return_stmt = static_cast<const ReturnStmt&>(stmt);
        Frame& frame = frames_.back();
        const SmtRef guard = EffectiveGuard(path_guard);
        if (return_stmt.value() != nullptr) {
          const SmtRef value = Eval(*return_stmt.value(), path_guard);
          if (!frame.ret_value.IsValid()) {
            frame.ret_value = value;
          } else if (frame.ret_type != nullptr && (*frame.ret_type)->IsBool()) {
            frame.ret_value = ctx_.BoolIte(guard, value, frame.ret_value);
          } else {
            frame.ret_value = ctx_.Ite(guard, value, frame.ret_value);
          }
        }
        frame.returned = ctx_.BoolOr(frame.returned, guard);
        return;
      }
      case StmtKind::kCall: {
        const auto& call = static_cast<const CallStmt&>(stmt).call();
        ExecCallStmt(call, path_guard);
        return;
      }
    }
  }

  void ExecCallStmt(const CallExpr& call, SmtRef path_guard) {
    switch (call.call_kind()) {
      case CallKind::kTableApply: {
        const Decl* local = current_control_->FindLocal(call.callee());
        GAUNTLET_BUG_CHECK(local != nullptr && local->kind() == DeclKind::kTable,
                           "unknown table at interpretation time");
        ApplyTable(static_cast<const TableDecl&>(*local), path_guard);
        return;
      }
      case CallKind::kSetValid: {
        SymValue* header = ResolveValue(*call.receiver());
        const SmtRef guard = EffectiveGuard(path_guard);
        const SmtRef was_valid = header->valid;
        // Newly validated headers have arbitrary field contents.
        const SmtRef scramble = ctx_.BoolAnd(guard, ctx_.BoolNot(was_valid));
        ScrambleFields(*header, scramble);
        header->valid = ctx_.BoolOr(was_valid, guard);
        return;
      }
      case CallKind::kSetInvalid: {
        SymValue* header = ResolveValue(*call.receiver());
        const SmtRef guard = EffectiveGuard(path_guard);
        header->valid = ctx_.BoolAnd(header->valid, ctx_.BoolNot(guard));
        return;
      }
      case CallKind::kEmit: {
        GAUNTLET_BUG_CHECK(in_deparser_, "emit outside deparser at interpretation time");
        SymValue* header = ResolveValue(*call.receiver());
        const SmtRef guard = EffectiveGuard(path_guard);
        const SmtRef active = ctx_.BoolAnd(guard, header->valid);
        const std::string site = "emit" + std::to_string(emit_counter_++);
        emits_.emplace_back(site + ".$valid", active);
        for (const auto& [field_name, field] : header->fields) {
          const SmtRef masked =
              ctx_.Ite(active, field.scalar, ctx_.Const(field.type->width(), 0));
          emits_.emplace_back(site + "." + field_name, masked);
        }
        return;
      }
      case CallKind::kExtract: {
        SymValue* header = ResolveValue(*call.receiver());
        const SmtRef guard = EffectiveGuard(path_guard);
        for (auto& [field_name, field] : header->fields) {
          const uint32_t width = field.type->width();
          const std::string var_name = prefix_ + "pkt[" + std::to_string(parse_offset_) +
                                       "+:" + std::to_string(width) + "]";
          const SmtRef packet_bits = ctx_.Var(var_name, width);
          result_.input_vars.push_back(var_name);
          field.scalar = ctx_.Ite(guard, packet_bits, field.scalar);
          parse_offset_ += width;
        }
        header->valid = ctx_.BoolOr(header->valid, guard);
        return;
      }
      case CallKind::kAction: {
        const ActionDecl* action = FindAction(call.callee());
        GAUNTLET_BUG_CHECK(action != nullptr, "unknown action at interpretation time");
        ExecCall(action->params(), action->body(), call.args(), path_guard, nullptr);
        return;
      }
      case CallKind::kFunction: {
        const FunctionDecl* function = program_.FindFunction(call.callee());
        GAUNTLET_BUG_CHECK(function != nullptr, "unknown function at interpretation time");
        ExecCall(function->params(), function->body(), call.args(), path_guard,
                 &function->return_type());
        return;
      }
      default:
        GAUNTLET_BUG_CHECK(false, "unexpected call kind as statement");
    }
  }

  void ScrambleFields(SymValue& value, SmtRef scramble_guard) {
    for (auto& [name, field] : value.fields) {
      if (field.IsScalar()) {
        if (field.type->IsBool()) {
          field.scalar = ctx_.BoolIte(scramble_guard, FreshUndefBool(), field.scalar);
        } else {
          field.scalar = ctx_.Ite(scramble_guard, FreshUndef(field.type->width()), field.scalar);
        }
      } else {
        ScrambleFields(field, scramble_guard);
      }
    }
  }

  // --- parsers ---

  void RunParserState(const std::string& state_name, SmtRef path_guard, int depth,
                      uint32_t offset) {
    if (state_name == "accept") {
      return;
    }
    if (state_name == "reject") {
      reject_ = ctx_.BoolOr(reject_, EffectiveGuard(path_guard));
      return;
    }
    if (depth > SymbolicInterpreter::kMaxParserDepth) {
      throw UnsupportedError("parser state loop exceeds the unrolling bound");
    }
    const ParserState* state = current_parser_->FindState(state_name);
    GAUNTLET_BUG_CHECK(state != nullptr, "unknown parser state at interpretation time");

    const uint32_t saved_offset = parse_offset_;
    parse_offset_ = offset;
    env_.PushLayer();  // state-local variable scope
    for (const StmtPtr& stmt : state->statements) {
      ExecStmt(*stmt, path_guard);
    }
    const uint32_t offset_after = parse_offset_;
    SmtRef select_value;
    if (state->select_expr != nullptr) {
      select_value = Eval(*state->select_expr, path_guard);
    }
    env_.PopLayer();
    parse_offset_ = saved_offset;

    if (state->select_expr == nullptr) {
      GAUNTLET_BUG_CHECK(state->cases.size() == 1, "malformed unconditional transition");
      RunParserState(state->cases[0].next_state, path_guard, depth + 1, offset_after);
      return;
    }
    SmtRef matched_any = ctx_.False();
    for (const SelectCase& select_case : state->cases) {
      SmtRef case_guard;
      if (select_case.value != nullptr) {
        const SmtRef case_value =
            ctx_.Const(static_cast<const ConstantExpr&>(*select_case.value).value());
        const SmtRef matches = ctx_.Eq(select_value, case_value);
        case_guard = ctx_.BoolAnd(ctx_.BoolNot(matched_any), matches);
        matched_any = ctx_.BoolOr(matched_any, matches);
      } else {
        case_guard = ctx_.BoolNot(matched_any);
      }
      const SmtRef next_guard = ctx_.BoolAnd(path_guard, case_guard);
      result_.branch_conditions.push_back(ctx_.BoolAnd(EffectiveGuard(path_guard), case_guard));
      result_.branch_kinds.push_back("parser-select");
      RunParserState(select_case.next_state, next_guard, depth + 1, offset_after);
    }
  }

  SmtContext& ctx_;
  const Program& program_;
  std::string prefix_;
  size_t table_entries_;
  BlockSemantics result_;
  SymEnv env_;
  std::vector<Frame> frames_;
  SmtRef exited_;
  SmtRef reject_;
  const ControlDecl* current_control_ = nullptr;
  const ParserDecl* current_parser_ = nullptr;
  bool in_deparser_ = false;
  int undef_counter_ = 0;
  int emit_counter_ = 0;
  uint32_t parse_offset_ = 0;
  std::vector<std::pair<std::string, SmtRef>> emits_;
};

}  // namespace

BlockSemantics SymbolicInterpreter::InterpretControl(const Program& program,
                                                     const ControlDecl& control,
                                                     bool is_deparser) {
  InterpreterImpl impl(context_, program, "", table_entries_);
  return impl.InterpretControl(control, is_deparser);
}

BlockSemantics SymbolicInterpreter::InterpretParser(const Program& program,
                                                    const ParserDecl& parser) {
  InterpreterImpl impl(context_, program, "", table_entries_);
  return impl.InterpretParser(parser);
}

BlockSemantics SymbolicInterpreter::InterpretRole(const Program& program, BlockRole role) {
  const PackageBlock* block = program.FindBlock(role);
  GAUNTLET_BUG_CHECK(block != nullptr, "role not bound in package");
  if (role == BlockRole::kParser) {
    const ParserDecl* parser = program.FindParser(block->decl_name);
    GAUNTLET_BUG_CHECK(parser != nullptr, "parser binding is not a parser");
    return InterpretParser(program, *parser);
  }
  const ControlDecl* control = program.FindControl(block->decl_name);
  GAUNTLET_BUG_CHECK(control != nullptr, "control binding is not a control");
  return InterpretControl(program, *control, role == BlockRole::kDeparser);
}

namespace {

// Interprets a block with a name prefix so several blocks can share one
// context without variable collisions.
BlockSemantics InterpretWithPrefix(SmtContext& context, const Program& program,
                                   const PackageBlock& block, const std::string& prefix,
                                   size_t table_entries) {
  InterpreterImpl impl(context, program, prefix, table_entries);
  if (block.role == BlockRole::kParser) {
    const ParserDecl* parser = program.FindParser(block.decl_name);
    GAUNTLET_BUG_CHECK(parser != nullptr, "parser binding is not a parser");
    return impl.InterpretParser(*parser);
  }
  const ControlDecl* control = program.FindControl(block.decl_name);
  GAUNTLET_BUG_CHECK(control != nullptr, "control binding is not a control");
  return impl.InterpretControl(*control, block.role == BlockRole::kDeparser);
}

// Connects `upstream` outputs to `downstream` inputs: every downstream input
// variable whose unprefixed name matches an upstream output leaf is equated
// with that leaf's expression.
void GlueBlocks(SmtContext& context, const BlockSemantics& upstream,
                const std::string& downstream_prefix, const BlockSemantics& downstream,
                std::vector<SmtRef>& glue, std::vector<std::string>& glued_inputs) {
  for (const std::string& input_name : downstream.input_vars) {
    GAUNTLET_BUG_CHECK(input_name.rfind(downstream_prefix, 0) == 0,
                       "input variable missing block prefix");
    const std::string bare = input_name.substr(downstream_prefix.size());
    const SmtRef* upstream_output = upstream.FindOutput(bare);
    if (upstream_output == nullptr) {
      continue;  // e.g. standard metadata not produced by the parser
    }
    const SmtRef input_var = context.FindVar(input_name);
    GAUNTLET_BUG_CHECK(input_var.IsValid(), "input variable vanished from context");
    glue.push_back(context.Eq(input_var, *upstream_output));
    glued_inputs.push_back(input_name);
  }
}

}  // namespace

PipelineSemantics SymbolicInterpreter::InterpretPipeline(const Program& program) {
  PipelineSemantics pipeline;
  const PackageBlock* parser_block = program.FindBlock(BlockRole::kParser);
  const PackageBlock* ingress_block = program.FindBlock(BlockRole::kIngress);
  const PackageBlock* egress_block = program.FindBlock(BlockRole::kEgress);
  const PackageBlock* deparser_block = program.FindBlock(BlockRole::kDeparser);
  GAUNTLET_BUG_CHECK(ingress_block != nullptr, "pipeline requires an ingress block");

  const BlockSemantics* previous = nullptr;
  if (parser_block != nullptr) {
    pipeline.parser = InterpretWithPrefix(context_, program, *parser_block, "p::", table_entries_);
    pipeline.has_parser = true;
    previous = &pipeline.parser;
  }
  pipeline.ingress = InterpretWithPrefix(context_, program, *ingress_block, "ig::", table_entries_);
  if (previous != nullptr) {
    GlueBlocks(context_, *previous, "ig::", pipeline.ingress, pipeline.glue, pipeline.glued_inputs);
  }
  previous = &pipeline.ingress;
  if (egress_block != nullptr) {
    pipeline.egress = InterpretWithPrefix(context_, program, *egress_block, "eg::", table_entries_);
    pipeline.has_egress = true;
    GlueBlocks(context_, *previous, "eg::", pipeline.egress, pipeline.glue, pipeline.glued_inputs);
    previous = &pipeline.egress;
  }
  if (deparser_block != nullptr) {
    pipeline.deparser = InterpretWithPrefix(context_, program, *deparser_block, "dp::", table_entries_);
    pipeline.has_deparser = true;
    GlueBlocks(context_, *previous, "dp::", pipeline.deparser, pipeline.glue, pipeline.glued_inputs);
  }
  return pipeline;
}

std::vector<SmtRef> PinUndefinedValues(SmtContext& context) {
  std::vector<SmtRef> pins;
  for (uint32_t var_id = 0; var_id < context.VarCount(); ++var_id) {
    if (!context.VarIsUndefined(var_id)) {
      continue;
    }
    const SmtRef var = context.FindVar(context.VarName(var_id));
    pins.push_back(context.VarIsBool(var_id)
                       ? context.BoolNot(var)
                       : context.Eq(var, context.Const(context.VarWidth(var_id), 0)));
  }
  return pins;
}

EquivalenceQuery BuildEquivalenceQuery(SmtContext& context, const BlockSemantics& before,
                                       const BlockSemantics& after) {
  EquivalenceQuery query;
  if (before.outputs.size() != after.outputs.size()) {
    query.structural_mismatch = true;
    query.mismatch_detail = "output arity differs: " + std::to_string(before.outputs.size()) +
                            " vs " + std::to_string(after.outputs.size());
    return query;
  }
  SmtRef any_difference = context.False();
  for (size_t i = 0; i < before.outputs.size(); ++i) {
    const auto& [name_before, ref_before] = before.outputs[i];
    const auto& [name_after, ref_after] = after.outputs[i];
    if (name_before != name_after) {
      query.structural_mismatch = true;
      query.mismatch_detail =
          "output leaf renamed: '" + name_before + "' vs '" + name_after + "'";
      return query;
    }
    SmtRef equal;
    if (context.IsBool(ref_before) != context.IsBool(ref_after)) {
      query.structural_mismatch = true;
      query.mismatch_detail = "output leaf '" + name_before + "' changed sort";
      return query;
    }
    equal = context.Eq(ref_before, ref_after);
    any_difference = context.BoolOr(any_difference, context.BoolNot(equal));
  }
  query.difference = any_difference;
  return query;
}

}  // namespace gauntlet
