#ifndef SRC_AST_DECL_H_
#define SRC_AST_DECL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ast/stmt.h"

namespace gauntlet {

// A formal parameter of an action, function, control, or parser.
struct Param {
  Direction direction = Direction::kNone;
  TypePtr type;
  std::string name;
};

enum class DeclKind {
  kAction,
  kFunction,
  kTable,
  kControl,
  kParser,
};

class Decl {
 public:
  virtual ~Decl() = default;

  DeclKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  virtual std::unique_ptr<Decl> CloneDecl() const = 0;

 protected:
  Decl(DeclKind kind, std::string name) : kind_(kind), name_(std::move(name)) {}

 private:
  DeclKind kind_;
  std::string name_;
};

using DeclPtr = std::unique_ptr<Decl>;

// An action: callable from tables (directionless params become control-plane
// action data) or directly from apply blocks.
class ActionDecl : public Decl {
 public:
  ActionDecl(std::string name, std::vector<Param> params, std::unique_ptr<BlockStmt> body)
      : Decl(DeclKind::kAction, std::move(name)),
        params_(std::move(params)),
        body_(std::move(body)) {}

  const std::vector<Param>& params() const { return params_; }
  const BlockStmt& body() const { return *body_; }
  BlockStmt* mutable_body() { return body_.get(); }
  std::unique_ptr<BlockStmt>& body_slot() { return body_; }

  DeclPtr CloneDecl() const override {
    auto body_clone = StmtPtr(body_->Clone());
    return std::make_unique<ActionDecl>(
        name(), params_,
        std::unique_ptr<BlockStmt>(static_cast<BlockStmt*>(body_clone.release())));
  }

 private:
  std::vector<Param> params_;
  std::unique_ptr<BlockStmt> body_;
};

// A top-level function with an optional return value. Directions are
// mandatory on parameters (except `in`, which is the default in P4-16 for
// value-like parameters; the parser normalizes missing directions to kIn).
class FunctionDecl : public Decl {
 public:
  FunctionDecl(std::string name, TypePtr return_type, std::vector<Param> params,
               std::unique_ptr<BlockStmt> body)
      : Decl(DeclKind::kFunction, std::move(name)),
        return_type_(std::move(return_type)),
        params_(std::move(params)),
        body_(std::move(body)) {}

  const TypePtr& return_type() const { return return_type_; }
  const std::vector<Param>& params() const { return params_; }
  const BlockStmt& body() const { return *body_; }
  BlockStmt* mutable_body() { return body_.get(); }
  std::unique_ptr<BlockStmt>& body_slot() { return body_; }

  DeclPtr CloneDecl() const override {
    auto body_clone = StmtPtr(body_->Clone());
    return std::make_unique<FunctionDecl>(
        name(), return_type_, params_,
        std::unique_ptr<BlockStmt>(static_cast<BlockStmt*>(body_clone.release())));
  }

 private:
  TypePtr return_type_;
  std::vector<Param> params_;
  std::unique_ptr<BlockStmt> body_;
};

// One key column of a match-action table. Only `exact` matching is modelled
// (the paper's tool also skips lpm/ternary, section 8).
struct TableKey {
  ExprPtr expr;
  std::string match_kind;  // always "exact"
};

// A match-action table. Entries are control-plane state and therefore not
// part of the program; the symbolic interpreter models them with one
// symbolic key + one symbolic action index per table (paper Figure 3).
class TableDecl : public Decl {
 public:
  TableDecl(std::string name, std::vector<TableKey> keys, std::vector<std::string> actions,
            std::string default_action, std::vector<ExprPtr> default_args)
      : Decl(DeclKind::kTable, std::move(name)),
        keys_(std::move(keys)),
        actions_(std::move(actions)),
        default_action_(std::move(default_action)),
        default_args_(std::move(default_args)) {}

  const std::vector<TableKey>& keys() const { return keys_; }
  std::vector<TableKey>& mutable_keys() { return keys_; }
  const std::vector<std::string>& actions() const { return actions_; }
  const std::string& default_action() const { return default_action_; }
  const std::vector<ExprPtr>& default_args() const { return default_args_; }
  std::vector<ExprPtr>& mutable_default_args() { return default_args_; }

  DeclPtr CloneDecl() const override {
    std::vector<TableKey> keys_clone;
    keys_clone.reserve(keys_.size());
    for (const TableKey& key : keys_) {
      keys_clone.push_back(TableKey{key.expr->Clone(), key.match_kind});
    }
    std::vector<ExprPtr> args_clone;
    args_clone.reserve(default_args_.size());
    for (const ExprPtr& arg : default_args_) {
      args_clone.push_back(arg->Clone());
    }
    return std::make_unique<TableDecl>(name(), std::move(keys_clone), actions_, default_action_,
                                       std::move(args_clone));
  }

 private:
  std::vector<TableKey> keys_;
  std::vector<std::string> actions_;
  std::string default_action_;
  std::vector<ExprPtr> default_args_;
};

// A control block: local actions/tables plus an apply body.
class ControlDecl : public Decl {
 public:
  ControlDecl(std::string name, std::vector<Param> params, std::vector<DeclPtr> locals,
              std::unique_ptr<BlockStmt> apply)
      : Decl(DeclKind::kControl, std::move(name)),
        params_(std::move(params)),
        locals_(std::move(locals)),
        apply_(std::move(apply)) {}

  const std::vector<Param>& params() const { return params_; }
  const std::vector<DeclPtr>& locals() const { return locals_; }
  std::vector<DeclPtr>& mutable_locals() { return locals_; }
  const BlockStmt& apply() const { return *apply_; }
  BlockStmt* mutable_apply() { return apply_.get(); }

  const Decl* FindLocal(const std::string& local_name) const {
    for (const DeclPtr& local : locals_) {
      if (local->name() == local_name) {
        return local.get();
      }
    }
    return nullptr;
  }

  DeclPtr CloneDecl() const override {
    std::vector<DeclPtr> locals_clone;
    locals_clone.reserve(locals_.size());
    for (const DeclPtr& local : locals_) {
      locals_clone.push_back(local->CloneDecl());
    }
    auto apply_clone = StmtPtr(apply_->Clone());
    return std::make_unique<ControlDecl>(
        name(), params_, std::move(locals_clone),
        std::unique_ptr<BlockStmt>(static_cast<BlockStmt*>(apply_clone.release())));
  }

 private:
  std::vector<Param> params_;
  std::vector<DeclPtr> locals_;
  std::unique_ptr<BlockStmt> apply_;
};

// One case of a parser `select` transition.
struct SelectCase {
  // Null expr means the `default` case.
  ExprPtr value;           // constant expression
  std::string next_state;  // state name, or "accept"/"reject"
};

// A parser state: straight-line statements followed by a transition.
struct ParserState {
  std::string name;
  std::vector<StmtPtr> statements;
  // If select_expr is null the transition is unconditional to cases[0].
  ExprPtr select_expr;
  std::vector<SelectCase> cases;
};

// A parser block: a finite state machine starting at state "start".
// Statements inside states may call extract(hdr) (CallKind::kExtract).
class ParserDecl : public Decl {
 public:
  ParserDecl(std::string name, std::vector<Param> params, std::vector<ParserState> states)
      : Decl(DeclKind::kParser, std::move(name)),
        params_(std::move(params)),
        states_(std::move(states)) {}

  const std::vector<Param>& params() const { return params_; }
  const std::vector<ParserState>& states() const { return states_; }
  std::vector<ParserState>& mutable_states() { return states_; }

  const ParserState* FindState(const std::string& state_name) const {
    for (const ParserState& state : states_) {
      if (state.name == state_name) {
        return &state;
      }
    }
    return nullptr;
  }

  DeclPtr CloneDecl() const override {
    std::vector<ParserState> states_clone;
    states_clone.reserve(states_.size());
    for (const ParserState& state : states_) {
      ParserState state_clone;
      state_clone.name = state.name;
      for (const StmtPtr& stmt : state.statements) {
        state_clone.statements.push_back(stmt->Clone());
      }
      state_clone.select_expr = state.select_expr ? state.select_expr->Clone() : nullptr;
      for (const SelectCase& select_case : state.cases) {
        state_clone.cases.push_back(SelectCase{
            select_case.value ? select_case.value->Clone() : nullptr, select_case.next_state});
      }
      states_clone.push_back(std::move(state_clone));
    }
    return std::make_unique<ParserDecl>(name(), params_, std::move(states_clone));
  }

 private:
  std::vector<Param> params_;
  std::vector<ParserState> states_;
};

}  // namespace gauntlet

#endif  // SRC_AST_DECL_H_
