#ifndef SRC_AST_EXPR_H_
#define SRC_AST_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ast/type.h"
#include "src/support/bit_value.h"
#include "src/support/source_location.h"

namespace gauntlet {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kConstant,   // bit<N> literal
  kBoolConst,  // true / false
  kPath,       // identifier reference
  kMember,     // expr.field
  kSlice,      // expr[hi:lo]
  kUnary,
  kBinary,
  kMux,   // cond ? then : else
  kCast,  // (bit<N>) expr
  kCall,  // calls usable in expression position: isValid(), function calls
};

enum class UnaryOp {
  kComplement,  // ~x
  kLogicalNot,  // !x
  kNegate,      // -x (two's complement)
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kBitAnd,
  kBitOr,
  kBitXor,
  kShl,
  kShr,
  kConcat,  // ++
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLogicalAnd,
  kLogicalOr,
};

// True for ==, !=, <, <=, >, >=, &&, || (result type bool).
bool IsBooleanResult(BinaryOp op);
std::string UnaryOpToString(UnaryOp op);
std::string BinaryOpToString(BinaryOp op);

// Base class for all P4 expressions. `type` is null until the type checker
// runs; compiler passes require typed trees and re-typecheck after rewrites.
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  const TypePtr& type() const { return type_; }
  void set_type(TypePtr type) { type_ = std::move(type); }
  const SourceLocation& loc() const { return loc_; }
  void set_loc(SourceLocation loc) { loc_ = loc; }

  virtual ExprPtr Clone() const = 0;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  void CopyMetaFrom(const Expr& other) {
    type_ = other.type_;
    loc_ = other.loc_;
  }

 private:
  ExprKind kind_;
  TypePtr type_;
  SourceLocation loc_;
};

class ConstantExpr : public Expr {
 public:
  explicit ConstantExpr(BitValue value) : Expr(ExprKind::kConstant), value_(value) {
    set_type(Type::Bit(value.width()));
  }

  const BitValue& value() const { return value_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<ConstantExpr>(value_);
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  BitValue value_;
};

class BoolConstExpr : public Expr {
 public:
  explicit BoolConstExpr(bool value) : Expr(ExprKind::kBoolConst), value_(value) {
    set_type(Type::Bool());
  }

  bool value() const { return value_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<BoolConstExpr>(value_);
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  bool value_;
};

class PathExpr : public Expr {
 public:
  explicit PathExpr(std::string name) : Expr(ExprKind::kPath), name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<PathExpr>(name_);
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  std::string name_;
};

class MemberExpr : public Expr {
 public:
  MemberExpr(ExprPtr base, std::string member)
      : Expr(ExprKind::kMember), base_(std::move(base)), member_(std::move(member)) {}

  const Expr& base() const { return *base_; }
  ExprPtr& base_slot() { return base_; }
  const std::string& member() const { return member_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<MemberExpr>(base_->Clone(), member_);
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  ExprPtr base_;
  std::string member_;
};

class SliceExpr : public Expr {
 public:
  SliceExpr(ExprPtr base, uint32_t hi, uint32_t lo)
      : Expr(ExprKind::kSlice), base_(std::move(base)), hi_(hi), lo_(lo) {}

  const Expr& base() const { return *base_; }
  ExprPtr& base_slot() { return base_; }
  uint32_t hi() const { return hi_; }
  uint32_t lo() const { return lo_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<SliceExpr>(base_->Clone(), hi_, lo_);
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  ExprPtr base_;
  uint32_t hi_;
  uint32_t lo_;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op_(op), operand_(std::move(operand)) {}

  UnaryOp op() const { return op_; }
  const Expr& operand() const { return *operand_; }
  ExprPtr& operand_slot() { return operand_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<UnaryExpr>(op_, operand_->Clone());
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kBinary), op_(op), left_(std::move(left)), right_(std::move(right)) {}

  BinaryOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }
  ExprPtr& left_slot() { return left_; }
  ExprPtr& right_slot() { return right_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<BinaryExpr>(op_, left_->Clone(), right_->Clone());
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class MuxExpr : public Expr {
 public:
  MuxExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : Expr(ExprKind::kMux),
        cond_(std::move(cond)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}

  const Expr& cond() const { return *cond_; }
  const Expr& then_expr() const { return *then_; }
  const Expr& else_expr() const { return *else_; }
  ExprPtr& cond_slot() { return cond_; }
  ExprPtr& then_slot() { return then_; }
  ExprPtr& else_slot() { return else_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<MuxExpr>(cond_->Clone(), then_->Clone(), else_->Clone());
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

class CastExpr : public Expr {
 public:
  CastExpr(TypePtr target, ExprPtr operand)
      : Expr(ExprKind::kCast), target_(std::move(target)), operand_(std::move(operand)) {}

  const TypePtr& target() const { return target_; }
  const Expr& operand() const { return *operand_; }
  ExprPtr& operand_slot() { return operand_; }

  ExprPtr Clone() const override {
    auto clone = std::make_unique<CastExpr>(target_, operand_->Clone());
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  TypePtr target_;
  ExprPtr operand_;
};

// What a call refers to. Calls appear both in expression position (isValid,
// functions) and statement position (actions, table apply, validity setters).
enum class CallKind {
  kFunction,    // top-level function, possibly with return value
  kAction,      // direct action invocation
  kTableApply,  // t.apply()
  kSetValid,    // hdr.setValid()
  kSetInvalid,  // hdr.setInvalid()
  kIsValid,     // hdr.isValid() -> bool
  kExtract,     // packet.extract(hdr) — parser states only
  kEmit,        // packet.emit(hdr) — deparser controls only
};

class CallExpr : public Expr {
 public:
  // `receiver` is the header l-value for validity methods, null otherwise.
  CallExpr(CallKind call_kind, std::string callee, ExprPtr receiver, std::vector<ExprPtr> args)
      : Expr(ExprKind::kCall),
        call_kind_(call_kind),
        callee_(std::move(callee)),
        receiver_(std::move(receiver)),
        args_(std::move(args)) {}

  CallKind call_kind() const { return call_kind_; }
  void set_call_kind(CallKind call_kind) { call_kind_ = call_kind; }
  const std::string& callee() const { return callee_; }
  const Expr* receiver() const { return receiver_.get(); }
  ExprPtr& receiver_slot() { return receiver_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  std::vector<ExprPtr>& mutable_args() { return args_; }

  ExprPtr Clone() const override {
    std::vector<ExprPtr> args_clone;
    args_clone.reserve(args_.size());
    for (const ExprPtr& arg : args_) {
      args_clone.push_back(arg->Clone());
    }
    auto clone = std::make_unique<CallExpr>(call_kind_, callee_,
                                            receiver_ ? receiver_->Clone() : nullptr,
                                            std::move(args_clone));
    clone->CopyMetaFrom(*this);
    return clone;
  }

 private:
  CallKind call_kind_;
  std::string callee_;
  ExprPtr receiver_;
  std::vector<ExprPtr> args_;
};

// Convenience constructors used throughout passes, the generator, and tests.
ExprPtr MakeConstant(uint32_t width, uint64_t bits);
ExprPtr MakeBool(bool value);
ExprPtr MakePath(std::string name);
ExprPtr MakeMember(ExprPtr base, std::string member);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);

}  // namespace gauntlet

#endif  // SRC_AST_EXPR_H_
