#ifndef SRC_SMT_EXPR_H_
#define SRC_SMT_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/bit_value.h"
#include "src/support/error.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// SMT expression DAG.
//
// This subsystem replaces Z3 in the paper's pipeline (see DESIGN.md). It
// provides exactly the fragment Gauntlet needs: quantifier-free fixed-width
// bit-vectors and booleans. Nodes are immutable, hash-consed through
// SmtContext, and referenced by index for cheap copying and structural
// equality.
// ---------------------------------------------------------------------------

enum class SmtOp : uint8_t {
  // Leaves.
  kConst,    // bit-vector literal (width, bits)
  kBoolConst,
  kVar,      // free bit-vector variable
  kBoolVar,  // free boolean variable

  // Bit-vector, result width = operand width.
  kAdd,
  kSub,
  kMul,
  kAnd,
  kOr,
  kXor,
  kNot,
  kNeg,
  kShl,
  kShr,

  // Width-changing.
  kConcat,   // args[0] is the high part
  kExtract,  // hi/lo in aux0/aux1
  kZext,     // zero-extend to `width`
  kTrunc,    // truncate to `width`

  // Predicates over bit-vectors (result bool).
  kEq,
  kUlt,
  kUle,

  // Boolean structure.
  kBoolAnd,
  kBoolOr,
  kBoolNot,
  kBoolEq,  // iff

  // Conditionals.
  kIte,      // bool ? bv : bv
  kBoolIte,  // bool ? bool : bool
};

// A handle into the context's node table. Index 0 is reserved/invalid.
struct SmtRef {
  uint32_t index = 0;
  bool IsValid() const { return index != 0; }
  friend bool operator==(const SmtRef&, const SmtRef&) = default;
};

struct SmtNode {
  SmtOp op;
  uint32_t width = 0;  // bit width for bit-vector nodes; 0 for bool nodes
  uint64_t bits = 0;   // literal value for kConst/kBoolConst (0/1)
  uint32_t aux0 = 0;   // extract hi
  uint32_t aux1 = 0;   // extract lo
  uint32_t var_id = 0;  // for kVar/kBoolVar
  std::vector<SmtRef> args;
};

// Owns the hash-consed node table and variable namespace. All SmtRef values
// are only meaningful relative to their context.
class SmtContext {
 public:
  SmtContext();

  // --- leaf constructors ---
  SmtRef Const(uint32_t width, uint64_t bits);
  SmtRef Const(const BitValue& value) { return Const(value.width(), value.bits()); }
  SmtRef BoolConst(bool value);
  SmtRef True() { return BoolConst(true); }
  SmtRef False() { return BoolConst(false); }
  // Creates (or returns the existing) named free variable. `undefined`
  // marks a variable that stands for an undefined value (an out parameter
  // or uninitialized local, src/sym/interpreter.h); the first creation
  // decides.
  SmtRef Var(const std::string& name, uint32_t width, bool undefined = false);
  SmtRef BoolVar(const std::string& name, bool undefined = false);

  // --- bit-vector operations (with algebraic simplification) ---
  SmtRef Add(SmtRef a, SmtRef b);
  SmtRef Sub(SmtRef a, SmtRef b);
  SmtRef Mul(SmtRef a, SmtRef b);
  SmtRef And(SmtRef a, SmtRef b);
  SmtRef Or(SmtRef a, SmtRef b);
  SmtRef Xor(SmtRef a, SmtRef b);
  SmtRef Not(SmtRef a);
  SmtRef Neg(SmtRef a);
  SmtRef Shl(SmtRef a, SmtRef amount);
  SmtRef Shr(SmtRef a, SmtRef amount);
  SmtRef Concat(SmtRef high, SmtRef low);
  SmtRef Extract(SmtRef a, uint32_t hi, uint32_t lo);
  SmtRef Zext(SmtRef a, uint32_t new_width);
  SmtRef Trunc(SmtRef a, uint32_t new_width);
  // Zero-extend or truncate to `new_width` as needed.
  SmtRef Resize(SmtRef a, uint32_t new_width);

  // --- predicates ---
  SmtRef Eq(SmtRef a, SmtRef b);
  SmtRef Ult(SmtRef a, SmtRef b);
  SmtRef Ule(SmtRef a, SmtRef b);

  // --- boolean operations ---
  SmtRef BoolAnd(SmtRef a, SmtRef b);
  SmtRef BoolOr(SmtRef a, SmtRef b);
  SmtRef BoolNot(SmtRef a);
  SmtRef BoolEq(SmtRef a, SmtRef b);

  // --- conditionals ---
  SmtRef Ite(SmtRef cond, SmtRef then_ref, SmtRef else_ref);
  SmtRef BoolIte(SmtRef cond, SmtRef then_ref, SmtRef else_ref);

  // The node `ref` over `args` in place of its own arguments (same count
  // and sorts), built through the constructor of its op so that the
  // simplifications above apply to the new arguments. Returns `ref` itself
  // when the arguments are unchanged, and leaves as they are.
  SmtRef Rebuild(SmtRef ref, const std::vector<SmtRef>& args);

  // --- inspection ---
  const SmtNode& node(SmtRef ref) const {
    GAUNTLET_BUG_CHECK(ref.index != 0 && ref.index < nodes_.size(), "invalid SmtRef");
    return nodes_[ref.index];
  }
  bool IsBool(SmtRef ref) const;
  uint32_t WidthOf(SmtRef ref) const { return node(ref).width; }
  bool IsConst(SmtRef ref) const;
  uint64_t ConstBits(SmtRef ref) const;
  size_t NodeCount() const { return nodes_.size() - 1; }
  const std::string& VarName(uint32_t var_id) const { return var_names_[var_id]; }
  uint32_t VarCount() const { return static_cast<uint32_t>(var_names_.size()); }
  uint32_t VarWidth(uint32_t var_id) const { return var_widths_[var_id]; }
  bool VarIsBool(uint32_t var_id) const { return var_widths_[var_id] == 0; }
  bool VarIsUndefined(uint32_t var_id) const { return var_undefined_[var_id]; }
  // Looks up a variable by name; returns invalid ref if absent.
  SmtRef FindVar(const std::string& name) const;

  // S-expression rendering for debugging and golden tests.
  std::string ToString(SmtRef ref) const;

 private:
  SmtRef Intern(SmtNode node);
  SmtRef MakeBinary(SmtOp op, SmtRef a, SmtRef b, uint32_t width);

  std::vector<SmtNode> nodes_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> cons_table_;
  std::vector<std::string> var_names_;
  std::vector<uint32_t> var_widths_;  // 0 == boolean variable
  std::vector<bool> var_undefined_;
  std::unordered_map<std::string, uint32_t> vars_by_name_;
  std::unordered_map<uint32_t, SmtRef> var_refs_;
};

}  // namespace gauntlet

#endif  // SRC_SMT_EXPR_H_
