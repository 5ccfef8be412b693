#ifndef SRC_SYM_VALUE_H_
#define SRC_SYM_VALUE_H_

#include <map>
#include <string>
#include <vector>

#include "src/ast/type.h"
#include "src/smt/expr.h"

namespace gauntlet {

// The symbolic value of a P4 variable: either a scalar (bit<N>/bool SMT ref)
// or a struct-like tree of named fields. Headers additionally carry a
// symbolic validity bit.
struct SymValue {
  TypePtr type;
  SmtRef scalar;  // set iff type is bit/bool
  std::vector<std::pair<std::string, SymValue>> fields;  // struct/header
  SmtRef valid;  // headers only (bool ref)

  bool IsScalar() const { return type->IsBit() || type->IsBool(); }

  SymValue* FindField(const std::string& name) {
    for (auto& [field_name, value] : fields) {
      if (field_name == name) {
        return &value;
      }
    }
    return nullptr;
  }
  const SymValue* FindField(const std::string& name) const {
    for (const auto& [field_name, value] : fields) {
      if (field_name == name) {
        return &value;
      }
    }
    return nullptr;
  }
};

// A lexically scoped symbolic environment. Layers correspond to call frames
// and block scopes; lookups search from the innermost layer outwards, and
// writes mutate the binding in the layer where the name resolves (so actions
// mutate captured control parameters, per P4 scoping).
class SymEnv {
 public:
  void PushLayer() { layers_.emplace_back(); }
  void PopLayer() { layers_.pop_back(); }

  void Bind(const std::string& name, SymValue value) {
    GAUNTLET_BUG_CHECK(!layers_.empty(), "Bind with no scope layer");
    layers_.back()[name] = std::move(value);
  }

  SymValue* Find(const std::string& name) {
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return &found->second;
      }
    }
    return nullptr;
  }

  // A call frame hides everything except the outermost (control-parameter)
  // layer. `visible_floor` is the number of outer layers still visible.
  // This interpreter keeps it simple: actions/functions see layer 0 plus
  // their own frame. Enforced by the interpreter, not the container.

 private:
  std::vector<std::map<std::string, SymValue>> layers_;
};

}  // namespace gauntlet

#endif  // SRC_SYM_VALUE_H_
