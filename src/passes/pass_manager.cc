#include <set>

#include "src/ast/visitor.h"
#include "src/frontend/printer.h"
#include "src/obs/metrics.h"
#include "src/passes/frontend_passes.h"
#include "src/passes/midend_passes.h"
#include "src/passes/pass.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {

void PassManager::Run(Program& program, const BugConfig& bugs,
                      const PassSnapshotFn& snapshot) const {
  CountMetric("passes/pipeline_runs", MetricScope::kTiming);
  std::string last_text = snapshot != nullptr ? PrintProgram(program) : std::string();
  for (const std::unique_ptr<Pass>& pass : passes_) {
    pass->Run(program, bugs);
    // Re-type-check: a failure here means the previous pass broke the
    // program — p4c's "snowball" crash class. Convert orderly rejections
    // into compiler bugs, because the *input* program was valid.
    try {
      TypeCheck(program);
    } catch (const CompileError& error) {
      throw CompilerBugError("pass " + pass->name() +
                             " produced an ill-typed program: " + error.what());
    }
    if (snapshot != nullptr) {
      std::string text = PrintProgram(program);
      if (text != last_text) {
        // Only surface passes that actually changed the program, mirroring
        // the paper's hash filter (§5.2).
        snapshot(pass->name(), program, text);
        last_text = std::move(text);
      }
    }
  }
}

PassManager PassManager::StandardPipeline() {
  // Front end first: def-use simplification runs *before* inlining (as in
  // p4c), which is what exposes it to call-argument liveness — the Fig. 5a
  // bug class lives exactly there.
  PassManager manager;
  manager.Add(MakeSideEffectOrderingPass());
  manager.Add(MakeUniqueNamesPass());
  manager.Add(MakeSimplifyDefUsePass());
  manager.Add(MakeInlineFunctionsPass());
  manager.Add(MakeRemoveActionParametersPass());
  manager.Add(MakeConstantFoldingPass());
  manager.Add(MakeStrengthReductionPass());
  manager.Add(MakePredicationPass());
  manager.Add(MakeCopyPropagationPass());
  manager.Add(MakeLocalCopyEliminationPass());
  manager.Add(MakeDeadCodeEliminationPass());
  manager.Add(MakeEliminateSlicesPass());
  return manager;
}

NameAllocator::NameAllocator(const Program& program) {
  // Collect every identifier that appears anywhere (declarations are
  // enough: references must resolve to declarations).
  class Collector : public Inspector {
   public:
    explicit Collector(std::set<std::string>& used) : used_(used) {}

   protected:
    void OnControl(const ControlDecl& control) override {
      used_.insert(control.name());
      for (const Param& param : control.params()) {
        used_.insert(param.name);
      }
    }
    void OnParser(const ParserDecl& parser) override {
      used_.insert(parser.name());
      for (const Param& param : parser.params()) {
        used_.insert(param.name);
      }
    }
    void OnAction(const ActionDecl& action) override {
      used_.insert(action.name());
      for (const Param& param : action.params()) {
        used_.insert(param.name);
      }
    }
    void OnFunction(const FunctionDecl& function) override {
      used_.insert(function.name());
      for (const Param& param : function.params()) {
        used_.insert(param.name);
      }
    }
    void OnTable(const TableDecl& table) override { used_.insert(table.name()); }
    void OnStmt(const Stmt& stmt) override {
      if (stmt.kind() == StmtKind::kVarDecl) {
        used_.insert(static_cast<const VarDeclStmt&>(stmt).name());
      }
    }

   private:
    std::set<std::string>& used_;
  };
  Collector collector(used_);
  collector.VisitProgram(program);
}

std::string NameAllocator::Fresh(const std::string& hint) {
  for (;;) {
    std::string candidate = hint + "_" + std::to_string(counter_++);
    if (used_.insert(candidate).second) {
      return candidate;
    }
  }
}

bool ContainsReturn(const Stmt& stmt) {
  class Finder : public Inspector {
   public:
    bool found = false;

   protected:
    void OnStmt(const Stmt& stmt) override { found |= stmt.kind() == StmtKind::kReturn; }
  };
  Finder finder;
  finder.VisitStmt(stmt);
  return finder.found;
}

bool ContainsExit(const Stmt& stmt) {
  class Finder : public Inspector {
   public:
    bool found = false;

   protected:
    void OnStmt(const Stmt& stmt) override { found |= stmt.kind() == StmtKind::kExit; }
  };
  Finder finder;
  finder.VisitStmt(stmt);
  return finder.found;
}

bool ContainsFunctionCall(const Expr& expr) {
  class Finder : public Inspector {
   public:
    bool found = false;

   protected:
    void OnExpr(const Expr& expr) override {
      if (expr.kind() == ExprKind::kCall) {
        const auto& call = static_cast<const CallExpr&>(expr);
        found |= call.call_kind() == CallKind::kFunction;
      }
    }
  };
  Finder finder;
  finder.VisitExpr(expr);
  return finder.found;
}

bool ExprReadsVar(const Expr& expr, const std::string& name) {
  class Finder : public Inspector {
   public:
    explicit Finder(const std::string& name) : name_(name) {}
    bool found = false;

   protected:
    void OnExpr(const Expr& expr) override {
      if (expr.kind() == ExprKind::kPath) {
        found |= static_cast<const PathExpr&>(expr).name() == name_;
      }
    }

   private:
    const std::string& name_;
  };
  Finder finder(name);
  finder.VisitExpr(expr);
  return finder.found;
}

std::string LValueRoot(const Expr& expr) {
  const Expr* current = &expr;
  for (;;) {
    switch (current->kind()) {
      case ExprKind::kPath:
        return static_cast<const PathExpr&>(*current).name();
      case ExprKind::kMember:
        current = &static_cast<const MemberExpr&>(*current).base();
        break;
      case ExprKind::kSlice:
        current = &static_cast<const SliceExpr&>(*current).base();
        break;
      default:
        GAUNTLET_BUG_CHECK(false, "LValueRoot on non-l-value");
    }
  }
}

}  // namespace gauntlet
