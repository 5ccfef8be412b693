#ifndef SRC_PASSES_PASS_H_
#define SRC_PASSES_PASS_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/passes/bugs.h"

namespace gauntlet {

// A program transformation in the nanopass pipeline (p4c-style: many thin
// passes, §7.3 credits this architecture with making semantic bugs cheap to
// localize and fix). Every pass must preserve program semantics — the
// seeded faults in BugConfig deliberately break that contract.
class Pass {
 public:
  virtual ~Pass() = default;

  virtual std::string name() const = 0;
  virtual BugLocation location() const = 0;
  virtual void Run(Program& program, const BugConfig& bugs) = 0;
};

// Snapshot callback invoked after each pass that changed the program:
// (pass name, program after the pass, PrintProgram of that program). This
// is the analogue of p4test's --top4 flag that dumps the program after
// every pass (§5.2). The text is the one the change filter already printed,
// so a caller that needs the emitted source (a dump, the ToP4 round trip)
// reuses it instead of printing the program again.
using PassSnapshotFn = std::function<void(const std::string& pass_name,
                                          const Program& program, const std::string& text)>;

// Runs passes in order, re-type-checking after each one (p4c re-runs type
// inference the same way). A type-check failure after a pass means the pass
// emitted an ill-formed program — the "snowball" crash class of §7.2 — and
// surfaces as CompilerBugError.
class PassManager {
 public:
  void Add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

  // Each call counts one `passes/pipeline_runs` (timing scope). Only with a
  // `snapshot` callback does Run print the program: after every pass, to
  // filter out passes whose emitted text did not change (§5.2).
  void Run(Program& program, const BugConfig& bugs,
           const PassSnapshotFn& snapshot = nullptr) const;

  // The standard front- and mid-end pipeline shared by every back end
  // (P4C's role in Figure 1). 12 passes in dependency order.
  static PassManager StandardPipeline();

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Helpers shared by several passes.

// Allocates fresh variable names that collide with nothing in the program.
class NameAllocator {
 public:
  explicit NameAllocator(const Program& program);
  std::string Fresh(const std::string& hint);

 private:
  std::set<std::string> used_;
  int counter_ = 0;
};

// True if the statement tree contains a return / an exit / any call.
bool ContainsReturn(const Stmt& stmt);
bool ContainsExit(const Stmt& stmt);
bool ContainsFunctionCall(const Expr& expr);
// True if the expression reads variable `name` (as a path root).
bool ExprReadsVar(const Expr& expr, const std::string& name);
// The root variable name of an l-value expression.
std::string LValueRoot(const Expr& expr);

}  // namespace gauntlet

#endif  // SRC_PASSES_PASS_H_
