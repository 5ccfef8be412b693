#ifndef SRC_FRONTEND_PRINTER_H_
#define SRC_FRONTEND_PRINTER_H_

#include <string>

#include "src/ast/program.h"

namespace gauntlet {

// The ToP4 module: renders an AST back to parseable mini-P4 source. The
// round-trip property (parse(print(p)) structurally equals p) is itself a
// compiler invariant the paper checks — "we explicitly reparse each emitted
// P4 file to also catch misbehavior in the parser and the ToP4 module"
// (section 5.2). Translation validation in this repo does the same.
std::string PrintProgram(const Program& program);
std::string PrintExpr(const Expr& expr);
std::string PrintStmt(const Stmt& stmt, int indent = 0);
std::string PrintDecl(const Decl& decl, int indent = 0);

// A stable structural fingerprint (FNV-1a over printed source). Callers
// that already hold the printed text compare it directly instead: the pass
// manager's change filter (the paper's "ignore any emitted intermediate
// program that has a hash identical to its predecessor") and the
// validator's ToP4 round trip both do.
uint64_t HashProgram(const Program& program);

}  // namespace gauntlet

#endif  // SRC_FRONTEND_PRINTER_H_
