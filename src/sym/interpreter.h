#ifndef SRC_SYM_INTERPRETER_H_
#define SRC_SYM_INTERPRETER_H_

#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/smt/expr.h"
#include "src/sym/value.h"
#include "src/table/entry_set.h"

namespace gauntlet {

// The number of symbolic entry slots the interpreter encodes per table by
// default (src/table/entry_set.h, paper Fig. 3 generalized to N entries).
// Two slots make entry shadowing and non-first-entry hits symbolically
// reachable while keeping formula growth linear in N.
inline constexpr size_t kDefaultSymbolicTableEntries = 2;

// The input-output semantics of one programmable block, as a functional
// form over the SmtContext (the paper's "single nested if-then-else Z3
// expression", section 5.2, here factored into one expression per output
// leaf).
struct BlockSemantics {
  // Ordered (leaf name, expression) pairs: field paths like "hdr.h.a",
  // validity leaves like "hdr.h.$valid", deparser emissions like
  // "emit0.$valid"/"emit0.bits", and the parser-reject flag "$reject".
  std::vector<std::pair<std::string, SmtRef>> outputs;

  // Decision conditions recorded in evaluation order: if-conditions, table
  // entry-win / entry-overlap / action-selection conditions, parser select
  // matches. Drives the test-case generator's path enumeration (section 6).
  std::vector<SmtRef> branch_conditions;

  // Parallel to branch_conditions: what kind of decision each condition is
  // ("if", "entry-win", "entry-overlap", "action-select", "parser-select").
  // Feeds the "path-shape" coverage domain's branch-kind census.
  std::vector<std::string> branch_kinds;

  // Symbolic control-plane state of every applied table (the N-entry
  // encoding of src/table/entry_set.h).
  std::vector<TableInfo> tables;

  // Names of the free input variables created for this block, in creation
  // order (field paths for in/inout params, packet slices for parsers).
  std::vector<std::string> input_vars;

  const SmtRef* FindOutput(const std::string& name) const {
    for (const auto& [output_name, ref] : outputs) {
      if (output_name == name) {
        return &ref;
      }
    }
    return nullptr;
  }
};

// Whole-pipeline semantics: per-block semantics plus the glue equalities
// that connect one block's outputs to the next block's inputs.
struct PipelineSemantics {
  BlockSemantics parser;
  BlockSemantics ingress;
  BlockSemantics egress;
  BlockSemantics deparser;
  bool has_parser = false;
  bool has_egress = false;
  bool has_deparser = false;
  // Conjunction-ready constraints: next-block input var == previous-block
  // output expression.
  std::vector<SmtRef> glue;
  // Names of downstream input variables covered by a glue constraint;
  // everything else (e.g. standard metadata) is target-initialized.
  std::vector<std::string> glued_inputs;
};

// The symbolic interpreter: converts P4 blocks into SMT formulas. It
// implements the semantics the paper defines for P4-16:
//   * copy-in/copy-out calling convention with left-to-right argument
//     evaluation and unconditional copy-out (the spec interpretation that
//     resolved the Fig. 5f ambiguity);
//   * N symbolic entry slots per table — per-slot key / action-index /
//     action-data / priority variables (Fig. 3 generalized; the encoding
//     itself lives in src/table/entry_set.h so it cannot drift from the
//     concrete executor's table semantics);
//   * header validity: setValid on an invalid header scrambles the fields
//     to fresh unknowns; invalid headers contribute canonical zeros to the
//     block outputs;
//   * undefined values (out params, uninitialized locals) become fresh
//     variables "undef<N>" numbered in interpretation order, which the
//     context marks undefined (SmtContext::VarIsUndefined).
//
// One interpreter interprets into one SmtContext; both programs of a
// translation-validation pair must use the same context — and the same
// `table_entries` count, so their table encodings unify variable-for-
// variable.
class SymbolicInterpreter {
 public:
  explicit SymbolicInterpreter(SmtContext& context,
                               size_t table_entries = kDefaultSymbolicTableEntries)
      : context_(context), table_entries_(table_entries == 0 ? 1 : table_entries) {}

  // Interprets a control bound as ingress/egress (match-action) or deparser.
  BlockSemantics InterpretControl(const Program& program, const ControlDecl& control,
                                  bool is_deparser);
  // Interprets a parser block via bounded state-machine unrolling.
  BlockSemantics InterpretParser(const Program& program, const ParserDecl& parser);

  // Interprets every bound package block with glue constraints between
  // consecutive blocks.
  PipelineSemantics InterpretPipeline(const Program& program);

  // Interprets the block bound to `role`.
  BlockSemantics InterpretRole(const Program& program, BlockRole role);

  SmtContext& context() { return context_; }
  size_t table_entries() const { return table_entries_; }

  // Maximum parser state visits along one path before the interpreter
  // reports an unsupported parser loop.
  static constexpr int kMaxParserDepth = 32;

 private:
  friend class InterpreterImpl;
  SmtContext& context_;
  size_t table_entries_;
};

// One constraint per undefined value in `context`, in variable order,
// pinning it to zero (false for booleans): how validation tells undef-only
// divergences apart and how test generation models targets that
// zero-initialize.
std::vector<SmtRef> PinUndefinedValues(SmtContext& context);

// Checks two block semantics for input-output equivalence: returns an
// SmtRef that is satisfiable iff the blocks disagree on some input
// (the "simple inequality" query of section 5.2). Output leaf names must
// match pairwise; a structural mismatch is reported via the `structural_
// mismatch` out-param instead of a formula.
struct EquivalenceQuery {
  bool structural_mismatch = false;
  std::string mismatch_detail;
  SmtRef difference;  // valid iff !structural_mismatch
};
EquivalenceQuery BuildEquivalenceQuery(SmtContext& context, const BlockSemantics& before,
                                       const BlockSemantics& after);

}  // namespace gauntlet

#endif  // SRC_SYM_INTERPRETER_H_
