#ifndef SRC_GEN_GENERATOR_H_
#define SRC_GEN_GENERATOR_H_

#include <memory>

#include "src/ast/program.h"
#include "src/support/rng.h"

namespace gauntlet {

// Which back-end package skeleton to generate for (§4.2: "Our random
// program generator can be specialized towards different compiler back ends
// by providing a skeleton of the back-end-specific P4 package").
enum class GeneratorBackend {
  kBmv2,    // v1model-like: parser / ingress / deparser
  kTofino,  // tna-like: same blocks, but biased toward wide arithmetic and
            // more tables to exercise the chip's resource limits
};

struct GeneratorOptions {
  uint64_t seed = 1;
  GeneratorBackend backend = GeneratorBackend::kBmv2;

  // Restrict field/variable widths to whole bytes (8..64). Back ends that
  // marshal values through byte-oriented interfaces (eBPF map keys, packed
  // action data) advertise this via Target::GeneratorBias so their fodder
  // exercises multi-byte codecs instead of odd-width slices.
  bool byte_aligned_fields = false;

  // Size knobs ("the amount of randomly generated code in our tool is
  // user-configurable, allowing us to keep the size of the program under
  // test small and targeted", §4.1).
  int max_headers = 2;
  int max_fields_per_header = 3;
  int max_functions = 2;
  int max_actions = 3;
  int max_tables = 2;
  int max_apply_statements = 6;
  int max_action_statements = 4;
  int max_expr_depth = 3;

  // Feature probabilities in percent. Each targets a construct family that
  // a documented p4c bug class lives in (see DESIGN.md's bug catalogue).
  uint32_t p_function_call = 35;     // copy-in/copy-out stress (Fig. 5a, §7.2)
  uint32_t p_direct_action = 40;     // RemoveActionParameters (Fig. 5f)
  uint32_t p_slice_argument = 30;    // slice inout args (Fig. 5d)
  uint32_t p_exit_in_action = 20;    // exit + copy-out interaction (Fig. 5f)
  uint32_t p_validity_ops = 35;      // setValid/setInvalid (Fig. 5e)
  uint32_t p_if_statement = 45;
  uint32_t p_uninitialized_var = 15; // undefined-value behavior (§4.1, §6.2)
  uint32_t p_const_shift = 8;       // constant shifted by variable (Fig. 5b)
  uint32_t p_const_arith = 25;       // foldable constant expressions
  uint32_t p_parser_select = 50;
  uint32_t p_wide_arith = 10;        // >32-bit operations (Tofino PHV bugs)
  uint32_t p_egress = 35;            // emit an egress block (pipeline-glue stress)
};

// Grows random, well-typed mini-P4 programs (§4): syntactically correct and
// type-correct by construction, exercising the constructs where the seeded
// bug catalogue lives. A generated program failing the type checker is a
// generator bug and raises CompilerBugError (§4.2: "If P4C's parser and
// type checker (correctly) rejected a generated program, we consider this
// to be a bug in our random program generator").
class ProgramGenerator {
 public:
  explicit ProgramGenerator(GeneratorOptions options);

  // Generates one full-pipeline program (parser + ingress + deparser).
  ProgramPtr Generate();

 private:
  GeneratorOptions options_;
  Rng rng_;
  int program_counter_ = 0;
};

// Construct census of one program: how many instances of each construct
// family the AST contains. Computed by a plain walk, so it is identical for
// any --jobs value and cache setting; the campaign records it into the
// "gen-construct" coverage domain and feeds the per-fault trigger-family
// predicates ("exercised" in the fault-trigger domain).
struct ProgramConstructCensus {
  int headers = 0;
  int header_fields = 0;
  int multi_field_headers = 0;
  int functions = 0;
  int actions = 0;
  int actions_with_params = 0;
  int tables = 0;
  int keyless_tables = 0;
  int multi_byte_key_tables = 0;  // some key column of whole-byte width >= 16
  int assignments = 0;
  int if_statements = 0;
  int if_with_else = 0;
  int exits_in_actions = 0;
  int validity_ops = 0;  // setValid / setInvalid
  int isvalid_calls = 0;
  int uninitialized_vars = 0;  // var decls without an initializer
  int shifts = 0;
  int const_shifts = 0;  // shift whose left operand is a constant
  int const_arith = 0;   // binary op with both operands constant
  int slice_exprs = 0;
  int slice_writes = 0;  // assignment whose target is a slice
  int slice_args = 0;    // call argument that is a slice
  int function_calls = 0;
  int direct_action_calls = 0;
  int table_applies = 0;
  int wide_arith_ops = 0;   // binary arithmetic at width > 32
  int wide_multiplies = 0;  // multiplies at width > 32
  int muxes = 0;
  int casts = 0;
  int concats = 0;
  int emits = 0;
  int parser_states = 0;
  int parser_selects = 0;
  int parser_extracts = 0;
  bool has_egress = false;
};

ProgramConstructCensus CensusProgram(const Program& program);

// Records the census into the thread-local metrics sink as the
// "gen-construct" coverage domain (no-op without a sink). Every point is recorded —
// with a zero delta when the construct is absent — so the domain's key set
// is stable regardless of what a particular run generated.
void RecordConstructCoverage(const ProgramConstructCensus& census);

}  // namespace gauntlet

#endif  // SRC_GEN_GENERATOR_H_
