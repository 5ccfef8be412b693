#ifndef SRC_TESTGEN_TESTGEN_H_
#define SRC_TESTGEN_TESTGEN_H_

#include <vector>

#include "src/ast/program.h"
#include "src/target/stf.h"

namespace gauntlet {

class ValidationCache;

struct TestGenOptions {
  // Upper bound on generated test cases per program (path explosion guard,
  // §6.2: "the number of paths can be exponential in the length of the
  // program").
  size_t max_tests = 32;
  // Depth cap on the decision-condition enumeration. The N-entry table
  // encoding contributes more conditions per table (per-slot wins, slot
  // overlaps, action selections) than the old single-entry hit condition,
  // so the cap is sized to keep two multi-entry tables fully enumerable.
  size_t max_decisions = 16;
  // Wall-clock budget per solver query (path probes and witness solves);
  // 0 = unlimited. Paths whose queries exhaust the budget are skipped, like
  // the silently-dropped test cases of §8.
  uint64_t query_time_limit_ms = 250;
  // Symbolic entry slots per table (src/table/entry_set.h; paper Fig. 3
  // generalized). With >= 2, path enumeration can solve for hits on
  // different installed entries, populated-table misses, and overlapping
  // (shadowed) entries *before* any packet exists — the scenarios that
  // expose priority-inversion and map-key back-end faults. 1 recovers the
  // paper's single-entry encoding (the bench_table_model baseline).
  size_t symbolic_table_entries = 2;
  // Assumption-trail reuse in the path-probe solver (--no-incremental turns
  // it off). The probe solver only answers feasibility questions — every
  // byte that reaches a test comes from the separate witness solver, whose
  // configuration is fixed — so the generated tests are byte-identical
  // either way; only the enumeration cost changes.
  bool incremental_solving = true;
};

// The table scenarios one program's surviving tests realize, which the
// campaign's fault-trigger exercise predicates read. Derived from the
// witness models, which replay bit-exactly for any --jobs value and with
// the cache on or off, so every field is deterministic.
struct PathCoverageSummary {
  bool table_hit = false;               // some test hits an installed entry
  bool table_miss = false;              // some test misses a populated table
  bool divergent_overlap = false;       // overlapping slots select different actions
  bool multi_byte_key_hit = false;      // hit matched on a byte-aligned key >= 16 bits
  bool multi_byte_action_data = false;  // hit supplies byte-aligned data >= 16 bits
};

// Symbolic-execution-based test-case generation (paper Figure 4 and §6):
// interprets the *source* program into SMT formulas, enumerates feasible
// paths through its decision conditions, and for each path solves for an
// input packet + table configuration, computing the expected output packet
// from the same formulas. The resulting PacketTests run against black-box
// targets (Tofino) whose intermediate representations are inaccessible.
//
// Undefined values are pinned to zero, matching BMv2/Tofino-simulator
// zero-initialization (the paper's choice 2 in §6.2: "ascribe specific
// values to undefined variables and check if these values conform with the
// implementation of the particular target").
class TestCaseGenerator {
 public:
  explicit TestCaseGenerator(TestGenOptions options = {}) : options_(options) {}

  // Requires a package with at least parser + ingress + deparser. May throw
  // UnsupportedError for constructs outside the supported fragment
  // (paper §8); callers treat that as "no tests for this program".
  //
  // With a `cache` (src/cache/), the path-probe solver reuses bit-blasted
  // fragments recorded by earlier solves — including the translation
  // validator's, since fingerprints key on variable names and the source
  // program's block semantics are shared between the two techniques.
  // Replay is bit-exact, so the generated tests are identical either way.
  //
  // Records the "path-shape" / "table-config" coverage domains into the
  // thread-local metrics sink (when one is installed); a non-null
  // `coverage` also receives the path/table scenario summary.
  std::vector<PacketTest> Generate(const Program& program, ValidationCache* cache = nullptr,
                                   PathCoverageSummary* coverage = nullptr) const;

 private:
  TestGenOptions options_;
};

}  // namespace gauntlet

#endif  // SRC_TESTGEN_TESTGEN_H_
