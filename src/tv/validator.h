#ifndef SRC_TV_VALIDATOR_H_
#define SRC_TV_VALIDATOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ast/program.h"
#include "src/passes/pass.h"
#include "src/smt/solver.h"
#include "src/sym/interpreter.h"

namespace gauntlet {

class ValidationCache;

// Verdict for one compiler pass under translation validation.
enum class TvVerdict {
  kEquivalent,          // proven input-output equivalent
  kUndefDivergence,     // differs only on undefined values — reported to
                        // developers as "suspicious but not necessarily
                        // wrong" (§4.1), like the Fig. 5e warning
  kSemanticDiff,        // proven miscompilation with a concrete witness
  kStructuralMismatch,  // outputs not comparable (renamed/reshaped) — the
                        // §8 "missing simulation relation" false-alarm class
  kInvalidEmit,         // emitted program does not re-parse/re-typecheck
};

std::string TvVerdictToString(TvVerdict verdict);

struct TvPassResult {
  std::string pass_name;
  TvVerdict verdict = TvVerdict::kEquivalent;
  std::string detail;
  // For kSemanticDiff: a witness assignment (input packet fields, table
  // entries) under which the two versions disagree. Undefined values are
  // pinned to zero for the witness and left out of it.
  SmtModel counterexample;
};

// Outcome of validating one program through the whole pipeline (Fig. 2).
struct TvReport {
  // Pipeline crashed before completing (crash bug): message and the pass
  // after which the crash surfaced.
  bool crashed = false;
  std::string crash_message;

  std::vector<TvPassResult> pass_results;

  // The emitted program versions: versions[0] is the type-checked input,
  // each later entry is (pass name, program after that pass), filtered to
  // passes that changed the emitted text. Fault attribution uses these to
  // re-run a single blamed pass instead of the whole pipeline.
  std::vector<std::pair<std::string, std::shared_ptr<const Program>>> versions;

  // The program the whole pipeline produced — exactly what
  // LowerThroughPipeline(program, bugs) returns for the same program and
  // faults — so the campaign hands it to every back end instead of lowering
  // the program again. Null when type checking or a pass threw.
  std::shared_ptr<const Program> lowered;

  bool HasSemanticDiff() const {
    for (const TvPassResult& result : pass_results) {
      if (result.verdict == TvVerdict::kSemanticDiff) {
        return true;
      }
    }
    return false;
  }
  const TvPassResult* FirstNonEquivalent() const {
    for (const TvPassResult& result : pass_results) {
      if (result.verdict != TvVerdict::kEquivalent) {
        return &result;
      }
    }
    return nullptr;
  }
};

// Resource budgets for one validation. Equivalence proofs over wide
// arithmetic are exponential in the bit width, so both the SAT effort per
// query and the wall-clock per program are bounded; exhaustion surfaces as
// kStructuralMismatch ("a pass we could not validate", like the 4-of-57
// passes the paper could not handle, §8) rather than stalling a campaign.
struct TvOptions {
  uint64_t conflict_budget = 120000;     // SAT conflicts per query
  uint64_t query_time_limit_ms = 250;    // wall clock per solver query
  uint64_t program_budget_ms = 1500;     // wall clock per validated program
  // Block-level summary memoization (src/cache/summary_cache.h): blocks a
  // pass left textually unchanged reuse the interpretation of the previous
  // version instead of being re-interpreted. --no-incremental turns it off
  // for A/B runs; a memoized interpretation is the very SmtRefs a fresh one
  // would return, so every verdict and report byte is identical either way.
  // Only consulted when a ValidationCache is attached.
  bool memoize_block_summaries = true;
};

// The translation-validation engine: runs the pass pipeline on a copy of
// `program`, captures the emitted program after every pass that changed it
// (filtered on the emitted text, like the paper's hash filter §5.2),
// re-parses each emission to catch ToP4/transform bugs, and checks
// consecutive versions for equivalence block-by-block.
//
// Divergences that vanish when every undefined value is pinned to zero are
// classified kUndefDivergence rather than kSemanticDiff, implementing the
// paper's "own semantics for undefined behavior" policy without false
// alarms from undef renumbering.
class TranslationValidator {
 public:
  explicit TranslationValidator(PassManager pipeline, TvOptions options = {})
      : pipeline_(std::move(pipeline)), options_(options) {}

  // Validates `program` through the pipeline.
  //
  // With a `cache` (src/cache/), bit-blasted fragments are reused across
  // the pass pairs' solver queries and hash-matching pairs skip their
  // queries outright. Verdicts are identical with or without a cache
  // whenever the uncached queries finish within their budgets (a repeated
  // kSemanticDiff pair reuses the first pair's witness instead of
  // re-solving for one); where an uncached query would exhaust its budget,
  // a verdict-cache hit can only upgrade that "could not validate" outcome
  // into the proven verdict.
  TvReport Validate(const Program& program, const BugConfig& bugs,
                    ValidationCache* cache = nullptr) const;

  // Compares two standalone programs (all package blocks pairwise).
  static TvPassResult CompareVersions(const Program& before, const Program& after,
                                      const std::string& pass_name,
                                      ValidationCache* cache = nullptr,
                                      TvOptions options = {});

 private:
  PassManager pipeline_;
  TvOptions options_;
};

}  // namespace gauntlet

#endif  // SRC_TV_VALIDATOR_H_
