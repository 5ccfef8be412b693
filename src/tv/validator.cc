#include "src/tv/validator.h"

#include <algorithm>
#include <optional>

#include "src/cache/summary_cache.h"
#include "src/cache/verdict_cache.h"
#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/smt/sweep.h"
#include "src/sym/interpreter.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {

std::string TvVerdictToString(TvVerdict verdict) {
  switch (verdict) {
    case TvVerdict::kEquivalent:
      return "equivalent";
    case TvVerdict::kUndefDivergence:
      return "undefined-value divergence";
    case TvVerdict::kSemanticDiff:
      return "semantic difference";
    case TvVerdict::kStructuralMismatch:
      return "structural mismatch";
    case TvVerdict::kInvalidEmit:
      return "invalid emitted program";
  }
  return "<invalid>";
}

namespace {

// Symbolic entry slots per table (src/table/entry_set.h); both versions of a
// pass pair share the encoding so their table variables unify. One slot
// already quantifies over arbitrary installed contents, and no pass can
// touch control-plane state, so extra slots would only grow the
// equivalence queries. Test generation encodes
// kDefaultSymbolicTableEntries, where the extra slots *do* buy new
// scenarios (non-first-entry hits, shadowing).
constexpr size_t kValidationTableEntries = 1;

// Short metric-key slug for a verdict (TvVerdictToString is prose).
std::string_view TvVerdictSlug(TvVerdict verdict) {
  switch (verdict) {
    case TvVerdict::kEquivalent:
      return "equivalent";
    case TvVerdict::kUndefDivergence:
      return "undef-divergence";
    case TvVerdict::kSemanticDiff:
      return "semantic-diff";
    case TvVerdict::kStructuralMismatch:
      return "structural-mismatch";
    case TvVerdict::kInvalidEmit:
      return "invalid-emit";
  }
  return "invalid";
}

// Every finalized pass-pair verdict flows through here. Timing scope:
// structural-mismatch counts include budget exhaustion, which is
// wall-clock dependent.
void RecordPassResult(const TvPassResult& result) {
  CountMetric("tv/pairs", MetricScope::kTiming);
  CountMetric("tv/verdict/" + std::string(TvVerdictSlug(result.verdict)), MetricScope::kTiming);
}

// Per-version interpretation cache used while validating one program
// through the whole pipeline. All versions share one SmtContext so that (a)
// identically named inputs unify, (b) hash-consing dedupes the largely
// identical DAGs of consecutive versions, and (c) each version is
// interpreted once even though it participates in two pass pairs (as the
// "after" of its own pass and the "before" of the next).
struct VersionSemantics {
  bool failed = false;
  std::string failure;
  std::vector<std::pair<BlockRole, BlockSemantics>> blocks;
  // Parallel to `blocks`: each block's summary-cache key (invalid when the
  // cache was off or the block's declaration could not be keyed).
  std::vector<Fingerprint> summary_keys;
};

// The memoization toggle: non-null only when a cache is attached and the
// options allow it (--no-incremental clears memoize_block_summaries).
SummaryCache* SummariesOf(ValidationCache* cache, const TvOptions& options) {
  return (cache != nullptr && options.memoize_block_summaries) ? &cache->summaries() : nullptr;
}

VersionSemantics InterpretVersion(SymbolicInterpreter& interpreter, const Program& program,
                                  ValidationCache* cache, const TvOptions& options) {
  VersionSemantics result;
  SummaryCache* summaries = SummariesOf(cache, options);
  Fingerprint environment;
  if (summaries != nullptr) {
    environment = BlockEnvironmentFingerprint(program, interpreter.table_entries());
  }
  try {
    for (const PackageBlock& block : program.package()) {
      Fingerprint key;
      if (summaries != nullptr) {
        key = BlockSummaryKey(environment, program, block);
        if (key.IsValid()) {
          if (const BlockSemantics* hit = summaries->Find(key)) {
            // An AST-identical block was already interpreted into this
            // context: re-interpreting would return the same SmtRefs (fresh
            // per-call undef numbering + hash-consing), so reuse is
            // invisible to every downstream query.
            result.blocks.emplace_back(block.role, *hit);
            result.summary_keys.push_back(key);
            continue;
          }
        }
      }
      result.blocks.emplace_back(block.role, interpreter.InterpretRole(program, block.role));
      result.summary_keys.push_back(key);
      if (summaries != nullptr && key.IsValid()) {
        summaries->Insert(key, result.blocks.back().second);
      }
    }
  } catch (const UnsupportedError& error) {
    result.failed = true;
    result.failure = std::string("interpreter limitation: ") + error.what();
  }
  return result;
}

// The canonical fingerprint of a whole version: every block's role plus its
// semantics fingerprint, in block order. Equal fingerprints imply the
// versions are input-output equivalent block by block. Blocks with a
// summary key consult the cache's key → fingerprint side table first — the
// mapping is functional, so a stored fingerprint equals what canonical
// hashing would compute, and a block seen in an earlier version skips the
// DAG walk.
Fingerprint VersionFingerprint(StructHasher& hasher, const VersionSemantics& version,
                               SummaryCache* summaries) {
  Fingerprint fp = FingerprintOfString("version-semantics");
  for (size_t i = 0; i < version.blocks.size(); ++i) {
    const auto& [role, semantics] = version.blocks[i];
    fp = CombineFingerprints(fp, FingerprintOfString(BlockRoleToString(role)));
    const Fingerprint key =
        i < version.summary_keys.size() ? version.summary_keys[i] : Fingerprint{};
    if (summaries != nullptr && key.IsValid()) {
      if (const Fingerprint* stored = summaries->FindSemanticsFingerprint(key)) {
        fp = CombineFingerprints(fp, *stored);
        continue;
      }
    }
    const Fingerprint semantics_fp = SemanticsFingerprint(hasher, semantics);
    if (summaries != nullptr && key.IsValid()) {
      summaries->RecordSemanticsFingerprint(key, semantics_fp);
    }
    fp = CombineFingerprints(fp, semantics_fp);
  }
  return fp;
}

// Conflicts query 1 may spend before it escalates to SAT sweeping. Almost
// every query finishes far below it; the ones that do not are miters over
// restructured multiplier operands, which sweeping collapses.
constexpr uint64_t kEscalationConflictCap = 2000;

// Escalation for a query-1 attempt that ran out of its cap after `spent`
// conflicts: sweeps `miter` in place (src/smt/sweep.h; the swept miter is
// the same Boolean function) and solves it with what is left of the
// conflict budget.
CheckResult SolveSwept(SmtContext& ctx, SmtRef& miter, uint64_t spent, const TvOptions& options) {
  uint64_t left = 0;  // unlimited, like a zero conflict_budget
  if (options.conflict_budget != 0) {
    if (spent >= options.conflict_budget) {
      return CheckResult::kUnknown;
    }
    left = options.conflict_budget - spent;
  }
  SweepStats stats;
  {
    TraceSpan span("tv-sweep", "tv");
    miter = SweepMiter(ctx, miter, {left, options.query_time_limit_ms}, &stats);
    span.Arg("proofs", stats.proofs);
    span.Arg("merges", stats.merges);
    span.Arg("conflicts", stats.conflicts);
  }
  CountMetric("tv/sweeps", MetricScope::kTiming);
  CountMetric("tv/sweep_proofs", MetricScope::kTiming, stats.proofs);
  CountMetric("tv/sweep_merges", MetricScope::kTiming, stats.merges);
  if (ctx.IsConst(miter) && ctx.ConstBits(miter) == 0) {
    return CheckResult::kUnsat;
  }
  if (left != 0) {
    if (stats.conflicts >= left) {
      return CheckResult::kUnknown;
    }
    left -= stats.conflicts;
  }
  SmtSolver solver(ctx);
  solver.set_conflict_limit(left);
  solver.set_time_limit_ms(options.query_time_limit_ms);
  solver.Assert(miter);
  return solver.Check();
}

TvPassResult CompareSemantics(SmtContext& ctx, const VersionSemantics& before,
                              const VersionSemantics& after, const std::string& pass_name,
                              const TvOptions& options, ValidationCache* cache,
                              StructHasher* canonical_hasher) {
  TvPassResult result;
  result.pass_name = pass_name;
  if (before.failed || after.failed) {
    result.verdict = TvVerdict::kStructuralMismatch;
    result.detail = before.failed ? before.failure : after.failure;
    return result;
  }

  // Memoized equivalence queries: a pair whose canonical fingerprints are
  // equal is equivalent outright (commutative reshuffles included); a pair
  // matching an already-answered pair reuses that verdict (and, for a
  // semantic diff, its witness) without touching the solver.
  Fingerprint fp_before;
  Fingerprint fp_after;
  if (cache != nullptr) {
    SummaryCache* summaries = SummariesOf(cache, options);
    fp_before = VersionFingerprint(*canonical_hasher, before, summaries);
    fp_after = VersionFingerprint(*canonical_hasher, after, summaries);
    if (fp_before == fp_after) {
      cache->CountShortCircuit();
      result.verdict = TvVerdict::kEquivalent;
      return result;
    }
    if (const VerdictCache::Entry* hit = cache->verdicts().Find(fp_before, fp_after)) {
      cache->CountSkippedQueries(hit->queries);
      result = hit->result;
      result.pass_name = pass_name;
      return result;
    }
  }
  const auto remember = [&](const TvPassResult& definitive, uint32_t queries) {
    if (cache != nullptr) {
      cache->verdicts().Insert(fp_before, fp_after, definitive, queries);
    }
  };

  SmtRef any_difference = ctx.False();
  for (const auto& [role, before_sem] : before.blocks) {
    const BlockSemantics* after_sem = nullptr;
    for (const auto& [after_role, sem] : after.blocks) {
      if (after_role == role) {
        after_sem = &sem;
        break;
      }
    }
    if (after_sem == nullptr) {
      result.verdict = TvVerdict::kStructuralMismatch;
      result.detail = BlockRoleToString(role) + ": block missing after pass";
      return result;
    }
    const EquivalenceQuery query = BuildEquivalenceQuery(ctx, before_sem, *after_sem);
    if (query.structural_mismatch) {
      result.verdict = TvVerdict::kStructuralMismatch;
      result.detail = BlockRoleToString(role) + ": " + query.mismatch_detail;
      return result;
    }
    any_difference = ctx.BoolOr(any_difference, query.difference);
  }
  // Fast path: when a pass made no semantic change, hash-consing collapses
  // every per-block difference to the constant false — no SAT call needed.
  if (ctx.IsConst(any_difference) && ctx.ConstBits(any_difference) == 0) {
    result.verdict = TvVerdict::kEquivalent;
    remember(result, /*queries=*/0);
    return result;
  }

  // Query 1: is there any input on which the versions disagree? Conflict
  // and wall-clock budgets keep pathological instances (wide-multiplier
  // equivalence) from stalling a campaign; exhaustion is reported like a
  // missing simulation relation (a pass we could not validate, §8). The
  // first attempt stops at kEscalationConflictCap; a query still open
  // there is swept, and the swept miter also serves query 2.
  SmtSolver solver(ctx);
  if (cache != nullptr) {
    solver.set_blast_cache(&cache->blast());
  }
  const uint64_t cap = options.conflict_budget == 0
                           ? kEscalationConflictCap
                           : std::min(options.conflict_budget, kEscalationConflictCap);
  solver.set_conflict_limit(cap);
  solver.set_time_limit_ms(options.query_time_limit_ms);
  solver.Assert(any_difference);
  CheckResult first = solver.Check();
  if (first == CheckResult::kUnknown) {
    first = SolveSwept(ctx, any_difference, solver.last_conflicts(), options);
  }
  if (first == CheckResult::kUnsat) {
    result.verdict = TvVerdict::kEquivalent;
    remember(result, /*queries=*/1);
    return result;
  }
  if (first == CheckResult::kUnknown) {
    result.verdict = TvVerdict::kStructuralMismatch;
    result.detail = "solver budget (conflicts or wall clock) exceeded";
    return result;
  }

  // Query 2: does the disagreement survive pinning every undefined value to
  // zero? If not, the pass only reshuffled undefined behavior.
  SmtSolver pinned_solver(ctx);
  if (cache != nullptr) {
    pinned_solver.set_blast_cache(&cache->blast());
  }
  pinned_solver.set_conflict_limit(options.conflict_budget);
  pinned_solver.set_time_limit_ms(options.query_time_limit_ms);
  pinned_solver.Assert(any_difference);
  for (const SmtRef& pin : PinUndefinedValues(ctx)) {
    pinned_solver.Assert(pin);
  }
  const CheckResult pinned = pinned_solver.Check();
  if (pinned == CheckResult::kUnsat) {
    result.verdict = TvVerdict::kUndefDivergence;
    result.detail = "versions differ only in undefined-value choices";
    remember(result, /*queries=*/2);
    return result;
  }
  if (pinned == CheckResult::kUnknown) {
    result.verdict = TvVerdict::kStructuralMismatch;
    result.detail = "solver budget exceeded (undef classification)";
    return result;
  }
  result.verdict = TvVerdict::kSemanticDiff;
  result.counterexample = pinned_solver.ExtractModel();
  for (uint32_t var_id = 0; var_id < ctx.VarCount(); ++var_id) {
    if (ctx.VarIsUndefined(var_id)) {
      result.counterexample.bit_values.erase(ctx.VarName(var_id));
      result.counterexample.bool_values.erase(ctx.VarName(var_id));
    }
  }
  result.detail = "solver found a disagreeing input";
  remember(result, /*queries=*/2);
  return result;
}

}  // namespace

TvPassResult TranslationValidator::CompareVersions(const Program& before, const Program& after,
                                                   const std::string& pass_name,
                                                   ValidationCache* cache, TvOptions options) {
  TraceSpan span("tv:" + pass_name, "tv");
  SmtContext ctx;
  SymbolicInterpreter interpreter(ctx, kValidationTableEntries);
  if (cache != nullptr) {
    // Cached block summaries hold SmtRefs of the previous context.
    cache->summaries().BeginContext();
  }
  const VersionSemantics before_sem = InterpretVersion(interpreter, before, cache, options);
  const VersionSemantics after_sem = InterpretVersion(interpreter, after, cache, options);
  std::optional<StructHasher> canonical;
  if (cache != nullptr) {
    canonical.emplace(ctx, StructHasher::Mode::kCanonical);
  }
  TvPassResult result = CompareSemantics(ctx, before_sem, after_sem, pass_name, options, cache,
                                         canonical.has_value() ? &*canonical : nullptr);
  RecordPassResult(result);
  return result;
}

TvReport TranslationValidator::Validate(const Program& program, const BugConfig& bugs,
                                        ValidationCache* cache) const {
  TvReport report;

  // Version 0: the type-checked input program.
  auto& versions = report.versions;
  ProgramPtr current = program.Clone();
  try {
    TraceSpan span("typecheck", "tv");
    TypeCheck(*current, TypeCheckOptionsFromBugs(bugs));
  } catch (const std::exception& error) {
    report.crashed = true;
    report.crash_message = std::string("type checking: ") + error.what();
    return report;
  }
  versions.emplace_back("<input>", current->Clone());
  // Parallel to `versions`: the text the pipeline printed for each changed
  // version, which the ToP4 round trip below reparses (the input's entry
  // stays empty: it is never reparsed).
  std::vector<std::string> emitted(1);

  try {
    TraceSpan span("passes", "tv");
    pipeline_.Run(*current, bugs,
                  [&](const std::string& pass_name, const Program& snapshot,
                      const std::string& text) {
                    versions.emplace_back(pass_name, snapshot.Clone());
                    emitted.push_back(text);
                  });
    report.lowered = std::move(current);
  } catch (const std::exception& error) {
    report.crashed = true;
    report.crash_message = error.what();
    // Versions captured before the crash are still validated below — the
    // paper likewise pinpoints the earliest broken pass.
  }

  // All versions are interpreted into one shared context: hash-consing
  // dedupes the largely identical DAGs of consecutive versions, and a pass
  // that changed nothing semantically short-circuits to a constant-false
  // difference without a SAT call.
  SmtContext ctx;
  SymbolicInterpreter interpreter(ctx, kValidationTableEntries);
  // One canonical hasher spans every pass pair: its per-node memo is what
  // makes re-fingerprinting the shared version of consecutive pairs cheap.
  std::optional<StructHasher> canonical;
  if (cache != nullptr) {
    canonical.emplace(ctx, StructHasher::Mode::kCanonical);
    // Cached block summaries hold SmtRefs of the previous context. Within
    // this context, blocks the pipeline never touched — typically the
    // parser and deparser of every single version — interpret once total.
    cache->summaries().BeginContext();
  }
  VersionSemantics before_sem =
      InterpretVersion(interpreter, *versions[0].second, cache, options_);
  const auto validation_deadline =
      options_.program_budget_ms == 0
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::milliseconds(options_.program_budget_ms);
  for (size_t i = 1; i < versions.size(); ++i) {
    const auto& [pass_name, after] = versions[i];
    if (std::chrono::steady_clock::now() >= validation_deadline) {
      // Out of budget for this program: report the remaining passes as
      // unvalidatable instead of stalling the campaign.
      TvPassResult skipped;
      skipped.pass_name = pass_name;
      skipped.verdict = TvVerdict::kStructuralMismatch;
      skipped.detail = "per-program validation budget exceeded";
      RecordPassResult(skipped);
      report.pass_results.push_back(std::move(skipped));
      continue;
    }
    TraceSpan pair_span("tv:" + pass_name, "tv");
    // Re-parse the emitted program first (ToP4 round-trip, §5.2). Failure is
    // an "invalid transformation" bug.
    TvPassResult result;
    result.pass_name = pass_name;
    ProgramPtr reparsed;
    try {
      reparsed = Parser::ParseString(emitted[i]);
      TypeCheck(*reparsed);
    } catch (const std::exception& error) {
      result.verdict = TvVerdict::kInvalidEmit;
      result.detail = error.what();
      RecordPassResult(result);
      report.pass_results.push_back(std::move(result));
      break;
    }
    // The comparison runs against the *reparsed* program, so a semantics-
    // changing ToP4 or parser bug is caught alongside pass bugs (§5.2).
    VersionSemantics after_sem = InterpretVersion(interpreter, *reparsed, cache, options_);
    report.pass_results.push_back(
        CompareSemantics(ctx, before_sem, after_sem, pass_name, options_, cache,
                         canonical.has_value() ? &*canonical : nullptr));
    RecordPassResult(report.pass_results.back());
    if (PrintProgram(*reparsed) == emitted[i]) {
      // Round trip was faithful: reuse the interpretation as the "before"
      // of the next pass pair.
      before_sem = std::move(after_sem);
    } else {
      // The printed program re-parsed to a different AST. Keep validating
      // from the in-memory snapshot so a printer bug does not cascade into
      // every later pass's verdict.
      before_sem = InterpretVersion(interpreter, *after, cache, options_);
    }
  }
  return report;
}

}  // namespace gauntlet
