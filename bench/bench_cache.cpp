// Cached-vs-uncached validation wall clock (the src/cache/ subsystem's CI
// gate). Runs the campaign-shaped workload — validate a stream of random
// programs, then re-validate each one (the attribution / find-fix rerun
// pattern) — once without a cache and once with a per-run ValidationCache,
// checking three things:
//
//   1. every verdict is identical with and without the cache;
//   2. the cache actually hit (nonzero blast/verdict counters);
//   3. cached validation is not slower than uncached (best-of-N wall
//      clock) — exits nonzero otherwise, so CI fails on a regression.
//
// Plain binary (no Google Benchmark dependency) so it always builds and can
// run as a CI step.

#include <chrono>
#include <cstdio>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/gen/generator.h"
#include "src/obs/metrics.h"
#include "src/passes/pass.h"
#include "src/tv/validator.h"

namespace {

using namespace gauntlet;
using Clock = std::chrono::steady_clock;

constexpr int kPrograms = 10;
constexpr int kReps = 3;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::vector<ProgramPtr> GenerateWorkload() {
  std::vector<ProgramPtr> programs;
  GeneratorOptions options;
  options.seed = 2020;
  ProgramGenerator generator(options);
  for (int i = 0; i < kPrograms; ++i) {
    programs.push_back(generator.Generate());
  }
  return programs;
}

// Validates every program twice (detection + rerun). Returns the verdict
// trace for the identity check.
std::vector<TvVerdict> RunValidation(const std::vector<ProgramPtr>& programs,
                                     const BugConfig& bugs, ValidationCache* cache) {
  const TranslationValidator validator(PassManager::StandardPipeline());
  std::vector<TvVerdict> verdicts;
  for (const ProgramPtr& program : programs) {
    if (cache != nullptr) {
      cache->BeginProgram();
    }
    for (int pass = 0; pass < 2; ++pass) {
      const TvReport report = validator.Validate(*program, bugs, cache);
      for (const TvPassResult& result : report.pass_results) {
        verdicts.push_back(result.verdict);
      }
    }
  }
  return verdicts;
}

}  // namespace

int main() {
  const std::vector<ProgramPtr> programs = GenerateWorkload();
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  bugs.Enable(BugId::kExitIgnoresCopyOut);

  double best_uncached = -1.0;
  double best_cached = -1.0;
  std::vector<TvVerdict> uncached_verdicts;
  std::vector<TvVerdict> cached_verdicts;
  CacheStats stats;

  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point plain_start = Clock::now();
    uncached_verdicts = RunValidation(programs, bugs, nullptr);
    const double plain_ms = MillisSince(plain_start);
    if (best_uncached < 0 || plain_ms < best_uncached) {
      best_uncached = plain_ms;
    }

    ValidationCache cache;  // fresh per rep, like a fresh campaign worker
    const Clock::time_point cached_start = Clock::now();
    cached_verdicts = RunValidation(programs, bugs, &cache);
    const double cached_ms = MillisSince(cached_start);
    if (best_cached < 0 || cached_ms < best_cached) {
      best_cached = cached_ms;
    }
    stats = cache.Stats();
    std::printf("rep %d: uncached %.1f ms, cached %.1f ms (%.2fx)\n", rep, plain_ms,
                cached_ms, plain_ms / cached_ms);
  }

  std::printf("%d programs x 2 validations, best of %d reps: uncached %.1f ms, "
              "cached %.1f ms (%.2fx)\n",
              kPrograms, kReps, best_uncached, best_cached, best_uncached / best_cached);
  MetricsRegistry registry;
  stats.RecordMetrics(registry);
  std::printf("%s\n", MetricsTextSummary(registry).c_str());

  if (uncached_verdicts != cached_verdicts) {
    std::fprintf(stderr, "FAIL: verdicts differ between cached and uncached validation\n");
    return 1;
  }
  if (stats.blast_hits == 0 || stats.verdict_hits + stats.pairs_short_circuited == 0) {
    std::fprintf(stderr, "FAIL: the cache never hit on the multi-pass workload\n");
    return 1;
  }
  if (best_cached > best_uncached) {
    std::fprintf(stderr, "FAIL: cached validation (%.1f ms) slower than uncached (%.1f ms)\n",
                 best_cached, best_uncached);
    return 1;
  }
  std::printf("OK: cached validation is no slower, verdicts bit-identical\n");
  return 0;
}
