#ifndef SRC_CACHE_CACHE_FILE_H_
#define SRC_CACHE_CACHE_FILE_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace gauntlet {

class ValidationCache;

// ---------------------------------------------------------------------------
// Cross-run cache persistence (first cut).
//
// Serializes the two cache layers whose contents are sound across processes:
//
//   * blast templates — bit-exact CNF fragments keyed by exact structural
//     fingerprint; they are context-independent by construction, so a later
//     run replaying them produces clause-for-clause identical SAT instances;
//   * verdict entries — whole equivalence answers keyed by canonical
//     (before, after) fingerprints, stored *grouped by program key* so the
//     reload preserves the per-program scoping that keeps campaign reports
//     bit-identical for any scheduling.
//
// The format is a versioned line-oriented text file ("gauntletcache 1");
// strings are hex-encoded so details and witness variable names round-trip
// byte-exactly. Malformed input fails loudly with CompileError — a corrupt
// warm-start file silently ignored would make CI timings lie.
// ---------------------------------------------------------------------------

// Seals and serializes the given caches into one stream, deduplicating by
// fingerprint (first cache wins; replay is bit-exact, so any choice is
// equivalent). This is how a parallel campaign merges its per-worker caches
// into one warm-start file.
void SaveValidationCaches(const std::vector<ValidationCache*>& caches, std::ostream& out);

// Parses a stream produced by SaveValidationCaches into `cache` (templates
// into the blast layer, verdicts into the per-program store). Throws
// CompileError with a line number on malformed input.
void LoadValidationCache(std::istream& in, ValidationCache& cache);

// File wrappers. Load returns false when the file does not exist (a cold
// start, not an error); Save writes atomically (src/support/file_io.h) and
// throws CompileError when the path cannot be written.
bool LoadValidationCacheFile(const std::string& path, ValidationCache& cache);
void SaveValidationCacheFile(const std::string& path,
                             const std::vector<ValidationCache*>& caches);

// Merges several cache files into `destination`: each existing source loads
// into its own cache and the set re-serializes with SaveValidationCaches'
// fingerprint dedup (first source wins — replay is bit-exact, so any choice
// warms later runs identically). Missing sources are skipped (a shard that
// never wrote its cache is a cold shard, not an error); corrupt sources
// fail loudly like any other load. Returns the number of files read. How a
// shard coordinator (src/dist/) folds per-shard cache files back into the
// campaign's one --cache-file.
int MergeValidationCacheFiles(const std::string& destination,
                              const std::vector<std::string>& sources);

}  // namespace gauntlet

#endif  // SRC_CACHE_CACHE_FILE_H_
