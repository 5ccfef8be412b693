#ifndef SRC_CACHE_SUMMARY_CACHE_H_
#define SRC_CACHE_SUMMARY_CACHE_H_

#include <cstdint>
#include <map>
#include <unordered_map>

#include "src/ast/program.h"
#include "src/cache/struct_hash.h"
#include "src/sym/interpreter.h"

namespace gauntlet {

// Block-level symbolic summary memoization. Consecutive pipeline versions
// usually differ in one block: a pass rewrites the ingress control and
// leaves the parser and deparser untouched. The validator still interprets
// every block of every version. This cache keys a block's *source* — its
// printed declaration plus everything outside it that interpretation can
// observe — and maps it to the BlockSemantics an earlier interpretation in
// the same SmtContext produced, so an AST-identical block is interpreted
// once per context instead of once per version.
//
// Why a hit is bit-exact: the interpreter builds each block with a fresh
// per-call implementation (undef/emit counters reset, no cross-block
// state), names every variable from the block's own source, and interns
// nodes in the hash-consing SmtContext. Re-interpreting an AST-identical
// block therefore returns the very same SmtRefs and creates no new context
// state — so skipping the re-interpretation is invisible to every
// downstream query, and reports are byte-identical with the cache on or
// off (the --no-incremental A/B check in CI).
//
// Scoping: BlockSemantics holds SmtRefs, which are meaningless outside the
// SmtContext they were built in. Callers must call BeginContext() whenever
// they start interpreting into a new context (the validator does so at
// every Validate/CompareVersions entry). The key → semantics-fingerprint
// side table is context-free and survives BeginContext, letting later
// contexts of the same owner skip the canonical DAG hashing behind version
// fingerprints.
class SummaryCache {
 public:
  // Drops every cached BlockSemantics (their SmtRefs belong to the previous
  // SmtContext). The fingerprint side table is kept: fingerprints are
  // context-independent.
  void BeginContext() { summaries_.clear(); }

  // Null on a miss; counts hits/misses.
  const BlockSemantics* Find(const Fingerprint& key) {
    auto it = summaries_.find(key);
    if (it == summaries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &it->second;
  }
  void Insert(const Fingerprint& key, const BlockSemantics& semantics) {
    summaries_.emplace(key, semantics);
  }
  size_t size() const { return summaries_.size(); }

  // Context-free side table: block key → canonical semantics fingerprint.
  // The mapping is functional (the key pins the block source and the table
  // entry count, interpretation is deterministic, and canonical hashing is
  // context-independent), so a stored fingerprint equals what re-hashing
  // would compute — reusing it cannot change any verdict-cache lookup.
  const Fingerprint* FindSemanticsFingerprint(const Fingerprint& key) {
    auto it = stored_fingerprints_.find(key);
    if (it == stored_fingerprints_.end()) {
      return nullptr;
    }
    ++fingerprints_reused_;
    return &it->second;
  }
  void RecordSemanticsFingerprint(const Fingerprint& key, const Fingerprint& fp) {
    stored_fingerprints_.emplace(key, fp);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t fingerprints_reused() const { return fingerprints_reused_; }

 private:
  std::unordered_map<Fingerprint, BlockSemantics, FingerprintHash> summaries_;
  std::map<Fingerprint, Fingerprint> stored_fingerprints_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t fingerprints_reused_ = 0;
};

// Fingerprint of everything *outside* a package block's declaration that
// its interpretation can observe: the named type declarations (field
// layouts decide input variables and output leaves), every top-level
// declaration that is not a control/parser body (functions a block may
// call), and the symbolic table entry count (the same block encodes
// differently under a different count).
Fingerprint BlockEnvironmentFingerprint(const Program& program, size_t table_entries);

// Key for one package block: the environment fingerprint, the block's role
// (the same control interprets differently as ingress vs. deparser), and
// its printed declaration. Returns an invalid fingerprint when the block's
// declaration cannot be found (the interpreter will fail loudly instead).
Fingerprint BlockSummaryKey(const Fingerprint& environment, const Program& program,
                            const PackageBlock& block);

}  // namespace gauntlet

#endif  // SRC_CACHE_SUMMARY_CACHE_H_
