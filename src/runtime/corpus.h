#ifndef SRC_RUNTIME_CORPUS_H_
#define SRC_RUNTIME_CORPUS_H_

#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/gauntlet/campaign.h"
#include "src/target/stf.h"

namespace gauntlet {

// Persists campaign findings as replayable reproducer triples under one
// directory:
//
//   <key>.finding.json  method / kind / component / attribution / detail
//   <key>.p4            the generated program (printer output, re-parseable)
//   <key>.stf           the failing packet test (empty for crash findings)
//
// `key` is the attributed fault's catalogue name, or the blamed component
// for unattributed findings — so the corpus holds one reproducer per
// distinct bug, matching the campaign report's dedup. The triple files are
// the index: a key is stored once its .p4 and .stf both exist. Add writes
// the three files atomically in the order above, .stf last, so a run killed
// mid-Add leaves a torn triple that no reader counts and that the next Add
// of the same key rewrites whole. A key already stored (from this run or a
// previous one) is skipped; campaigns can be re-run into the same corpus
// without churning files. The store scans the directory once, at open;
// dedup after that is an in-memory set lookup. Add is thread-safe, though
// the parallel campaign stores findings post-merge in finding order so
// corpus contents are jobs-count-deterministic too.
class CorpusStore {
 public:
  // Creates `directory` (and parents) if missing; throws CompileError when
  // the path cannot be created or is not a directory.
  explicit CorpusStore(std::string directory);

  // Stores one finding's reproducer. Returns the key when files were
  // written, empty string when the finding was a duplicate of a stored key.
  std::string Add(const Program& program, const Finding& finding);

  // True when `key` is already stored (by this instance or on disk from a
  // previous run). A set lookup — no directory scan.
  bool HasKey(const std::string& key) const;

  // Number of reproducers written by this store instance.
  int stored_count() const;

  const std::string& directory() const { return directory_; }

  // The dedup/file-name key for a finding.
  static std::string KeyFor(const Finding& finding);

 private:
  std::string directory_;
  mutable std::mutex mutex_;
  std::set<std::string> keys_;
  int stored_ = 0;
};

// One stored reproducer read back from a corpus directory.
struct CorpusEntry {
  std::string key;
  std::string program_text;
  std::string stf_text;
};

// Lists the reproducer triples in a corpus directory, sorted by key. A .p4
// without its .stf sibling is a torn write and is skipped, as is every
// other file.
std::vector<CorpusEntry> ListCorpus(const std::string& directory);

// Counts the reproducer triples without reading their contents (a
// stat-only directory scan).
int CountCorpus(const std::string& directory);

// --- replay -----------------------------------------------------------------

struct ReplayOutcome {
  int tests_run = 0;
  int failures = 0;
  // One line per failure: "<target> <test>: <harness diagnosis>".
  std::vector<std::string> failure_details;
  bool passed() const { return failures == 0; }
};

// Re-runs stored STF tests through the named registered back ends (empty =
// every registered target), compiled with `bugs` (None() = the clean
// compilers, i.e. "does this reproducer still fail after the fix?").
// Compile crashes surface as CompilerBugError to the caller — a reproducer
// whose compile aborts is a crash reproducer, not a packet mismatch.
ReplayOutcome ReplayTests(const Program& program, const std::vector<PacketTest>& tests,
                          const BugConfig& bugs,
                          const std::vector<std::string>& targets = {});

// Convenience wrapper: parses the program and STF text (throwing
// CompileError loudly on malformed input) and replays on the named back
// ends (empty = all registered).
ReplayOutcome ReplayStfText(const std::string& program_text, const std::string& stf_text,
                            const BugConfig& bugs,
                            const std::vector<std::string>& targets = {});

// --- bulk replay (corpus-driven regression runs) ---------------------------

// One corpus entry's bulk-replay result. A compile crash during replay
// counts as a failure (the reproducer still reproduces a crash) and is
// reported in the outcome's failure_details.
struct CorpusReplayResult {
  std::string key;
  ReplayOutcome outcome;
};

struct CorpusReplaySummary {
  int entries = 0;
  int failed_entries = 0;
  std::vector<CorpusReplayResult> results;  // sorted by key, like ListCorpus
  bool passed() const { return failed_entries == 0; }
};

// Replays every stored triple in `directory` through the named back ends
// (empty = all registered), compiled with `bugs`. The gate for
// corpus-driven regression runs: with BugConfig::None() every reproducer's
// expected outputs (derived from source semantics) must pass on the fixed
// compilers.
// `progress`, when set, is called after each entry with (entries done,
// entries failed so far) — the `gauntlet replay --progress` heartbeat.
CorpusReplaySummary ReplayCorpus(const std::string& directory, const BugConfig& bugs,
                                 const std::vector<std::string>& targets = {},
                                 const std::function<void(int, int)>& progress = {});

}  // namespace gauntlet

#endif  // SRC_RUNTIME_CORPUS_H_
