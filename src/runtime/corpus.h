#ifndef SRC_RUNTIME_CORPUS_H_
#define SRC_RUNTIME_CORPUS_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/cache/struct_hash.h"
#include "src/gauntlet/campaign.h"
#include "src/target/stf.h"

namespace gauntlet {

// --- indexed manifest -------------------------------------------------------

// Schema version of a corpus directory's manifest.json. Bumped on key
// renames or layout changes.
inline constexpr int kCorpusManifestVersion = 1;

// One stored reproducer's index entry. The fingerprint is the struct_hash
// content fingerprint of the triple (program text + STF text), so two
// corpora can be compared — and merged — without reading any triple files:
// equal fingerprints mean byte-identical reproducers.
struct CorpusManifestEntry {
  std::string key;
  Fingerprint fingerprint;
  int program_index = 0;
  std::string method;      // DetectionMethodToString of the stored finding
  std::string kind;        // "crash" | "semantic"
  std::string component;
  std::string attributed;  // catalogue name, empty for unattributed findings
};

// The corpus index: every stored triple, keyed by reproducer key, with an
// O(1) fingerprint lookup on the side. Lives as `manifest.json` next to the
// triples, so dedup and lookup never rescan the directory — at large corpus
// sizes (millions of findings) the directory walk is the cost that matters.
class CorpusManifest {
 public:
  void Insert(CorpusManifestEntry entry);

  bool HasKey(const std::string& key) const { return entries_.count(key) > 0; }
  const CorpusManifestEntry* Find(const std::string& key) const;
  const CorpusManifestEntry* FindByFingerprint(const Fingerprint& fingerprint) const;

  int size() const { return static_cast<int>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  // Key-sorted (std::map), which keeps the JSON rendering byte-stable.
  const std::map<std::string, CorpusManifestEntry>& entries() const { return entries_; }

 private:
  std::map<std::string, CorpusManifestEntry> entries_;
  std::map<Fingerprint, std::string> by_fingerprint_;
};

// The content fingerprint a manifest entry carries.
Fingerprint FingerprintReproducer(const std::string& program_text,
                                  const std::string& stf_text);

// Byte-stable JSON rendering (sorted keys, 2-space indent) and its strict
// inverse. Parse accepts exactly the subset CorpusManifestJson emits;
// returns false and sets *error on anything else (including a version
// mismatch — a manifest from a future schema must not be half-read).
std::string CorpusManifestJson(const CorpusManifest& manifest);
bool ParseCorpusManifestJson(const std::string& text, CorpusManifest* out,
                             std::string* error);

// True when `directory` carries a manifest.json.
bool CorpusHasManifest(const std::string& directory);

// Loads a directory's manifest. When manifest.json is missing, rebuilds the
// index from a legacy flat directory of triples (reading each triple to
// fingerprint it and recover the finding metadata) — the migration path for
// corpora written before the manifest existed. The rebuild is in-memory
// only; callers decide whether to persist it (CorpusStore does).
CorpusManifest LoadCorpusManifest(const std::string& directory);

// Writes `manifest` as `directory`/manifest.json; throws CompileError when
// the file cannot be written.
void SaveCorpusManifest(const std::string& directory, const CorpusManifest& manifest);

// Persists campaign findings as replayable reproducer triples under one
// directory, indexed by a manifest.json:
//
//   <key>.p4            the generated program (printer output, re-parseable)
//   <key>.stf           the failing packet test (empty for crash findings)
//   <key>.finding.json  method / kind / component / attribution / detail
//   manifest.json       the CorpusManifest index over every stored key
//
// `key` is the attributed fault's catalogue name, or the blamed component
// for unattributed findings — so the corpus holds one reproducer per
// distinct bug, matching the campaign report's dedup. A key that already
// exists in the manifest (from this run or a previous one) is skipped;
// campaigns can be re-run into the same corpus without churning files.
// Dedup is an in-memory map lookup — O(1) however large the corpus grows —
// and opening a legacy manifest-less directory rebuilds (and persists) the
// manifest once. Add is thread-safe, though the parallel campaign stores
// findings post-merge in finding order so corpus contents are
// jobs-count-deterministic too.
class CorpusStore {
 public:
  // Creates `directory` (and parents) if missing; throws CompileError when
  // the path cannot be created or is not a directory.
  explicit CorpusStore(std::string directory);

  // Stores one finding's reproducer and updates the on-disk manifest.
  // Returns the key when files were written, empty string when the finding
  // was a duplicate of a stored key.
  std::string Add(const Program& program, const Finding& finding);

  // True when `key` is already stored (by this instance or on disk from a
  // previous run). A manifest lookup — no directory scan.
  bool HasKey(const std::string& key) const;

  // Number of reproducers written by this store instance.
  int stored_count() const;

  const std::string& directory() const { return directory_; }
  const CorpusManifest& manifest() const { return manifest_; }

  // The dedup/file-name key for a finding.
  static std::string KeyFor(const Finding& finding);

 private:
  std::string directory_;
  mutable std::mutex mutex_;
  CorpusManifest manifest_;
  int stored_ = 0;
};

// One stored reproducer read back from a corpus directory.
struct CorpusEntry {
  std::string key;
  std::string program_text;
  std::string stf_text;
};

// Lists the reproducer triples in a corpus directory, sorted by key. With a
// manifest.json the key set comes straight from the index; legacy flat
// directories fall back to a scan. Entries missing their .p4 or .stf
// sibling are skipped.
std::vector<CorpusEntry> ListCorpus(const std::string& directory);

// Counts the reproducer triples without reading their contents (manifest
// size when indexed, stat-only directory scan otherwise).
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
