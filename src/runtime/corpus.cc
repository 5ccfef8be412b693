#include "src/runtime/corpus.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gen/generator.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/file_io.h"
#include "src/support/json.h"
#include "src/target/target.h"

namespace gauntlet {

namespace {

namespace fs = std::filesystem;

// File-name- and JSON-safe slug: catalogue names are already kebab-case;
// component strings can hold arbitrary crash-site text.
std::string Sanitize(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '-');
  }
  return out.empty() ? std::string("finding") : out;
}

void WriteOrThrow(const fs::path& path, const std::string& content) {
  if (!WriteFileAtomic(path.string(), content)) {
    throw CompileError("corpus: cannot write '" + path.string() + "'");
  }
}

std::string ReadOrThrow(const fs::path& path) {
  std::string text;
  if (!ReadFile(path.string(), &text)) {
    throw CompileError("corpus: cannot read '" + path.string() + "'");
  }
  return text;
}

std::string FindingJson(const std::string& key, const Finding& finding) {
  std::ostringstream json;
  json << "{\n"
       << "  \"key\": " << JsonQuoted(key) << ",\n"
       << "  \"program_index\": " << finding.program_index << ",\n"
       << "  \"method\": \"" << DetectionMethodToString(finding.method) << "\",\n"
       << "  \"kind\": \"" << (finding.kind == BugKind::kCrash ? "crash" : "semantic")
       << "\",\n"
       << "  \"component\": " << JsonQuoted(finding.component) << ",\n"
       << "  \"attributed\": ";
  if (finding.attributed.has_value()) {
    json << "\"" << BugIdToString(*finding.attributed) << "\"";
  } else {
    json << "null";
  }
  json << ",\n"
       << "  \"detail\": " << JsonQuoted(finding.detail) << "\n"
       << "}\n";
  return json.str();
}

std::string FingerprintToHex(const Fingerprint& fingerprint) {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(fingerprint.hi),
                static_cast<unsigned long long>(fingerprint.lo));
  return buffer;
}

bool FingerprintFromHex(const std::string& hex, Fingerprint* out) {
  const char* const begin = hex.data();
  return hex.size() == 32 && std::from_chars(begin, begin + 16, out->hi, 16).ptr == begin + 16 &&
         std::from_chars(begin + 16, begin + 32, out->lo, 16).ptr == begin + 32;
}

// The manifest entry's string field called `field`; null for any other name.
std::string* EntryStringField(CorpusManifestEntry* entry, const std::string& field) {
  if (field == "attributed") return &entry->attributed;
  if (field == "component") return &entry->component;
  if (field == "kind") return &entry->kind;
  if (field == "method") return &entry->method;
  return nullptr;
}

// Recovers a manifest entry's finding metadata from a stored finding.json
// (the legacy-directory migration path). Unknown fields are skipped;
// missing fields stay default — an old triple with a sparse finding.json is
// still indexable, and an unreadable one indexes with no metadata at all.
void ParseFindingMetadata(const std::string& text, CorpusManifestEntry* entry) {
  JsonValue root;
  if (!ParseJson(text, &root, nullptr)) {
    return;
  }
  for (const auto& [field, value] : root.members) {
    std::string* slot = EntryStringField(entry, field);
    if (slot != nullptr && value.kind == JsonValue::Kind::kString) {
      *slot = value.string;
    } else if (field == "program_index" && value.kind == JsonValue::Kind::kNumber &&
               value.number <= INT_MAX) {
      entry->program_index = static_cast<int>(value.number);
    }
  }
}

const char* kManifestFileName = "manifest.json";

// Scans a flat directory for reproducer triples (no manifest involved).
std::vector<std::string> ScanTripleKeys(const std::string& directory) {
  std::vector<std::string> keys;
  if (!fs::is_directory(directory)) {
    return keys;
  }
  for (const fs::directory_entry& file : fs::directory_iterator(directory)) {
    const fs::path path = file.path();
    if (path.extension() != ".p4") {
      continue;
    }
    fs::path stf = path;
    stf.replace_extension(".stf");
    if (fs::exists(stf)) {
      keys.push_back(path.stem().string());
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

// --- manifest ---------------------------------------------------------------

void CorpusManifest::Insert(CorpusManifestEntry entry) {
  const std::string key = entry.key;
  const Fingerprint fingerprint = entry.fingerprint;
  if (entries_.emplace(key, std::move(entry)).second) {
    by_fingerprint_.emplace(fingerprint, key);
  }
}

const CorpusManifestEntry* CorpusManifest::Find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

const CorpusManifestEntry* CorpusManifest::FindByFingerprint(
    const Fingerprint& fingerprint) const {
  const auto it = by_fingerprint_.find(fingerprint);
  return it == by_fingerprint_.end() ? nullptr : Find(it->second);
}

Fingerprint FingerprintReproducer(const std::string& program_text,
                                  const std::string& stf_text) {
  // Order-sensitive combine: (program, stf) and (stf, program) must not
  // collide, and the empty-STF crash triples still get distinct prints.
  return CombineFingerprints(FingerprintOfString(program_text),
                             FingerprintOfString(stf_text));
}

std::string CorpusManifestJson(const CorpusManifest& manifest) {
  std::ostringstream json;
  json << "{\n  \"version\": " << kCorpusManifestVersion << ",\n  \"entries\": {";
  bool first = true;
  for (const auto& [key, entry] : manifest.entries()) {
    json << (first ? "\n" : ",\n");
    first = false;
    json << "    " << JsonQuoted(key) << ": {\n"
         << "      \"attributed\": " << JsonQuoted(entry.attributed) << ",\n"
         << "      \"component\": " << JsonQuoted(entry.component) << ",\n"
         << "      \"fingerprint\": \"" << FingerprintToHex(entry.fingerprint) << "\",\n"
         << "      \"kind\": " << JsonQuoted(entry.kind) << ",\n"
         << "      \"method\": " << JsonQuoted(entry.method) << ",\n"
         << "      \"program_index\": " << entry.program_index << "\n"
         << "    }";
  }
  json << (first ? "},\n" : "\n  },\n");
  json << "  \"total\": " << manifest.size() << "\n}\n";
  return json.str();
}

bool ParseCorpusManifestJson(const std::string& text, CorpusManifest* out,
                             std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(text, &root, &parse_error)) {
    return fail(parse_error);
  }
  if (root.kind != JsonValue::Kind::kObject) {
    return fail("expected top-level object");
  }
  CorpusManifest manifest;
  bool saw_version = false;
  for (const auto& [field, value] : root.members) {
    if (field == "version") {
      if (value.kind != JsonValue::Kind::kNumber) {
        return fail("malformed version");
      }
      if (value.number != static_cast<uint64_t>(kCorpusManifestVersion)) {
        return fail("unsupported manifest version " + std::to_string(value.number));
      }
      saw_version = true;
    } else if (field == "total") {
      if (value.kind != JsonValue::Kind::kNumber) {
        return fail("malformed total");
      }
    } else if (field == "entries") {
      if (value.kind != JsonValue::Kind::kObject) {
        return fail("entries must be an object");
      }
      for (const auto& [key, fields] : value.members) {
        if (fields.kind != JsonValue::Kind::kObject) {
          return fail("malformed entry '" + key + "'");
        }
        CorpusManifestEntry entry;
        entry.key = key;
        const std::string where = " in entry '" + key + "'";
        for (const auto& [name, member] : fields.members) {
          std::string* slot = EntryStringField(&entry, name);
          if (name == "program_index") {
            if (member.kind != JsonValue::Kind::kNumber || member.number > INT_MAX) {
              return fail("malformed program_index" + where);
            }
            entry.program_index = static_cast<int>(member.number);
          } else if (member.kind != JsonValue::Kind::kString) {
            return fail("malformed value" + where);
          } else if (name == "fingerprint") {
            if (!FingerprintFromHex(member.string, &entry.fingerprint)) {
              return fail("malformed fingerprint" + where);
            }
          } else if (slot != nullptr) {
            *slot = member.string;
          } else {
            return fail("unknown field '" + name + "'" + where);
          }
        }
        manifest.Insert(std::move(entry));
      }
    } else {
      return fail("unknown top-level field '" + field + "'");
    }
  }
  if (!saw_version) {
    return fail("missing version");
  }
  *out = std::move(manifest);
  return true;
}

bool CorpusHasManifest(const std::string& directory) {
  return fs::exists(fs::path(directory) / kManifestFileName);
}

CorpusManifest LoadCorpusManifest(const std::string& directory) {
  CorpusManifest manifest;
  const fs::path manifest_path = fs::path(directory) / kManifestFileName;
  if (fs::exists(manifest_path)) {
    std::string error;
    if (!ParseCorpusManifestJson(ReadOrThrow(manifest_path), &manifest, &error)) {
      // Fail loudly: a corrupt index silently rebuilt could mask a key that
      // was deliberately stored, breaking cross-run dedup.
      throw CompileError("corpus: cannot parse '" + manifest_path.string() + "': " + error);
    }
    return manifest;
  }
  // Migration path: index a legacy flat directory by reading each triple
  // once. finding.json is optional — a bare program/STF pair still indexes.
  for (const std::string& key : ScanTripleKeys(directory)) {
    const fs::path base = fs::path(directory) / key;
    CorpusManifestEntry entry;
    entry.key = key;
    entry.fingerprint = FingerprintReproducer(ReadOrThrow(base.string() + ".p4"),
                                              ReadOrThrow(base.string() + ".stf"));
    std::string finding_json;
    ReadFile(base.string() + ".finding.json", &finding_json);
    ParseFindingMetadata(finding_json, &entry);
    manifest.Insert(std::move(entry));
  }
  return manifest;
}

void SaveCorpusManifest(const std::string& directory, const CorpusManifest& manifest) {
  WriteOrThrow(fs::path(directory) / kManifestFileName, CorpusManifestJson(manifest));
}

// --- store ------------------------------------------------------------------

CorpusStore::CorpusStore(std::string directory) : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw CompileError("corpus: cannot create directory '" + directory_ + "'");
  }
  manifest_ = LoadCorpusManifest(directory_);
  // Opening a populated legacy directory persists the rebuilt index, so the
  // migration cost (one full read) is paid exactly once.
  if (!manifest_.empty() && !CorpusHasManifest(directory_)) {
    SaveCorpusManifest(directory_, manifest_);
  }
}

std::string CorpusStore::KeyFor(const Finding& finding) {
  if (finding.attributed.has_value()) {
    return Sanitize(BugIdToString(*finding.attributed));
  }
  return "unattributed-" + Sanitize(finding.component);
}

std::string CorpusStore::Add(const Program& program, const Finding& finding) {
  const std::string key = KeyFor(finding);
  const fs::path base = fs::path(directory_) / key;
  std::lock_guard<std::mutex> lock(mutex_);
  if (manifest_.HasKey(key)) {
    return "";
  }
  const std::string program_text = PrintProgram(program);
  const std::string stf =
      finding.repro_test.has_value() ? EmitStf(*finding.repro_test) : std::string();
  WriteOrThrow(base.string() + ".p4", program_text);
  WriteOrThrow(base.string() + ".stf", stf);
  WriteOrThrow(base.string() + ".finding.json", FindingJson(key, finding));
  CorpusManifestEntry entry;
  entry.key = key;
  entry.fingerprint = FingerprintReproducer(program_text, stf);
  entry.program_index = finding.program_index;
  entry.method = DetectionMethodToString(finding.method);
  entry.kind = finding.kind == BugKind::kCrash ? "crash" : "semantic";
  entry.component = finding.component;
  entry.attributed =
      finding.attributed.has_value() ? BugIdToString(*finding.attributed) : std::string();
  manifest_.Insert(std::move(entry));
  // Rewriting the whole index per Add keeps it crash-consistent; the JSON
  // render is linear in corpus size and Add only fires for *new* distinct
  // bugs, which are rare by definition.
  SaveCorpusManifest(directory_, manifest_);
  ++stored_;
  return key;
}

int CorpusStore::stored_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stored_;
}

bool CorpusStore::HasKey(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_.HasKey(key);
}

int CountCorpus(const std::string& directory) {
  if (CorpusHasManifest(directory)) {
    return LoadCorpusManifest(directory).size();
  }
  return static_cast<int>(ScanTripleKeys(directory).size());
}

std::vector<CorpusEntry> ListCorpus(const std::string& directory) {
  std::vector<CorpusEntry> entries;
  std::vector<std::string> keys;
  if (CorpusHasManifest(directory)) {
    const CorpusManifest manifest = LoadCorpusManifest(directory);
    for (const auto& [key, entry] : manifest.entries()) {
      keys.push_back(key);
    }
  } else {
    keys = ScanTripleKeys(directory);
  }
  for (const std::string& key : keys) {
    const fs::path base = fs::path(directory) / key;
    if (!fs::exists(base.string() + ".p4") || !fs::exists(base.string() + ".stf")) {
      continue;
    }
    CorpusEntry entry;
    entry.key = key;
    entry.program_text = ReadOrThrow(base.string() + ".p4");
    entry.stf_text = ReadOrThrow(base.string() + ".stf");
    entries.push_back(std::move(entry));
  }
  return entries;
}

ReplayOutcome ReplayTests(const Program& program, const std::vector<PacketTest>& tests,
                          const BugConfig& bugs, const std::vector<std::string>& targets) {
  ReplayOutcome outcome;
  for (const Target* target : TargetRegistry::Resolve(targets)) {
    std::unique_ptr<Executable> executable;
    {
      TraceSpan span(std::string("compile:") + target->name(), "target");
      executable = target->Compile(program, bugs);
    }
    TraceSpan span(std::string("execute:") + target->name(), "target");
    for (const PacketTest& test : tests) {
      ++outcome.tests_run;
      const PacketTestOutcome result = RunPacketTest(*executable, test);
      if (!result.passed) {
        ++outcome.failures;
        outcome.failure_details.push_back(std::string(target->name()) + " " + test.name +
                                          ": " + result.detail);
      }
    }
  }
  CountMetric("replay/tests_run", MetricScope::kTiming, static_cast<uint64_t>(outcome.tests_run));
  CountMetric("replay/test_failures", MetricScope::kTiming,
              static_cast<uint64_t>(outcome.failures));
  return outcome;
}

ReplayOutcome ReplayStfText(const std::string& program_text, const std::string& stf_text,
                            const BugConfig& bugs, const std::vector<std::string>& targets) {
  const ProgramPtr program = Parser::ParseString(program_text);
  if (CurrentCoverage() != nullptr) {
    // Replay runs no symbolic enumeration, so the construct census is the
    // only coverage domain a corpus replay can populate.
    RecordConstructCoverage(CensusProgram(*program));
  }
  const std::vector<PacketTest> tests = ParseStf(stf_text);
  return ReplayTests(*program, tests, bugs, targets);
}

CorpusReplaySummary ReplayCorpus(const std::string& directory, const BugConfig& bugs,
                                 const std::vector<std::string>& targets,
                                 const std::function<void(int, int)>& progress) {
  CorpusReplaySummary summary;
  for (const CorpusEntry& entry : ListCorpus(directory)) {
    TraceSpan span("replay:" + entry.key, "replay");
    CorpusReplayResult result;
    result.key = entry.key;
    try {
      result.outcome = ReplayStfText(entry.program_text, entry.stf_text, bugs, targets);
    } catch (const CompilerBugError& error) {
      // The compile itself still aborts: this is a live crash reproducer.
      ++result.outcome.failures;
      result.outcome.failure_details.push_back(std::string("compile crash: ") + error.what());
    }
    ++summary.entries;
    summary.failed_entries += result.outcome.passed() ? 0 : 1;
    summary.results.push_back(std::move(result));
    if (progress) {
      progress(summary.entries, summary.failed_entries);
    }
  }
  CountMetric("replay/entries", MetricScope::kTiming, static_cast<uint64_t>(summary.entries));
  CountMetric("replay/failed_entries", MetricScope::kTiming,
              static_cast<uint64_t>(summary.failed_entries));
  return summary;
}

}  // namespace gauntlet
