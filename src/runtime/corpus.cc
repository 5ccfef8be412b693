#include "src/runtime/corpus.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gen/generator.h"
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

// The keys of the complete triples in `directory`, sorted.
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

// --- store ------------------------------------------------------------------

CorpusStore::CorpusStore(std::string directory) : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw CompileError("corpus: cannot create directory '" + directory_ + "'");
  }
  const std::vector<std::string> keys = ScanTripleKeys(directory_);
  keys_.insert(keys.begin(), keys.end());
}

std::string CorpusStore::KeyFor(const Finding& finding) {
  if (finding.attributed.has_value()) {
    return Sanitize(BugIdToString(*finding.attributed));
  }
  return "unattributed-" + Sanitize(finding.component);
}

std::string CorpusStore::Add(const Program& program, const Finding& finding) {
  const std::string key = KeyFor(finding);
  const std::string base = (fs::path(directory_) / key).string();
  std::lock_guard<std::mutex> lock(mutex_);
  if (keys_.count(key) != 0) {
    return "";
  }
  // The .stf goes last: its presence is what marks the triple complete.
  WriteOrThrow(base + ".finding.json", FindingJson(key, finding));
  WriteOrThrow(base + ".p4", PrintProgram(program));
  WriteOrThrow(base + ".stf",
               finding.repro_test.has_value() ? EmitStf(*finding.repro_test) : std::string());
  keys_.insert(key);
  ++stored_;
  return key;
}

int CorpusStore::stored_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stored_;
}

bool CorpusStore::HasKey(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return keys_.count(key) != 0;
}

int CountCorpus(const std::string& directory) {
  return static_cast<int>(ScanTripleKeys(directory).size());
}

std::vector<CorpusEntry> ListCorpus(const std::string& directory) {
  std::vector<CorpusEntry> entries;
  for (const std::string& key : ScanTripleKeys(directory)) {
    const fs::path base = fs::path(directory) / key;
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
  if (CurrentMetrics() != nullptr) {
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
