#include "src/cache/cache_file.h"

#include <map>
#include <memory>
#include <sstream>

#include "src/cache/verdict_cache.h"
#include "src/support/error.h"
#include "src/support/file_io.h"
#include "src/support/line_record.h"

namespace gauntlet {

namespace {

constexpr const char* kMagic = "gauntletcache";
// v2 added the "summaries" section (block summary key → canonical
// semantics fingerprint). v1 files still load — they simply carry no
// summary fingerprints.
constexpr int kVersion = 2;

void WriteTemplate(std::ostream& out, const Fingerprint& fp, const BlastTemplate& tpl) {
  out << fp.hi << ' ' << fp.lo << ' ' << tpl.input_count << ' ' << tpl.fresh_count << ' '
      << tpl.clause_count << ' ' << tpl.events.size();
  for (const int32_t event : tpl.events) {
    out << ' ' << event;
  }
  out << ' ' << tpl.clause_lits.size();
  for (const TemplateLit lit : tpl.clause_lits) {
    out << ' ' << lit.code;
  }
  out << ' ' << tpl.outputs.size();
  for (const TemplateLit lit : tpl.outputs) {
    out << ' ' << lit.code;
  }
  out << '\n';
}

void WriteVerdict(std::ostream& out, const Fingerprint& key, const VerdictCache::Entry& entry) {
  const TvPassResult& result = entry.result;
  out << key.hi << ' ' << key.lo << ' ' << entry.queries << ' '
      << static_cast<int>(result.verdict) << ' ' << ToHexToken(result.pass_name) << ' '
      << ToHexToken(result.detail) << ' ' << result.counterexample.bit_values.size();
  for (const auto& [name, value] : result.counterexample.bit_values) {
    out << ' ' << ToHexToken(name) << ' ' << value.width() << ' ' << value.bits();
  }
  out << ' ' << result.counterexample.bool_values.size();
  for (const auto& [name, value] : result.counterexample.bool_values) {
    out << ' ' << ToHexToken(name) << ' ' << (value ? 1 : 0);
  }
  out << '\n';
}

}  // namespace

void SaveValidationCaches(const std::vector<ValidationCache*>& caches, std::ostream& out) {
  // Merge per-worker state: templates dedup by fingerprint (bit-exact replay
  // makes every copy identical in effect), verdicts dedup by (program, key).
  std::map<Fingerprint, const BlastTemplate*> templates;
  std::map<uint64_t, std::map<Fingerprint, const VerdictCache::Entry*>> verdicts;
  std::map<Fingerprint, Fingerprint> summary_fps;
  for (ValidationCache* cache : caches) {
    cache->Seal();
    for (const auto& [fp, tpl] : cache->blast().templates()) {
      templates.emplace(fp, &tpl);
    }
    for (const auto& [program_key, entries] : cache->stored_verdicts()) {
      auto& group = verdicts[program_key];
      for (const auto& [key, entry] : entries) {
        group.emplace(key, &entry);
      }
    }
    for (const auto& [key, fp] : cache->summaries().stored_fingerprints()) {
      // Key → fingerprint is functional, so first-wins dedup is exact.
      summary_fps.emplace(key, fp);
    }
  }

  out << kMagic << ' ' << kVersion << '\n';
  out << "blast " << templates.size() << '\n';
  for (const auto& [fp, tpl] : templates) {
    WriteTemplate(out, fp, *tpl);
  }
  out << "programs " << verdicts.size() << '\n';
  for (const auto& [program_key, entries] : verdicts) {
    out << "prog " << program_key << ' ' << entries.size() << '\n';
    for (const auto& [key, entry] : entries) {
      WriteVerdict(out, key, *entry);
    }
  }
  out << "summaries " << summary_fps.size() << '\n';
  for (const auto& [key, fp] : summary_fps) {
    out << key.hi << ' ' << key.lo << ' ' << fp.hi << ' ' << fp.lo << '\n';
  }
}

void LoadValidationCache(std::istream& in, ValidationCache& cache) {
  LineReader reader(in, "cache file");
  reader.RequireLine("header");
  reader.ExpectWord(kMagic);
  const uint64_t version = reader.U64("version");
  if (version < 1 || version > static_cast<uint64_t>(kVersion)) {
    throw CompileError("cache file version " + std::to_string(version) +
                       " is not supported (expected 1.." + std::to_string(kVersion) + ")");
  }
  // Braced initialisation reads the two words in order.
  const auto fingerprint = [&reader](const char* hi, const char* lo) {
    return Fingerprint{reader.U64(hi), reader.U64(lo)};
  };

  reader.RequireLine("blast section");
  reader.ExpectWord("blast");
  const uint64_t template_count = reader.U64("template count");
  for (uint64_t i = 0; i < template_count; ++i) {
    reader.RequireLine("blast template");
    const Fingerprint fp = fingerprint("fingerprint hi", "fingerprint lo");
    BlastTemplate tpl;
    tpl.input_count = reader.U32("input count");
    tpl.fresh_count = reader.U32("fresh count");
    tpl.clause_count = reader.U32("clause count");
    const uint64_t event_count = reader.U64("event count");
    for (uint64_t e = 0; e < event_count; ++e) {
      tpl.events.push_back(reader.Int("event"));
    }
    const uint64_t lit_count = reader.U64("clause literal count");
    for (uint64_t l = 0; l < lit_count; ++l) {
      tpl.clause_lits.push_back(TemplateLit{reader.U32("literal")});
    }
    const uint64_t output_count = reader.U64("output count");
    for (uint64_t o = 0; o < output_count; ++o) {
      tpl.outputs.push_back(TemplateLit{reader.U32("output")});
    }
    cache.blast().Insert(fp, std::move(tpl));
  }

  reader.RequireLine("programs section");
  reader.ExpectWord("programs");
  const uint64_t program_count = reader.U64("program count");
  for (uint64_t p = 0; p < program_count; ++p) {
    reader.RequireLine("program group");
    reader.ExpectWord("prog");
    const uint64_t program_key = reader.U64("program key");
    const uint64_t entry_count = reader.U64("entry count");
    for (uint64_t e = 0; e < entry_count; ++e) {
      reader.RequireLine("verdict entry");
      const Fingerprint key = fingerprint("verdict key hi", "verdict key lo");
      VerdictCache::Entry entry;
      entry.queries = reader.U32("query count");
      const uint64_t verdict = reader.U64("verdict code");
      if (verdict > static_cast<uint64_t>(TvVerdict::kInvalidEmit)) {
        reader.Fail("unknown verdict code " + std::to_string(verdict));
      }
      entry.result.verdict = static_cast<TvVerdict>(verdict);
      entry.result.pass_name = reader.HexString("pass name");
      entry.result.detail = reader.HexString("detail");
      const uint64_t bit_count = reader.U64("bit witness count");
      for (uint64_t b = 0; b < bit_count; ++b) {
        const std::string name = reader.HexString("witness name");
        const uint32_t width = reader.U32("witness width");
        if (width < 1 || width > BitValue::kMaxWidth) {
          reader.Fail("witness width " + std::to_string(width) + " out of range");
        }
        entry.result.counterexample.bit_values.emplace(name,
                                                       BitValue(width, reader.U64("witness bits")));
      }
      const uint64_t bool_count = reader.U64("bool witness count");
      for (uint64_t b = 0; b < bool_count; ++b) {
        const std::string name = reader.HexString("witness name");
        entry.result.counterexample.bool_values.emplace(name, reader.U64("witness bool") != 0);
      }
      cache.PreloadVerdict(program_key, key, std::move(entry));
    }
  }

  if (version >= 2) {
    reader.RequireLine("summaries section");
    reader.ExpectWord("summaries");
    const uint64_t summary_count = reader.U64("summary count");
    for (uint64_t s = 0; s < summary_count; ++s) {
      reader.RequireLine("summary fingerprint");
      const Fingerprint key = fingerprint("summary key hi", "summary key lo");
      cache.summaries().RecordSemanticsFingerprint(
          key, fingerprint("semantics fingerprint hi", "semantics fingerprint lo"));
    }
  }
  reader.ExpectEnd();
}

bool LoadValidationCacheFile(const std::string& path, ValidationCache& cache) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return false;  // cold start
  }
  std::istringstream in(text);
  LoadValidationCache(in, cache);
  return true;
}

void SaveValidationCacheFile(const std::string& path,
                             const std::vector<ValidationCache*>& caches) {
  std::ostringstream out;
  SaveValidationCaches(caches, out);
  if (!WriteFileAtomic(path, out.str())) {
    throw CompileError("cannot write cache file '" + path + "'");
  }
}

int MergeValidationCacheFiles(const std::string& destination,
                              const std::vector<std::string>& sources) {
  std::vector<std::unique_ptr<ValidationCache>> loaded;
  for (const std::string& source : sources) {
    auto cache = std::make_unique<ValidationCache>();
    if (LoadValidationCacheFile(source, *cache)) {
      loaded.push_back(std::move(cache));
    }
  }
  std::vector<ValidationCache*> pointers;
  pointers.reserve(loaded.size());
  for (const auto& cache : loaded) {
    pointers.push_back(cache.get());
  }
  SaveValidationCacheFile(destination, pointers);
  return static_cast<int>(loaded.size());
}

}  // namespace gauntlet
