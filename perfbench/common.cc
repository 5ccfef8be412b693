#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "src/obs/run_report.h"
#include "src/passes/pass.h"
#include "src/target/stf.h"
#include "src/target/target.h"

namespace perfbench {

double MonotonicSeconds() {
  timespec now = {};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t PeakRssKb() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss);
}

double SecondsSinceSpawn(const BenchConfig& config) {
  return MonotonicSeconds() - static_cast<double>(config.spawn_ns) * 1e-9;
}

std::vector<int> Permutation(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  uint64_t state = seed;
  const auto next = [&state]() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(next() % static_cast<uint64_t>(i + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

gauntlet::CampaignOptions BaseCampaignOptions() {
  gauntlet::CampaignOptions options;
  options.tv.query_time_limit_ms = 0;
  options.tv.program_budget_ms = 0;
  options.testgen.query_time_limit_ms = 0;
  return options;
}

gauntlet::BugConfig BugsFromNames(const std::vector<std::string>& names) {
  gauntlet::BugConfig bugs;
  for (const std::string& name : names) {
    if (name == "all") {
      for (const gauntlet::BugInfo& info : gauntlet::BugCatalogue()) {
        bugs.Enable(info.id);
      }
      continue;
    }
    const auto bug = gauntlet::BugIdFromString(name);
    if (!bug.has_value()) {
      throw std::runtime_error("unknown bug '" + name + "'");
    }
    bugs.Enable(*bug);
  }
  return bugs;
}

std::string ReportFingerprint(const gauntlet::CampaignReport& report) {
  std::string text;
  const auto field = [&text](const std::string& value) {
    text += value;
    text += '\x1f';
  };
  field(std::to_string(report.programs_generated));
  field(std::to_string(report.programs_with_crash));
  field(std::to_string(report.programs_with_semantic));
  field(std::to_string(report.tests_generated));
  field(std::to_string(report.undef_divergences));
  field(std::to_string(report.structural_mismatches));
  for (const gauntlet::Finding& finding : report.findings) {
    field(std::to_string(finding.program_index));
    field(gauntlet::DetectionMethodToString(finding.method));
    field(std::to_string(static_cast<int>(finding.kind)));
    field(finding.component);
    field(finding.attributed.has_value() ? gauntlet::BugIdToString(*finding.attributed) : "-");
    field(finding.detail);
    field(finding.repro_test.has_value() ? gauntlet::EmitStf(*finding.repro_test) : "-");
  }
  for (const gauntlet::BugId bug : report.distinct_bugs) {
    field(gauntlet::BugIdToString(bug));
  }
  for (const std::string& component : report.unattributed_components) {
    field(component);
  }
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(hash));
  return digest;
}

LayerEvents AttributeLayerEvents(const std::vector<ProgramInterval>& intervals,
                                 const std::vector<gauntlet::TraceEvent>& events) {
  std::vector<size_t> order(intervals.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const auto key = [&intervals](size_t i) {
    return std::make_pair(intervals[i].tid, intervals[i].start_us);
  };
  std::sort(order.begin(), order.end(), [&key](size_t a, size_t b) { return key(a) < key(b); });
  const auto starts_with = [](const std::string& text, const char* prefix) {
    return text.rfind(prefix, 0) == 0;
  };
  const auto arg = [](const gauntlet::TraceEvent& event, const char* name) {
    for (const auto& [key, value] : event.args) {
      if (key == name) {
        return value;
      }
    }
    return uint64_t{0};
  };

  LayerEvents result;
  // Span ids: interval i's "program" span is i + 1; layer spans follow.
  uint64_t next_id = intervals.size() + 1;
  std::vector<uint64_t> tests(intervals.size(), 0);
  std::vector<uint64_t> executions(intervals.size(), 0);
  for (size_t i = 0; i < intervals.size(); ++i) {
    const ProgramInterval& interval = intervals[i];
    result.program_ms += static_cast<double>(interval.end_us - interval.start_us) / 1000.0;
    result.spans.push_back({"program", "perfbench", interval.start_us,
                            interval.end_us - interval.start_us, interval.tid,
                            {{"program", interval.program}, {"id", i + 1}, {"parent", 0}}});
  }
  for (const gauntlet::TraceEvent& event : events) {
    if (event.name == "smt-solve") {
      result.solve_us.push_back(static_cast<double>(event.duration_us));
    }
    if (event.name == "validate") {
      result.validate_max_ms =
          std::max(result.validate_max_ms, static_cast<double>(event.duration_us) / 1000.0);
    }
    const bool layer = event.name == "generate" || event.name == "validate" ||
                       event.name == "attribute" || starts_with(event.name, "testgen-") ||
                       starts_with(event.name, "compile:") || starts_with(event.name, "execute:");
    if (!layer) {
      continue;
    }
    // Last interval on this tid starting at or before the event.
    const auto it = std::upper_bound(order.begin(), order.end(),
                                     std::make_pair(event.tid, event.start_us),
                                     [&key](const std::pair<int, uint64_t>& probe, size_t i) {
                                       return probe < key(i);
                                     });
    if (it == order.begin()) {
      continue;
    }
    const size_t index = *(it - 1);
    const ProgramInterval& interval = intervals[index];
    if (interval.tid != event.tid || event.start_us >= interval.end_us) {
      continue;
    }
    if (event.name == "testgen-witness") {
      tests[index] += arg(event, "tests");
    }
    if (starts_with(event.name, "execute:")) {
      ++executions[index];
    }
    gauntlet::TraceEvent span = event;
    span.args.emplace_back("program", interval.program);
    span.args.emplace_back("id", next_id++);
    span.args.emplace_back("parent", index + 1);
    result.spans.push_back(std::move(span));
  }
  // Every target replays all of its program's tests.
  for (size_t i = 0; i < intervals.size(); ++i) {
    result.packets += static_cast<double>(tests[i] * executions[i]);
  }
  return result;
}

double RegistryReader::Counter(const std::string& name) {
  if (registry_.Find(name) == nullptr) {
    absent_.insert(name);
  }
  return static_cast<double>(registry_.Value(name));
}

double RegistryReader::SpanMs(const std::string& span) {
  return Counter("time/" + span + "/micros") / 1000.0;
}

double RegistryReader::SpanCalls(const std::string& span) {
  return Counter("time/" + span + "/calls");
}

namespace {

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

}  // namespace

std::map<std::string, double> LayerValues(RegistryReader& registry, const LayerEvents& events,
                                          const gauntlet::CampaignReport& report) {
  std::map<std::string, double> layers;
  layers["campaign.findings"] = static_cast<double>(report.findings.size());
  layers["campaign.distinct_bugs"] = static_cast<double>(report.DistinctCount());
  layers["tv.validate_max_ms"] = events.validate_max_ms;
  layers["target.packets"] = events.packets;
  layers["typecheck.ms"] = registry.SpanMs("typecheck");
  layers["passes.ms"] = registry.SpanMs("passes");

  layers["tv.validate_ms"] = registry.SpanMs("validate");
  const gauntlet::PassManager pipeline = gauntlet::PassManager::StandardPipeline();
  for (const auto& pass : pipeline.passes()) {
    layers["tv.pass." + pass->name() + "_ms"] = registry.SpanMs("tv:" + pass->name());
  }
  layers["tv.pairs"] = registry.Counter("tv/pairs");
  layers["tv.equivalent"] = registry.Counter("tv/verdict/equivalent");
  layers["tv.semantic_diff"] = registry.Counter("tv/verdict/semantic-diff");
  layers["tv.undef_divergence"] = registry.Counter("tv/verdict/undef-divergence");
  layers["tv.structural_mismatch"] = registry.Counter("tv/verdict/structural-mismatch");

  layers["smt.encode_ms"] = registry.SpanMs("smt-encode");
  layers["smt.solve_ms"] = registry.SpanMs("smt-solve");
  layers["smt.solves"] = registry.Counter("smt/solves");
  layers["smt.conflicts"] = registry.Counter("smt/conflicts");
  layers["smt.decisions"] = registry.Counter("smt/decisions");
  layers["smt.propagations"] = registry.Counter("smt/propagations");
  layers["smt.max_vars"] = registry.Counter("smt/max_vars");
  layers["smt.propagations_saved"] = registry.Counter("smt/propagations_saved");
  layers["smt.prefix_reused_lits"] = registry.Counter("smt/assumption_prefix_reused_lits");
  layers["smt.props_per_s"] =
      Ratio(layers["smt.propagations"], layers["smt.solve_ms"] / 1000.0);

  const double blast_hits = registry.Counter("cache/blast_hits");
  const double summary_hits = registry.Counter("cache/summary_hits");
  const double verdict_hits = registry.Counter("cache/verdict_hits");
  layers["cache.blast_hits"] = blast_hits;
  layers["cache.summary_hits"] = summary_hits;
  layers["cache.verdict_hits"] = verdict_hits;
  layers["cache.blast_hit_ratio"] =
      Ratio(blast_hits, blast_hits + registry.Counter("cache/blast_misses"));
  layers["cache.summary_hit_ratio"] =
      Ratio(summary_hits, summary_hits + registry.Counter("cache/summary_misses"));
  layers["cache.verdict_hit_ratio"] =
      Ratio(verdict_hits, verdict_hits + registry.Counter("cache/verdict_misses"));
  layers["cache.pairs_short_circuited"] = registry.Counter("cache/pairs_short_circuited");
  layers["cache.clauses_reused"] = registry.Counter("cache/clauses_reused");

  layers["testgen.enumerate_ms"] = registry.SpanMs("testgen-enumerate");
  layers["testgen.witness_ms"] = registry.SpanMs("testgen-witness");
  layers["testgen.generate_ms"] = layers["testgen.enumerate_ms"] + layers["testgen.witness_ms"];
  layers["testgen.paths"] = registry.Counter("testgen/paths");
  layers["testgen.tests"] = registry.Counter("testgen/tests");
  layers["testgen.tests_per_path"] = Ratio(layers["testgen.tests"], layers["testgen.paths"]);

  double layer_ms = layers["tv.validate_ms"] + layers["testgen.generate_ms"];
  double compile_errors = 0;
  for (const std::string& target : gauntlet::TargetRegistry::Names()) {
    const double compile_ms = registry.SpanMs("compile:" + target);
    const double execute_ms = registry.SpanMs("execute:" + target);
    layers["target." + target + ".compile_ms"] = compile_ms;
    layers["target." + target + ".execute_ms"] = execute_ms;
    layer_ms += compile_ms + execute_ms;
    // Execution follows every compile that returned, so the difference is
    // the number of compiles that threw (crashes and orderly rejections).
    compile_errors += registry.SpanCalls("compile:" + target) -
                      registry.SpanCalls("execute:" + target);
  }
  layers["target.compile_errors"] = compile_errors;
  double generate_ms = 0;
  for (const gauntlet::TraceEvent& span : events.spans) {
    if (span.name == "generate") {
      generate_ms += static_cast<double>(span.duration_us) / 1000.0;
    }
  }
  layers["campaign.driver_ms"] = events.program_ms - generate_ms - layer_ms;
  return layers;
}

void WriteSpanFile(const std::string& path, const std::vector<gauntlet::TraceEvent>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << gauntlet::TraceJson(spans);
  if (!out) {
    throw std::runtime_error("cannot write trace file '" + path + "'");
  }
}

void JsonWriter::Separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) {
      out_ += ',';
    }
    first_.back() = false;
  }
}

void JsonWriter::Key(const std::string& key) {
  Separator();
  Quote(key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::Number(double value) {
  Separator();
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
}

void JsonWriter::Integer(int64_t value) {
  Separator();
  out_ += std::to_string(value);
}

void JsonWriter::String(const std::string& value) {
  Separator();
  Quote(value);
}

void JsonWriter::Quote(const std::string& value) {
  out_ += '"';
  for (const char c : value) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (byte < 0x20 || byte >= 0x7f) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", byte);
      out_ += escaped;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::BeginObject() {
  Separator();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::BeginArray() {
  Separator();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
}

void JsonWriter::NumberArray(const std::vector<double>& values) {
  BeginArray();
  for (const double value : values) {
    Number(value);
  }
  EndArray();
}

void JsonWriter::StringArray(const std::vector<std::string>& values) {
  BeginArray();
  for (const std::string& value : values) {
    String(value);
  }
  EndArray();
}

void JsonWriter::NumberMap(const std::map<std::string, double>& values) {
  BeginObject();
  for (const auto& [key, value] : values) {
    Key(key);
    Number(value);
  }
  EndObject();
}

std::string RawResultJson(const RawResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("setup_s");
  json.Number(result.setup_s);
  json.Key("peak_rss_kb");
  json.Integer(PeakRssKb());
  json.Key("untraced");
  json.BeginArray();
  for (const RepTiming& rep : result.untraced) {
    json.BeginObject();
    json.Key("wall_s");
    json.Number(rep.wall_s);
    json.Key("cpu_s");
    json.Number(rep.cpu_s);
    json.Key("busy_ratio");
    json.Number(rep.busy_ratio);
    json.Key("tail_idle_s");
    json.Number(rep.tail_idle_s);
    json.Key("unit_ms");
    json.NumberArray(rep.unit_ms);
    json.EndObject();
  }
  json.EndArray();
  json.Key("traced_wall_s");
  json.NumberArray(result.traced_wall_s);
  json.Key("traced_layers");
  json.BeginArray();
  for (const auto& layers : result.traced_layers) {
    json.NumberMap(layers);
  }
  json.EndArray();
  json.Key("solve_us");
  json.NumberArray(result.solve_us);
  json.Key("attempted");
  json.Integer(result.attempted);
  json.Key("failed");
  json.Integer(result.failed);
  json.Key("errors");
  json.StringArray(result.errors);
  json.Key("distinct_bugs");
  json.StringArray(result.distinct_bugs);
  json.Key("unattributed");
  json.StringArray(result.unattributed);
  json.Key("absent_keys");
  json.StringArray({result.absent_keys.begin(), result.absent_keys.end()});
  json.Key("tv_undecided");
  json.Number(result.tv_undecided);
  json.Key("trace_file");
  json.String(result.trace_file);
  json.EndObject();
  return json.str();
}

void RunSchedule(const BenchConfig& config, const std::function<void()>& untraced,
                 const std::function<void()>& traced) {
  // No repetition starts after this much measurement, whatever --seconds
  // asked for: one more repetition of the longest workload still ends the
  // process far inside its time limit.
  constexpr double kMaxMeasureSeconds = 90;
  constexpr int kMinReps = 3;
  const double start = MonotonicSeconds();
  const auto elapsed = [start]() { return MonotonicSeconds() - start; };
  // More repetitions run only if, at the average pace so far, they still
  // end inside the measurement window.
  const auto fits = [&](int done, int adding) {
    const double spent = elapsed();
    return spent + spent * adding / done <= config.seconds && spent < kMaxMeasureSeconds;
  };
  if (!config.trace) {
    int reps = 0;
    do {
      untraced();
      ++reps;
    } while ((reps < kMinReps && elapsed() < kMaxMeasureSeconds) || fits(reps, 1));
    return;
  }
  untraced();
  traced();
  traced();
  for (int reps = 3; fits(reps, 2); reps += 2) {
    untraced();
    traced();
  }
}

}  // namespace perfbench
