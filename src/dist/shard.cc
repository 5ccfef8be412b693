#include "src/dist/shard.h"

#include <sstream>
#include <utility>

#include "src/passes/bugs.h"
#include "src/runtime/parallel_campaign.h"
#include "src/support/error.h"
#include "src/support/file_io.h"
#include "src/support/line_record.h"

namespace gauntlet {

namespace {

constexpr const char* kMagic = "gauntletshard";
constexpr int kVersion = 1;

}  // namespace

std::vector<ShardRange> PartitionIndexSpace(int total, int shards) {
  if (total < 0) {
    throw CompileError("cannot partition a negative program count");
  }
  if (shards < 1) {
    throw CompileError("shard count must be >= 1");
  }
  std::vector<ShardRange> ranges;
  ranges.reserve(static_cast<size_t>(shards));
  const int base = total / shards;
  const int extra = total % shards;  // the first `extra` shards take one more
  int begin = 0;
  for (int i = 0; i < shards; ++i) {
    const int size = base + (i < extra ? 1 : 0);
    ranges.push_back(ShardRange{i, begin, begin + size});
    begin += size;
  }
  return ranges;
}

void SaveShardResult(const ShardResult& result, std::ostream& out) {
  const CampaignReport& report = result.report;
  out << kMagic << ' ' << kVersion << '\n';
  out << "range " << result.range.index << ' ' << result.range.begin << ' '
      << result.range.end << '\n';
  out << "counters " << report.programs_generated << ' ' << report.programs_with_crash << ' '
      << report.programs_with_semantic << ' ' << report.tests_generated << ' '
      << report.undef_divergences << ' ' << report.structural_mismatches << '\n';
  out << "findings " << report.findings.size() << '\n';
  for (const Finding& finding : report.findings) {
    out << "find " << finding.program_index << ' ' << DetectionMethodToString(finding.method)
        << ' ' << (finding.kind == BugKind::kCrash ? "crash" : "semantic") << ' '
        << ToHexToken(finding.component) << ' '
        << (finding.attributed.has_value() ? BugIdToString(*finding.attributed) : "-") << ' '
        << ToHexToken(finding.detail) << '\n';
  }
  out << "latency " << report.latency.size() << '\n';
  for (const auto& [bug, lat] : report.latency) {
    out << "lat " << BugIdToString(bug) << ' ' << lat.first_program_index << ' '
        << lat.tests_at_detection << ' ' << lat.findings << ' ' << lat.wall_micros << '\n';
  }
  out << "distinct " << report.distinct_bugs.size() << '\n';
  for (const BugId bug : report.distinct_bugs) {
    out << "bug " << BugIdToString(bug) << '\n';
  }
  out << "unattributed " << report.unattributed_components.size() << '\n';
  for (const std::string& component : report.unattributed_components) {
    out << "comp " << ToHexToken(component) << '\n';
  }
  out << "metrics " << result.metrics.metrics().size() << '\n';
  for (const auto& [name, metric] : result.metrics.metrics()) {
    out << "met " << ToHexToken(name) << ' ' << static_cast<int>(metric.scope) << ' '
        << static_cast<int>(metric.kind) << ' ' << metric.value << ' ' << metric.bounds.size();
    for (const uint64_t bound : metric.bounds) {
      out << ' ' << bound;
    }
    out << ' ' << metric.counts.size();
    for (const uint64_t count : metric.counts) {
      out << ' ' << count;
    }
    out << '\n';
  }
  size_t points = 0;
  for (const auto& [domain, entry] : result.coverage.domains()) {
    points += entry.points.size();
  }
  out << "coverage " << points << '\n';
  for (const auto& [domain, entry] : result.coverage.domains()) {
    for (const auto& [point, value] : entry.points) {
      out << "cov " << ToHexToken(domain) << ' ' << static_cast<int>(entry.scope) << ' '
          << ToHexToken(point) << ' ' << value << '\n';
    }
  }
  const CacheStats& stats = result.cache_stats;
  out << "cache " << stats.blast_hits << ' ' << stats.blast_misses << ' '
      << stats.clauses_reused << ' ' << stats.verdict_hits << ' ' << stats.verdict_misses
      << ' ' << stats.queries_skipped << ' ' << stats.pairs_short_circuited << '\n';
}

ShardResult LoadShardResult(std::istream& in) {
  LineReader reader(in, "shard result");
  reader.RequireLine("header");
  reader.ExpectWord(kMagic);
  const uint64_t version = reader.U64("version");
  if (version != static_cast<uint64_t>(kVersion)) {
    throw CompileError("shard result version " + std::to_string(version) +
                       " is not supported (expected " + std::to_string(kVersion) + ")");
  }
  const auto bug_named = [&reader](const std::string& name) {
    const auto bug = BugIdFromString(name);
    if (!bug.has_value()) {
      reader.Fail("unknown fault '" + name + "'");
    }
    return *bug;
  };
  const auto scope = [&reader](const char* what) {
    const uint64_t value = reader.U64(what);
    if (value > static_cast<uint64_t>(MetricScope::kTiming)) {
      reader.Fail(std::string("unknown ") + what + " " + std::to_string(value));
    }
    return static_cast<MetricScope>(value);
  };

  ShardResult result;
  reader.RequireLine("range");
  reader.ExpectWord("range");
  result.range.index = reader.Int("shard index");
  result.range.begin = reader.Int("shard begin");
  result.range.end = reader.Int("shard end");

  CampaignReport& report = result.report;
  reader.RequireLine("counters");
  reader.ExpectWord("counters");
  report.programs_generated = reader.Int("programs generated");
  report.programs_with_crash = reader.Int("programs with crash");
  report.programs_with_semantic = reader.Int("programs with semantic");
  report.tests_generated = reader.Int("tests generated");
  report.undef_divergences = reader.Int("undef divergences");
  report.structural_mismatches = reader.Int("structural mismatches");

  reader.RequireLine("findings section");
  reader.ExpectWord("findings");
  const uint64_t finding_count = reader.U64("finding count");
  for (uint64_t i = 0; i < finding_count; ++i) {
    reader.RequireLine("finding");
    reader.ExpectWord("find");
    Finding finding;
    finding.program_index = reader.Int("program index");
    const std::string method = reader.Token("detection method");
    const auto parsed_method = DetectionMethodFromString(method);
    if (!parsed_method.has_value()) {
      reader.Fail("unknown detection method '" + method + "'");
    }
    finding.method = *parsed_method;
    const std::string kind = reader.Token("finding kind");
    if (kind != "crash" && kind != "semantic") {
      reader.Fail("unknown finding kind '" + kind + "'");
    }
    finding.kind = kind == "crash" ? BugKind::kCrash : BugKind::kSemantic;
    finding.component = reader.HexString("component");
    const std::string attributed = reader.Token("attributed fault");
    if (attributed != "-") {
      finding.attributed = bug_named(attributed);
    }
    finding.detail = reader.HexString("detail");
    report.findings.push_back(std::move(finding));
  }

  reader.RequireLine("latency section");
  reader.ExpectWord("latency");
  const uint64_t latency_count = reader.U64("latency count");
  for (uint64_t i = 0; i < latency_count; ++i) {
    reader.RequireLine("latency entry");
    reader.ExpectWord("lat");
    const BugId bug = bug_named(reader.Token("fault name"));
    DetectionLatency latency;
    latency.first_program_index = reader.Int("first program index");
    latency.tests_at_detection = reader.Int("tests at detection");
    latency.findings = reader.Int("finding count");
    latency.wall_micros = reader.U64("wall micros");
    report.latency.emplace(bug, latency);
  }

  reader.RequireLine("distinct section");
  reader.ExpectWord("distinct");
  const uint64_t distinct_count = reader.U64("distinct count");
  for (uint64_t i = 0; i < distinct_count; ++i) {
    reader.RequireLine("distinct bug");
    reader.ExpectWord("bug");
    report.distinct_bugs.insert(bug_named(reader.Token("fault name")));
  }

  reader.RequireLine("unattributed section");
  reader.ExpectWord("unattributed");
  const uint64_t component_count = reader.U64("component count");
  for (uint64_t i = 0; i < component_count; ++i) {
    reader.RequireLine("unattributed component");
    reader.ExpectWord("comp");
    report.unattributed_components.insert(reader.HexString("component"));
  }

  reader.RequireLine("metrics section");
  reader.ExpectWord("metrics");
  const uint64_t metric_count = reader.U64("metric count");
  for (uint64_t i = 0; i < metric_count; ++i) {
    reader.RequireLine("metric");
    reader.ExpectWord("met");
    const std::string name = reader.HexString("metric name");
    if (result.metrics.Find(name) != nullptr) {
      reader.Fail("duplicate metric '" + name + "'");
    }
    Metric metric;
    metric.scope = scope("metric scope");
    const uint64_t kind = reader.U64("metric kind");
    if (kind > static_cast<uint64_t>(MetricKind::kHistogram)) {
      reader.Fail("unknown metric kind " + std::to_string(kind));
    }
    metric.kind = static_cast<MetricKind>(kind);
    metric.value = reader.U64("metric value");
    const uint64_t bound_count = reader.U64("bound count");
    for (uint64_t b = 0; b < bound_count; ++b) {
      metric.bounds.push_back(reader.U64("bound"));
    }
    const uint64_t count_count = reader.U64("bucket count");
    if (metric.kind == MetricKind::kHistogram && count_count != bound_count + 1) {
      reader.Fail("histogram bucket/bound size mismatch");
    }
    for (uint64_t c = 0; c < count_count; ++c) {
      metric.counts.push_back(reader.U64("bucket"));
    }
    result.metrics.Absorb(name, metric);
  }

  reader.RequireLine("coverage section");
  reader.ExpectWord("coverage");
  const uint64_t point_count = reader.U64("coverage point count");
  for (uint64_t i = 0; i < point_count; ++i) {
    reader.RequireLine("coverage point");
    reader.ExpectWord("cov");
    const std::string domain = reader.HexString("domain");
    const MetricScope domain_scope = scope("coverage scope");
    const std::string point = reader.HexString("point");
    result.coverage.Record(domain, point, domain_scope, reader.U64("point value"));
  }

  reader.RequireLine("cache counters");
  reader.ExpectWord("cache");
  CacheStats& stats = result.cache_stats;
  stats.blast_hits = reader.U64("blast hits");
  stats.blast_misses = reader.U64("blast misses");
  stats.clauses_reused = reader.U64("clauses reused");
  stats.verdict_hits = reader.U64("verdict hits");
  stats.verdict_misses = reader.U64("verdict misses");
  stats.queries_skipped = reader.U64("queries skipped");
  stats.pairs_short_circuited = reader.U64("pairs short-circuited");
  reader.ExpectEnd();
  return result;
}

void SaveShardResultFile(const std::string& path, const ShardResult& result) {
  std::ostringstream out;
  SaveShardResult(result, out);
  if (!WriteFileAtomic(path, out.str())) {
    throw CompileError("cannot write shard result '" + path + "'");
  }
}

ShardResult LoadShardResultFile(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    throw CompileError("cannot open shard result '" + path + "'");
  }
  std::istringstream in(text);
  return LoadShardResult(in);
}

ShardResult RunShardWorker(const ShardWorkerOptions& options, const BugConfig& bugs) {
  if (options.range.begin < 0 || options.range.end < options.range.begin) {
    throw CompileError("invalid shard range [" + std::to_string(options.range.begin) + ", " +
                       std::to_string(options.range.end) + ")");
  }
  ShardResult result;
  result.range = options.range;

  ParallelCampaignOptions campaign = {};
  campaign.campaign = options.campaign;
  campaign.campaign.num_programs = options.range.size();
  campaign.index_begin = options.range.begin;
  campaign.fold_report_metrics = false;
  campaign.jobs = options.jobs;
  campaign.corpus_dir = options.corpus_dir;
  // The worker protocol always carries telemetry: collection is
  // observation-only (reports are bit-identical either way), and the
  // coordinator needs the raw registries to reproduce a single-process
  // --metrics-out/--coverage-out run whatever the topology.
  campaign.campaign.metrics = &result.metrics;
  campaign.campaign.coverage = &result.coverage;
  // Traces stay per-process: a worker may collect its own (--trace-out),
  // but the shard-result protocol never carries one.
  campaign.campaign.trace = options.trace;
  campaign.status_dir = options.status_dir;
  campaign.status_role = options.status_role;
  campaign.snapshot_interval_ms = options.snapshot_interval_ms;

  result.report = ParallelCampaign(campaign).Run(bugs, &result.cache_stats);
  return result;
}

}  // namespace gauntlet
