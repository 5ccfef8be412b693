// The src/obs/ telemetry subsystem: registry semantics and merge
// determinism, run-report JSON stability, trace-event well-formedness, the
// progress heartbeat, and the end-to-end guarantees — deterministic metric
// sections byte-identical across --jobs and cache on/off, and campaign
// findings bit-identical whether telemetry is on or off.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/gauntlet/campaign.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"
#include "src/runtime/parallel_campaign.h"
#include "src/support/json.h"
#include "src/target/stf.h"

namespace gauntlet {
namespace {

// --- registry semantics ----------------------------------------------------

TEST(MetricsRegistryTest, CountersSumAndZeroDeltaCreatesKey) {
  MetricsRegistry registry;
  registry.Count("a", MetricScope::kDeterministic, 2);
  registry.Count("a", MetricScope::kDeterministic, 3);
  EXPECT_EQ(registry.Value("a"), 5u);
  // A zero delta still creates the key: the deterministic section's key set
  // must not depend on whether a counter happened to fire.
  registry.Count("b", MetricScope::kDeterministic, 0);
  ASSERT_NE(registry.Find("b"), nullptr);
  EXPECT_EQ(registry.Value("b"), 0u);
  EXPECT_EQ(registry.Value("absent"), 0u);
  EXPECT_EQ(registry.Find("absent"), nullptr);
}

TEST(MetricsRegistryTest, GaugesKeepTheMax) {
  MetricsRegistry registry;
  registry.GaugeMax("g", MetricScope::kTiming, 7);
  registry.GaugeMax("g", MetricScope::kTiming, 3);
  EXPECT_EQ(registry.Value("g"), 7u);
  registry.GaugeMax("g", MetricScope::kTiming, 11);
  EXPECT_EQ(registry.Value("g"), 11u);
}

TEST(MetricsRegistryTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  const std::vector<uint64_t> bounds = {10, 20};
  MetricsRegistry registry;
  registry.Observe("h", MetricScope::kTiming, bounds, 10);  // <= 10: bucket 0
  registry.Observe("h", MetricScope::kTiming, bounds, 11);  // (10, 20]: bucket 1
  registry.Observe("h", MetricScope::kTiming, bounds, 20);  // (10, 20]: bucket 1
  registry.Observe("h", MetricScope::kTiming, bounds, 21);  // > 20: overflow
  registry.Observe("h", MetricScope::kTiming, bounds, 0);   // bucket 0
  const Metric* metric = registry.Find("h");
  ASSERT_NE(metric, nullptr);
  ASSERT_EQ(metric->counts.size(), bounds.size() + 1);
  EXPECT_EQ(metric->counts[0], 2u);
  EXPECT_EQ(metric->counts[1], 2u);
  EXPECT_EQ(metric->counts[2], 1u);
  EXPECT_EQ(metric->value, 5u);  // total observations
}

TEST(MetricsRegistryTest, MergeSumsCountersAndBucketsAndMaxesGauges) {
  const std::vector<uint64_t> bounds = {1, 2};
  MetricsRegistry a;
  a.Count("c", MetricScope::kDeterministic, 4);
  a.GaugeMax("g", MetricScope::kTiming, 5);
  a.Observe("h", MetricScope::kTiming, bounds, 1);
  MetricsRegistry b;
  b.Count("c", MetricScope::kDeterministic, 6);
  b.GaugeMax("g", MetricScope::kTiming, 9);
  b.Observe("h", MetricScope::kTiming, bounds, 3);

  a.MergeFrom(b);
  EXPECT_EQ(a.Value("c"), 10u);
  EXPECT_EQ(a.Value("g"), 9u);
  const Metric* h = a.Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[2], 1u);
  EXPECT_EQ(h->value, 2u);
}

TEST(MetricsRegistryTest, MergeIsOrderIndependent) {
  // Sums and maxes commute, so any merge order over the worker registries
  // yields the same result — the property the parallel campaign leans on.
  auto make = [](uint64_t c, uint64_t g) {
    MetricsRegistry r;
    r.Count("c", MetricScope::kDeterministic, c);
    r.GaugeMax("g", MetricScope::kTiming, g);
    return r;
  };
  MetricsRegistry forward;
  MetricsRegistry backward;
  const std::vector<std::pair<uint64_t, uint64_t>> workers = {{1, 4}, {2, 9}, {3, 2}};
  for (size_t i = 0; i < workers.size(); ++i) {
    forward.MergeFrom(make(workers[i].first, workers[i].second));
    const auto& w = workers[workers.size() - 1 - i];
    backward.MergeFrom(make(w.first, w.second));
  }
  EXPECT_EQ(MetricsJson(forward), MetricsJson(backward));
}

TEST(MetricsSinkTest, HelpersAreNoOpsWithoutASinkAndScopedSinksNest) {
  // No sink installed: must not crash, must not record anywhere.
  CountMetric("free/standing", MetricScope::kTiming);
  EXPECT_EQ(CurrentMetrics(), nullptr);

  MetricsRegistry outer;
  MetricsRegistry inner;
  {
    ScopedMetricsSink outer_sink(&outer);
    CountMetric("n", MetricScope::kTiming);
    {
      ScopedMetricsSink inner_sink(&inner);
      CountMetric("n", MetricScope::kTiming);
    }
    // The previous sink is restored on scope exit.
    CountMetric("n", MetricScope::kTiming);
  }
  EXPECT_EQ(CurrentMetrics(), nullptr);
  EXPECT_EQ(outer.Value("n"), 2u);
  EXPECT_EQ(inner.Value("n"), 1u);
}

// --- run-report JSON -------------------------------------------------------

TEST(RunReportTest, JsonIsVersionedSortedAndSplitByScope) {
  MetricsRegistry registry;
  registry.Count("z/later", MetricScope::kDeterministic, 2);
  registry.Count("a/early", MetricScope::kDeterministic, 1);
  registry.Count("timing/only", MetricScope::kTiming, 9);
  const std::string json = MetricsJson(registry);
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos);
  // Sorted keys inside the deterministic section.
  const std::string det = DeterministicSection(json);
  ASSERT_FALSE(det.empty());
  EXPECT_LT(det.find("a/early"), det.find("z/later"));
  // Timing metrics stay out of the deterministic section.
  EXPECT_EQ(det.find("timing/only"), std::string::npos);
  EXPECT_NE(json.find("timing/only"), std::string::npos);
}

TEST(RunReportTest, InsertionOrderDoesNotChangeTheBytes) {
  MetricsRegistry a;
  a.Count("x", MetricScope::kDeterministic, 1);
  a.Count("y", MetricScope::kDeterministic, 2);
  MetricsRegistry b;
  b.Count("y", MetricScope::kDeterministic, 2);
  b.Count("x", MetricScope::kDeterministic, 1);
  EXPECT_EQ(MetricsJson(a), MetricsJson(b));
}

TEST(RunReportTest, DeterministicSectionIgnoresTimingDifferences) {
  MetricsRegistry a;
  a.Count("campaign/findings_total", MetricScope::kDeterministic, 3);
  a.Count("time/validate/micros", MetricScope::kTiming, 1234);
  MetricsRegistry b;
  b.Count("campaign/findings_total", MetricScope::kDeterministic, 3);
  b.Count("time/validate/micros", MetricScope::kTiming, 99999);
  EXPECT_NE(MetricsJson(a), MetricsJson(b));
  EXPECT_EQ(DeterministicSection(MetricsJson(a)), DeterministicSection(MetricsJson(b)));
}

TEST(RunReportTest, HistogramRendersBoundsCountsTotal) {
  MetricsRegistry registry;
  registry.Observe("h", MetricScope::kDeterministic, {1, 2}, 2);
  const std::string det = DeterministicSection(MetricsJson(registry));
  EXPECT_NE(det.find("\"bounds\": [1, 2]"), std::string::npos);
  EXPECT_NE(det.find("\"counts\": [0, 1, 0]"), std::string::npos);
  EXPECT_NE(det.find("\"total\": 1"), std::string::npos);
}

// Every emitter's output must parse with the one strict reader.
void ExpectValidJson(const std::string& text) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &root, &error)) << error << "\n" << text;
  EXPECT_EQ(root.kind, JsonValue::Kind::kObject);
}

TEST(RunReportTest, MetricsJsonIsStructurallyValid) {
  MetricsRegistry registry;
  registry.Count("needs\"escaping\\here", MetricScope::kDeterministic, 1);
  registry.Observe("h", MetricScope::kTiming, {5}, 9);
  ExpectValidJson(MetricsJson(registry));
}

// --- histogram percentile summaries ----------------------------------------

TEST(HistogramQuantileTest, InterpolatesWithinTheBucketHoldingTheRank) {
  MetricsRegistry registry;
  const std::vector<uint64_t> bounds = {10, 20};
  for (int i = 0; i < 10; ++i) {
    registry.Observe("h", MetricScope::kTiming, bounds, 5);
  }
  const Metric* metric = registry.Find("h");
  ASSERT_NE(metric, nullptr);
  // All 10 observations landed in (0, 10]; linear interpolation places the
  // 5th of 10 at half the bucket span (approximate by design).
  EXPECT_EQ(HistogramQuantile(*metric, 50), 5u);
  EXPECT_EQ(HistogramQuantile(*metric, 90), 9u);
  EXPECT_EQ(HistogramQuantile(*metric, 99), 10u);
}

TEST(HistogramQuantileTest, OverflowBucketCapsAtTheLastBoundAndNonHistogramsReadZero) {
  MetricsRegistry registry;
  registry.Observe("h", MetricScope::kTiming, {10, 20}, 25);  // overflow bucket
  const Metric* metric = registry.Find("h");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(HistogramQuantile(*metric, 99), 20u);

  registry.Count("c", MetricScope::kTiming, 7);
  EXPECT_EQ(HistogramQuantile(*registry.Find("c"), 50), 0u);
  Metric empty;
  empty.kind = MetricKind::kHistogram;
  EXPECT_EQ(HistogramQuantile(empty, 50), 0u);
}

TEST(RunReportTest, TimingHistogramsCarryPercentileSummaries) {
  MetricsRegistry registry;
  for (uint64_t v = 1; v <= 100; ++v) {
    registry.Observe("timing/h", MetricScope::kTiming, {50, 100}, v);
  }
  registry.Observe("det/h", MetricScope::kDeterministic, {50, 100}, 10);
  const std::string json = MetricsJson(registry);
  EXPECT_NE(json.find("\"p50\": 50"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\": 90"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 99"), std::string::npos) << json;
  // Deterministic histograms stay summary-free: their section's bytes are
  // compared across runs and the summaries would add no information the
  // bucket counts don't already pin down.
  EXPECT_EQ(DeterministicSection(json).find("\"p50\""), std::string::npos);
  ExpectValidJson(json);
}

TEST(MetricsTextSummaryTest, RendersCountersPlainAndHistogramsWithPercentiles) {
  MetricsRegistry registry;
  registry.Count("cache/verdict_hits", MetricScope::kTiming, 3);
  for (uint64_t v = 1; v <= 10; ++v) {
    registry.Observe("cache/probe_us", MetricScope::kTiming, {10, 20}, v);
  }
  const std::string text = MetricsTextSummary(registry);
  EXPECT_NE(text.find("cache/verdict_hits 3"), std::string::npos) << text;
  EXPECT_NE(text.find("cache/probe_us total=10 p50="), std::string::npos) << text;
  EXPECT_NE(text.find("p90="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

// --- tracing ---------------------------------------------------------------

TEST(TraceTest, SpanRecordsEventAndFoldsTimeIntoMetrics) {
  TraceCollector collector;
  MetricsRegistry registry;
  {
    ScopedTraceSink trace_sink(collector.NewBuffer(3));
    ScopedMetricsSink metrics_sink(&registry);
    TraceSpan span("unit-test-phase", "test");
    span.Arg("items", 7);
  }
  const std::vector<TraceEvent> events = collector.SortedEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit-test-phase");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].tid, 3);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "items");
  EXPECT_EQ(events[0].args[0].second, 7u);
  // The span also folded wall time into the metrics sink.
  EXPECT_EQ(registry.Value("time/unit-test-phase/calls"), 1u);
  ASSERT_NE(registry.Find("time/unit-test-phase/micros"), nullptr);
}

TEST(TraceTest, SpanWithoutSinksIsInert) {
  TraceSpan span("nobody-listening");
  span.Arg("ignored", 1);
  EXPECT_EQ(span.ElapsedMicros(), 0u);
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceTest, SortedEventsPutParentsBeforeChildren) {
  TraceCollector collector;
  {
    ScopedTraceSink sink(collector.NewBuffer(0));
    TraceSpan outer("outer");
    // Let the clock tick so the children start strictly after the parent —
    // same-microsecond spans would tie-break on append order instead.
    const uint64_t t0 = TraceNowMicros();
    while (TraceNowMicros() == t0) {
    }
    { TraceSpan inner("inner"); }
    { TraceSpan inner2("inner2"); }
  }
  const std::vector<TraceEvent> events = collector.SortedEvents();
  ASSERT_EQ(events.size(), 3u);
  // The outer span starts no later than its children and sorts first
  // despite being *appended* last (spans record on destruction).
  EXPECT_EQ(events[0].name, "outer");
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.start_us, events[0].start_us);
    EXPECT_LE(event.start_us + event.duration_us,
              events[0].start_us + events[0].duration_us + 1);
  }
}

TEST(TraceTest, TraceJsonIsStructurallyValidCompleteEvents) {
  TraceCollector collector;
  {
    ScopedTraceSink sink(collector.NewBuffer(0));
    TraceSpan span("phase \"quoted\"", "cat");
    span.Arg("n", 2);
  }
  const std::string json = TraceJson(collector.SortedEvents());
  ExpectValidJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceTest, TraceJsonEscapesHostileSpanNames) {
  // Regression: bytes outside the ASCII printable range used to pass
  // through raw (and negative chars sign-extended into garbage \u escapes),
  // producing trace files strict JSON parsers reject.
  TraceCollector collector;
  {
    ScopedTraceSink sink(collector.NewBuffer(0));
    TraceSpan span(std::string("evil \"name\" \\ tab\there\nnl \x01 hi\xff"), "cat");
  }
  const std::string json = TraceJson(collector.SortedEvents());
  ExpectValidJson(json);
  EXPECT_NE(json.find("\\\"name\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\\ tab\\t"), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  EXPECT_NE(json.find("\\u00ff"), std::string::npos) << json;
  // No raw control or non-ASCII byte survives anywhere in the output.
  for (const char c : json) {
    const unsigned char byte = static_cast<unsigned char>(c);
    EXPECT_TRUE(byte == '\n' || (byte >= 0x20 && byte < 0x7f)) << static_cast<int>(byte);
  }
}

TEST(JsonQuotedTest, EscapesQuotesBackslashesControlAndHighBytes) {
  EXPECT_EQ(JsonQuoted("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuoted("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(JsonQuoted(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(JsonQuoted(std::string("\xff", 1)), "\"\\u00ff\"");
  EXPECT_EQ(JsonQuoted(std::string("\x7f", 1)), "\"\\u007f\"");
}

// --- progress heartbeat ----------------------------------------------------

TEST(ProgressMeterTest, ThrottlesTicksAndAlwaysPrintsTheFinalLine) {
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  {
    ProgressMeter meter("programs", 50, stream, /*min_interval_ms=*/60000);
    meter.Tick(1, 0);   // first tick prints
    meter.Tick(2, 0);   // inside the interval: suppressed
    meter.Tick(3, 1);   // still suppressed
    meter.Finish(50, 2);  // final line always prints
  }
  std::fclose(stream);
  const std::string out(buffer, size);
  free(buffer);

  size_t lines = 0;
  for (size_t at = out.find("progress:"); at != std::string::npos;
       at = out.find("progress:", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 2u) << out;
  EXPECT_NE(out.find("1/50 programs"), std::string::npos) << out;
  EXPECT_NE(out.find("50/50 programs, 2 findings"), std::string::npos) << out;
  EXPECT_NE(out.find(", done"), std::string::npos) << out;
}

TEST(ProgressMeterTest, StaleCountsNeverRegressThePrintedLine) {
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  {
    ProgressMeter meter("programs", 50, stream, /*min_interval_ms=*/0);
    meter.Tick(7, 2);    // a fast worker reports first
    meter.Tick(5, 1);    // a slow worker delivers its stale count afterwards
    meter.Finish(50, 3);
  }
  std::fclose(stream);
  const std::string out(buffer, size);
  free(buffer);

  // The stale tick re-prints the max-so-far instead of going backwards.
  EXPECT_NE(out.find("7/50 programs, 2 findings"), std::string::npos) << out;
  EXPECT_EQ(out.find("5/50"), std::string::npos) << out;
  EXPECT_EQ(out.find("1 findings"), std::string::npos) << out;
}

TEST(ProgressMeterTest, ZeroTotalPrintsPlaceholderEtaInsteadOfDividingByZero) {
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  {
    // An empty replay corpus: total == 0 but ticks still arrive.
    ProgressMeter meter("reproducers", 0, stream, /*min_interval_ms=*/0);
    meter.Tick(0, 0);
    meter.Tick(3, 1);
    meter.Finish(3, 1);
  }
  std::fclose(stream);
  const std::string out(buffer, size);
  free(buffer);
  EXPECT_NE(out.find("eta --:--"), std::string::npos) << out;
  EXPECT_EQ(out.find("eta 0s"), std::string::npos) << out;
  // The final line never extrapolates.
  EXPECT_NE(out.find(", done"), std::string::npos) << out;
}

TEST(ProgressMeterTest, FirstTickBeforeAnyProgressPrintsPlaceholderEta) {
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  {
    ProgressMeter meter("programs", 10, stream, /*min_interval_ms=*/0);
    meter.Tick(0, 0);  // done == 0: no rate to extrapolate from yet
  }
  std::fclose(stream);
  const std::string out(buffer, size);
  free(buffer);
  EXPECT_NE(out.find("0/10 programs"), std::string::npos) << out;
  EXPECT_NE(out.find("eta --:--"), std::string::npos) << out;
}

// --- coverage readers --------------------------------------------------------

TEST(CoverageSinkTest, CoverPointIsANoOpWithoutASinkAndScopedSinksNest) {
  CoverPoint("free", "standing");
  EXPECT_EQ(CurrentMetrics(), nullptr);
  MetricsRegistry outer;
  MetricsRegistry inner;
  {
    ScopedMetricsSink outer_sink(&outer);
    CoverPoint("d", "n");
    {
      ScopedMetricsSink inner_sink(&inner);
      CoverPoint("d", "n");
    }
    CoverPoint("d", "n", 2);
    CoverPoint("d", "zero", 0);
  }
  EXPECT_EQ(CurrentMetrics(), nullptr);
  // A coverage point is a deterministic counter named coverage/<domain>/<point>.
  EXPECT_EQ(CoverageKey("d", "n"), "coverage/d/n");
  const Metric* point = outer.Find("coverage/d/n");
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(point->value, 3u);
  EXPECT_EQ(point->scope, MetricScope::kDeterministic);
  EXPECT_NE(outer.Find("coverage/d/zero"), nullptr);
  EXPECT_EQ(inner.Value("coverage/d/n"), 1u);
}

TEST(CoverageDiffTest, CountsDeterministicChangesOnlyAndFlagsRegressions) {
  const auto kDet = MetricScope::kDeterministic;
  MetricsRegistry before;
  before.Count(CoverageKey("d", "same"), kDet, 5);
  before.Count(CoverageKey("d", "dropped"), kDet, 2);
  before.Count(CoverageKey("d", "shrunk"), kDet, 9);
  before.Count(CoverageKey("wall", "t"), MetricScope::kTiming, 100);
  before.Count("campaign/findings_total", kDet, 1);
  MetricsRegistry after;
  after.Count(CoverageKey("d", "same"), kDet, 5);
  after.Count(CoverageKey("d", "shrunk"), kDet, 3);
  after.Count(CoverageKey("d", "added"), kDet, 1);
  after.Count(CoverageKey("wall", "t"), MetricScope::kTiming, 999);
  after.Count("campaign/findings_total", kDet, 2);  // not a coverage point

  const CoverageDiff diff = DiffCoverage(before, after);
  EXPECT_EQ(diff.deterministic_differences, 3);  // dropped, shrunk, added
  EXPECT_NE(diff.text.find("(regressed)"), std::string::npos) << diff.text;
  EXPECT_NE(diff.text.find("[timing] wall/t: 100 -> 999"), std::string::npos) << diff.text;
  EXPECT_EQ(diff.text.find("same"), std::string::npos) << diff.text;
  EXPECT_EQ(diff.text.find("findings_total"), std::string::npos) << diff.text;

  const CoverageDiff clean = DiffCoverage(before, before);
  EXPECT_EQ(clean.deterministic_differences, 0);
}

TEST(CoverageBlindSpotTest, FlagsSeededFaultsThatNeverProgressedToDetection) {
  MetricsRegistry registry;
  const auto point = [&registry](const std::string& name, uint64_t value) {
    registry.Count(CoverageKey("fault-trigger", name), MetricScope::kDeterministic, value);
  };
  point("a/seeded", 1);
  point("a/exercised", 0);
  point("a/detected", 0);
  point("b/seeded", 1);
  point("b/exercised", 4);
  point("b/detected", 0);
  point("c/seeded", 1);
  point("c/exercised", 4);
  point("c/detected", 1);
  point("c/first_detection_index", 3);
  point("unseeded/seeded", 0);
  point("unseeded/exercised", 0);

  std::string out;
  EXPECT_EQ(CoverageBlindSpotViolations(registry, &out), 2);
  EXPECT_NE(out.find("a: seeded but never exercised"), std::string::npos) << out;
  EXPECT_NE(out.find("b: exercised but never detected"), std::string::npos) << out;
  EXPECT_EQ(out.find("c:"), std::string::npos) << out;
  EXPECT_EQ(out.find("unseeded"), std::string::npos) << out;

  MetricsRegistry empty;
  std::string missing;
  EXPECT_EQ(CoverageBlindSpotViolations(empty, &missing), 1);
}

TEST(CoverageReportTest, GroupsPointsByDomainAndListsBlindSpots) {
  const auto kDet = MetricScope::kDeterministic;
  MetricsRegistry registry;
  registry.Count(CoverageKey("detection-latency-wall", "f/micros_to_first"),
                 MetricScope::kTiming, 7);
  registry.Count(CoverageKey("detection-latency", "f/tests_at_detection"), kDet, 2);
  registry.Count(CoverageKey("gen-construct", "slice"), kDet, 0);
  registry.Count("smt/conflicts", MetricScope::kTiming, 9);
  const std::string text = CoverageReportText(registry);
  // Domains sort by name, so "detection-latency" precedes its "-wall"
  // sibling although "coverage/detection-latency-wall/" is the smaller key.
  const size_t latency = text.find("domain detection-latency [deterministic]: 1 points, 0 zero");
  const size_t wall = text.find("domain detection-latency-wall [timing]: 1 points, 0 zero");
  ASSERT_NE(latency, std::string::npos) << text;
  ASSERT_NE(wall, std::string::npos) << text;
  EXPECT_LT(latency, wall);
  EXPECT_NE(text.find("  gen-construct/slice: zero count\n"), std::string::npos) << text;
  EXPECT_NE(text.find("  no fault-trigger domain recorded\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("conflicts"), std::string::npos) << text;
}

// --- campaign integration --------------------------------------------------

// Mirrors runtime_test.cc: wall-clock budgets off so outcomes (and thus the
// deterministic metrics) cannot depend on machine load under parallel ctest.
ParallelCampaignOptions TelemetryCampaign(int num_programs, int jobs) {
  ParallelCampaignOptions options;
  options.campaign.seed = 42;
  options.campaign.num_programs = num_programs;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  options.campaign.testgen.query_time_limit_ms = 0;
  options.campaign.tv.query_time_limit_ms = 0;
  options.campaign.tv.program_budget_ms = 0;
  options.jobs = jobs;
  return options;
}

BugConfig TelemetryBugs() {
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  return bugs;
}

void ExpectIdenticalFindings(const CampaignReport& a, const CampaignReport& b) {
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    const Finding& fa = a.findings[i];
    const Finding& fb = b.findings[i];
    EXPECT_EQ(fa.program_index, fb.program_index);
    EXPECT_EQ(fa.method, fb.method);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.component, fb.component);
    EXPECT_EQ(fa.attributed, fb.attributed);
    EXPECT_EQ(fa.detail, fb.detail);
    EXPECT_EQ(fa.repro_test.has_value(), fb.repro_test.has_value());
    if (fa.repro_test.has_value() && fb.repro_test.has_value()) {
      EXPECT_EQ(EmitStf(*fa.repro_test), EmitStf(*fb.repro_test));
    }
  }
}

// One campaign over TelemetryBugs() with a metrics registry installed.
struct InstrumentedRun {
  CampaignReport report;
  MetricsRegistry metrics;
};

InstrumentedRun RunInstrumented(int num_programs, int jobs, bool use_cache = true) {
  InstrumentedRun run;
  ParallelCampaignOptions options = TelemetryCampaign(num_programs, jobs);
  options.campaign.use_cache = use_cache;
  options.campaign.metrics = &run.metrics;
  run.report = ParallelCampaign(options).Run(TelemetryBugs());
  return run;
}

TEST(CampaignTelemetryTest, DeterministicSectionIsByteIdenticalAcrossJobs) {
  const InstrumentedRun serial = RunInstrumented(16, 1);
  const InstrumentedRun parallel = RunInstrumented(16, 8);
  ExpectIdenticalFindings(serial.report, parallel.report);
  const std::string serial_det = DeterministicSection(MetricsJson(serial.metrics));
  ASSERT_FALSE(serial_det.empty());
  EXPECT_EQ(serial_det, DeterministicSection(MetricsJson(parallel.metrics)));
  // The section genuinely reflects the run.
  EXPECT_EQ(serial.metrics.Value("campaign/programs_generated"), 16u);
  EXPECT_EQ(serial.metrics.Value("campaign/findings_total"), serial.report.findings.size());
  EXPECT_EQ(serial.metrics.Value("campaign/distinct_bugs"), serial.report.DistinctCount());
}

TEST(CampaignTelemetryTest, DeterministicSectionIsByteIdenticalCacheOnOrOff) {
  const InstrumentedRun cached = RunInstrumented(12, 4);
  const InstrumentedRun uncached = RunInstrumented(12, 4, /*use_cache=*/false);
  ExpectIdenticalFindings(cached.report, uncached.report);
  EXPECT_EQ(DeterministicSection(MetricsJson(cached.metrics)),
            DeterministicSection(MetricsJson(uncached.metrics)));
  // Cache counters exist only on the cached run — and only in timing.
  EXPECT_NE(cached.metrics.Find("cache/verdict_hits"), nullptr);
  EXPECT_EQ(uncached.metrics.Find("cache/verdict_hits"), nullptr);
}

TEST(CampaignTelemetryTest, FindingsAreBitIdenticalWithTelemetryOnOrOff) {
  const BugConfig bugs = TelemetryBugs();
  const CampaignReport plain = ParallelCampaign(TelemetryCampaign(16, 4)).Run(bugs);

  MetricsRegistry metrics;
  TraceCollector trace;
  ParallelCampaignOptions instrumented = TelemetryCampaign(16, 4);
  instrumented.campaign.metrics = &metrics;
  instrumented.campaign.trace = &trace;
  std::atomic<uint64_t> heartbeat_calls{0};
  instrumented.campaign.progress = [&heartbeat_calls](uint64_t, uint64_t) {
    ++heartbeat_calls;
  };
  const CampaignReport traced = ParallelCampaign(instrumented).Run(bugs);

  ExpectIdenticalFindings(plain, traced);
  EXPECT_EQ(plain.programs_generated, traced.programs_generated);
  EXPECT_EQ(plain.tests_generated, traced.tests_generated);
  EXPECT_EQ(heartbeat_calls.load(), 16u);
  EXPECT_FALSE(metrics.empty());
  EXPECT_FALSE(trace.empty());
}

TEST(CampaignTelemetryTest, CampaignTraceIsWellFormedAndCoversThePhases) {
  MetricsRegistry metrics;
  TraceCollector trace;
  ParallelCampaignOptions options = TelemetryCampaign(8, 2);
  options.campaign.metrics = &metrics;
  options.campaign.trace = &trace;
  ParallelCampaign(options).Run(TelemetryBugs());

  const std::vector<TraceEvent> events = trace.SortedEvents();
  ASSERT_FALSE(events.empty());
  bool saw_generate = false;
  bool saw_solve = false;
  bool saw_target = false;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_FALSE(events[i].name.empty());
    saw_generate |= events[i].name == "generate";
    saw_solve |= events[i].name == "smt-solve";
    saw_target |= events[i].category == "target";
    if (i > 0) {
      EXPECT_GE(events[i].start_us, events[i - 1].start_us);  // sorted
    }
  }
  EXPECT_TRUE(saw_generate);
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_target);
  ExpectValidJson(TraceJson(events));
  // Per-span SAT effort attribution: every smt-solve span carries its own
  // conflict/decision counts (satellite: per-solve solver counters).
  for (const TraceEvent& event : events) {
    if (event.name != "smt-solve") {
      continue;
    }
    bool has_conflicts = false;
    for (const auto& [key, value] : event.args) {
      has_conflicts |= key == "conflicts";
    }
    EXPECT_TRUE(has_conflicts);
  }
}

// --- coverage integration --------------------------------------------------

TEST(CampaignCoverageTest, DeterministicSectionIsByteIdenticalAcrossJobs) {
  const InstrumentedRun serial = RunInstrumented(16, 1);
  const InstrumentedRun parallel = RunInstrumented(16, 8);
  ExpectIdenticalFindings(serial.report, parallel.report);
  ASSERT_NE(serial.metrics.Find(CoverageKey("gen-construct", "program")), nullptr);
  const CoverageDiff diff = DiffCoverage(serial.metrics, parallel.metrics);
  EXPECT_EQ(diff.deterministic_differences, 0) << diff.text;

  // The detection-latency accounting agrees with the findings themselves.
  ASSERT_FALSE(serial.report.latency.empty());
  for (const auto& [bug, latency] : serial.report.latency) {
    int earliest = -1;
    int attributed = 0;
    for (const Finding& finding : serial.report.findings) {
      if (finding.attributed == bug) {
        earliest = earliest < 0 ? finding.program_index : earliest;
        ++attributed;
      }
    }
    EXPECT_EQ(latency.first_program_index, earliest);
    EXPECT_LE(latency.tests_at_detection, serial.report.tests_generated);
    const std::string name = BugIdToString(bug);
    const auto point = [&serial](const char* domain, const std::string& facet) {
      return serial.metrics.Find(CoverageKey(domain, facet));
    };
    EXPECT_EQ(serial.metrics.Value("campaign/findings/bug/" + name),
              static_cast<uint64_t>(attributed));
    ASSERT_NE(point("fault-trigger", name + "/first_detection_index"), nullptr);
    EXPECT_EQ(point("fault-trigger", name + "/first_detection_index")->value,
              static_cast<uint64_t>(earliest));
    ASSERT_NE(point("detection-latency", name + "/tests_at_detection"), nullptr);
    EXPECT_EQ(point("detection-latency", name + "/tests_at_detection")->value,
              static_cast<uint64_t>(latency.tests_at_detection));
    ASSERT_NE(point("detection-latency-wall", name + "/micros_to_first"), nullptr);
    EXPECT_EQ(point("detection-latency-wall", name + "/micros_to_first")->scope,
              MetricScope::kTiming);
  }
  // Parallel index-order merging reproduces the serial latency counters.
  EXPECT_EQ(serial.report.latency.size(), parallel.report.latency.size());
  for (const auto& [bug, latency] : serial.report.latency) {
    const auto it = parallel.report.latency.find(bug);
    ASSERT_NE(it, parallel.report.latency.end());
    EXPECT_EQ(it->second.first_program_index, latency.first_program_index);
    EXPECT_EQ(it->second.tests_at_detection, latency.tests_at_detection);
  }
}

TEST(CampaignCoverageTest, DeterministicSectionIsByteIdenticalCacheOnOrOff) {
  const InstrumentedRun cached = RunInstrumented(12, 4);
  const InstrumentedRun uncached = RunInstrumented(12, 4, /*use_cache=*/false);
  ExpectIdenticalFindings(cached.report, uncached.report);
  ASSERT_NE(cached.metrics.Find(CoverageKey("path-shape", "class/table-hit")), nullptr);
  const CoverageDiff diff = DiffCoverage(cached.metrics, uncached.metrics);
  EXPECT_EQ(diff.deterministic_differences, 0) << diff.text;
}

TEST(CampaignCoverageTest, FindingsAreBitIdenticalWithCoverageOnOrOff) {
  const CampaignReport plain = ParallelCampaign(TelemetryCampaign(12, 4)).Run(TelemetryBugs());
  const InstrumentedRun covered = RunInstrumented(12, 4);
  ExpectIdenticalFindings(plain, covered.report);
  EXPECT_EQ(plain.tests_generated, covered.report.tests_generated);
  EXPECT_NE(covered.metrics.Find(CoverageKey("gen-construct", "program")), nullptr);
}

TEST(CampaignCoverageTest, FaultTriggerDomainCoversTheWholeCatalogue) {
  const InstrumentedRun run = RunInstrumented(4, 2);
  const auto point = [&run](const char* domain, const std::string& name) {
    return run.metrics.Find(CoverageKey(domain, name));
  };
  // Every catalogued fault appears with its full point set — including the
  // ones this campaign never seeded — so a coverage report always shows
  // what *wasn't* tried, not just what was.
  for (const BugInfo& info : BugCatalogue()) {
    const std::string base = std::string(info.name) + "/";
    EXPECT_NE(point("fault-trigger", base + "seeded"), nullptr) << info.name;
    EXPECT_NE(point("fault-trigger", base + "exercised"), nullptr) << info.name;
    EXPECT_NE(point("fault-trigger", base + "detected"), nullptr) << info.name;
  }
  EXPECT_EQ(point("fault-trigger", "typechecker-shift-crash/seeded")->value, 1u);
  EXPECT_EQ(point("fault-trigger", "predication-lost-else/seeded")->value, 0u);
  // The standard construct/path domains exist with stable key sets.
  ASSERT_NE(point("gen-construct", "program"), nullptr);
  EXPECT_NE(point("gen-construct", "table"), nullptr);
  EXPECT_NE(point("path-shape", "class/table-hit"), nullptr);
  EXPECT_NE(point("table-config", "keyless-table"), nullptr);
  EXPECT_EQ(point("gen-construct", "program")->value,
            static_cast<uint64_t>(run.report.programs_generated));
}

}  // namespace
}  // namespace gauntlet
