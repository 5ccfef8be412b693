#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gauntlet {

// Which section of the machine-readable run report a metric lands in.
//
// kDeterministic metrics must be bit-identical for any --jobs value and
// with the validation cache on or off — they derive from campaign
// *outcomes* (programs, findings, tests), which the runtime already
// guarantees are schedule-independent. kTiming metrics (durations, solver
// effort, cache hit patterns) legitimately vary run to run and are kept in
// a separate section so reports can be diffed on the deterministic part.
enum class MetricScope {
  kDeterministic,
  kTiming,
};

enum class MetricKind {
  kCounter,    // monotonically summed
  kGauge,      // merged by max
  kHistogram,  // fixed-bucket counts, merged by element-wise sum
};

struct Metric {
  MetricScope scope = MetricScope::kTiming;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;  // counter sum, or gauge max

  // Histograms only: counts[i] holds observations v with
  // bounds[i-1] < v <= bounds[i]; counts.back() is the overflow bucket
  // (v > bounds.back()). counts.size() == bounds.size() + 1.
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;
};

// A named bag of counters/gauges/histograms. Not thread-safe by design:
// each worker owns a private registry (one plain increment per event on the
// hot path) and the campaign driver merges them in worker-index order, so
// the merged result is independent of scheduling.
class MetricsRegistry {
 public:
  // Adds `delta` to a counter, creating it at zero first. Passing delta 0
  // still creates the key — used so the deterministic section has a stable
  // key set regardless of observed values.
  void Count(std::string_view name, MetricScope scope, uint64_t delta = 1);

  // Raises a gauge to at least `value` (merge semantics: max).
  void GaugeMax(std::string_view name, MetricScope scope, uint64_t value);

  // Records `value` into a fixed-bucket histogram. `bounds` must be sorted
  // ascending and identical across every Observe of the same name.
  void Observe(std::string_view name, MetricScope scope,
               const std::vector<uint64_t>& bounds, uint64_t value);

  // Adds a fully formed metric under a name not yet in use (the
  // metrics.json reader's entry point); false when the name is taken.
  bool Insert(std::string_view name, Metric metric);

  // Folds `other` into this registry: counters and histogram buckets sum,
  // gauges take the max. Merging worker registries in index order yields
  // the same result for any scheduling of the underlying work.
  void MergeFrom(const MetricsRegistry& other);

  // Sorted by name (std::map), which is what makes every downstream
  // rendering — JSON report, MetricsTextSummary — stable.
  const std::map<std::string, Metric, std::less<>>& metrics() const { return metrics_; }

  // Counter/gauge value, or 0 if absent.
  uint64_t Value(std::string_view name) const;
  const Metric* Find(std::string_view name) const;

  bool empty() const { return metrics_.empty(); }

 private:
  Metric& Slot(std::string_view name, MetricScope scope, MetricKind kind);

  std::map<std::string, Metric, std::less<>> metrics_;
};

// --- thread-local sink -----------------------------------------------------
//
// Instrumentation sites deep in the pipeline (SAT solver, validator,
// testgen) do not take a registry parameter; they write to the calling
// thread's current sink, which the campaign driver installs per worker.
// With no sink installed every recording call is a null-check and return,
// so telemetry-off runs pay effectively nothing.

MetricsRegistry* CurrentMetrics();

class ScopedMetricsSink {
 public:
  explicit ScopedMetricsSink(MetricsRegistry* registry);
  ~ScopedMetricsSink();
  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;

 private:
  MetricsRegistry* previous_;
};

// No-ops when no sink is installed on this thread.
void CountMetric(std::string_view name, MetricScope scope, uint64_t delta = 1);
void GaugeMaxMetric(std::string_view name, MetricScope scope, uint64_t value);
void ObserveMetric(std::string_view name, MetricScope scope,
                   const std::vector<uint64_t>& bounds, uint64_t value);

// Approximate percentile of a histogram metric (`percentile` in 0..100),
// linearly interpolated inside the containing bucket. Integer math only, so
// the result is byte-stable across platforms. The overflow bucket has no
// upper bound and is capped at the last bound; the true percentile may be
// larger. Returns 0 for empty histograms or non-histogram metrics.
uint64_t HistogramQuantile(const Metric& metric, uint64_t percentile);

// Plain-text rendering: one `name value` line per counter/gauge, and
// `name total=N p50=A p90=B p99=C` per histogram (percentiles approximate,
// see HistogramQuantile). Key-sorted, like every other rendering.
std::string MetricsTextSummary(const MetricsRegistry& registry);

// Records this process' resource usage (getrusage: peak RSS, user/system
// CPU time) as timing-scoped gauges — `process/peak_rss_kb`,
// `process/user_cpu_micros`, `process/sys_cpu_micros` — so long campaigns
// expose memory growth in metrics.json. Gauges merge by max, so recording
// repeatedly (periodic snapshot flushes plus the final report) is
// idempotent-safe. Timing scope only: resource usage is never
// deterministic.
void RecordProcessSelfStats(MetricsRegistry& registry);

}  // namespace gauntlet

#endif  // SRC_OBS_METRICS_H_
