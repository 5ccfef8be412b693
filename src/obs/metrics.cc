#include "src/obs/metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/support/error.h"

namespace gauntlet {

namespace {
thread_local MetricsRegistry* g_current_metrics = nullptr;
}  // namespace

Metric& MetricsRegistry::Slot(std::string_view name, MetricScope scope, MetricKind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Metric{}).first;
    it->second.scope = scope;
    it->second.kind = kind;
    return it->second;
  }
  GAUNTLET_BUG_CHECK(it->second.kind == kind,
                     "metric '" + std::string(name) + "' reused with a different kind");
  GAUNTLET_BUG_CHECK(it->second.scope == scope,
                     "metric '" + std::string(name) + "' reused with a different scope");
  return it->second;
}

void MetricsRegistry::Count(std::string_view name, MetricScope scope, uint64_t delta) {
  Slot(name, scope, MetricKind::kCounter).value += delta;
}

void MetricsRegistry::GaugeMax(std::string_view name, MetricScope scope, uint64_t value) {
  Metric& metric = Slot(name, scope, MetricKind::kGauge);
  metric.value = std::max(metric.value, value);
}

void MetricsRegistry::Observe(std::string_view name, MetricScope scope,
                              const std::vector<uint64_t>& bounds, uint64_t value) {
  Metric& metric = Slot(name, scope, MetricKind::kHistogram);
  if (metric.counts.empty()) {
    GAUNTLET_BUG_CHECK(!bounds.empty() && std::is_sorted(bounds.begin(), bounds.end()),
                       "histogram bounds must be non-empty and sorted");
    metric.bounds = bounds;
    metric.counts.assign(bounds.size() + 1, 0);
  } else {
    GAUNTLET_BUG_CHECK(metric.bounds == bounds,
                       "histogram '" + std::string(name) + "' observed with different bounds");
  }
  const auto bucket =
      std::lower_bound(metric.bounds.begin(), metric.bounds.end(), value) - metric.bounds.begin();
  ++metric.counts[static_cast<size_t>(bucket)];
  ++metric.value;  // total observation count
}

bool MetricsRegistry::Insert(std::string_view name, Metric metric) {
  return metrics_.emplace(std::string(name), std::move(metric)).second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, metric] : other.metrics_) {
    Metric& mine = Slot(name, metric.scope, metric.kind);
    switch (metric.kind) {
      case MetricKind::kCounter:
        mine.value += metric.value;
        break;
      case MetricKind::kGauge:
        mine.value = std::max(mine.value, metric.value);
        break;
      case MetricKind::kHistogram:
        if (mine.counts.empty()) {
          mine.bounds = metric.bounds;
          mine.counts = metric.counts;
        } else {
          GAUNTLET_BUG_CHECK(mine.bounds == metric.bounds,
                             "histogram '" + name + "' merged with different bounds");
          for (size_t i = 0; i < mine.counts.size(); ++i) {
            mine.counts[i] += metric.counts[i];
          }
        }
        mine.value += metric.value;
        break;
    }
  }
}

uint64_t MetricsRegistry::Value(std::string_view name) const {
  const Metric* metric = Find(name);
  return metric == nullptr ? 0 : metric->value;
}

const Metric* MetricsRegistry::Find(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

MetricsRegistry* CurrentMetrics() { return g_current_metrics; }

ScopedMetricsSink::ScopedMetricsSink(MetricsRegistry* registry) : previous_(g_current_metrics) {
  g_current_metrics = registry;
}

ScopedMetricsSink::~ScopedMetricsSink() { g_current_metrics = previous_; }

void CountMetric(std::string_view name, MetricScope scope, uint64_t delta) {
  if (g_current_metrics != nullptr) {
    g_current_metrics->Count(name, scope, delta);
  }
}

void GaugeMaxMetric(std::string_view name, MetricScope scope, uint64_t value) {
  if (g_current_metrics != nullptr) {
    g_current_metrics->GaugeMax(name, scope, value);
  }
}

void ObserveMetric(std::string_view name, MetricScope scope,
                   const std::vector<uint64_t>& bounds, uint64_t value) {
  if (g_current_metrics != nullptr) {
    g_current_metrics->Observe(name, scope, bounds, value);
  }
}

uint64_t HistogramQuantile(const Metric& metric, uint64_t percentile) {
  const uint64_t total = metric.value;
  if (metric.kind != MetricKind::kHistogram || total == 0 || metric.counts.empty()) {
    return 0;
  }
  // Rank of the percentile-th observation, 1-based, rounded up.
  uint64_t rank = (total * percentile + 99) / 100;
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < metric.counts.size(); ++i) {
    const uint64_t in_bucket = metric.counts[i];
    if (in_bucket == 0 || cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    const uint64_t lo = i == 0 ? 0 : metric.bounds[i - 1];
    // The overflow bucket has no upper bound; cap at the last bound.
    const uint64_t hi = i < metric.bounds.size() ? metric.bounds[i] : metric.bounds.back();
    const uint64_t position = rank - cumulative;  // 1..in_bucket
    return lo + ((hi - lo) * position) / in_bucket;
  }
  return metric.bounds.back();
}

std::string MetricsTextSummary(const MetricsRegistry& registry) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, metric] : registry.metrics()) {
    if (!first) out << "\n";
    first = false;
    if (metric.kind == MetricKind::kHistogram) {
      out << name << " total=" << metric.value << " p50=" << HistogramQuantile(metric, 50)
          << " p90=" << HistogramQuantile(metric, 90) << " p99=" << HistogramQuantile(metric, 99);
    } else {
      out << name << " " << metric.value;
    }
  }
  return out.str();
}

void RecordProcessSelfStats(MetricsRegistry& registry) {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return;
  }
  // ru_maxrss is kilobytes on Linux (bytes on macOS; close enough for a
  // growth signal, and this repo's CI runs Linux).
  registry.GaugeMax("process/peak_rss_kb", MetricScope::kTiming,
                    static_cast<uint64_t>(usage.ru_maxrss < 0 ? 0 : usage.ru_maxrss));
  const auto micros = [](const struct timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000ULL + static_cast<uint64_t>(tv.tv_usec);
  };
  registry.GaugeMax("process/user_cpu_micros", MetricScope::kTiming, micros(usage.ru_utime));
  registry.GaugeMax("process/sys_cpu_micros", MetricScope::kTiming, micros(usage.ru_stime));
}

}  // namespace gauntlet
