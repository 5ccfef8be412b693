#include "src/obs/run_report.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/support/file_io.h"
#include "src/support/json.h"

namespace gauntlet {

namespace {

void AppendNumberArray(std::ostringstream& out, const std::vector<uint64_t>& values) {
  out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ", ";
    out << values[i];
  }
  out << ']';
}

void AppendSection(std::ostringstream& out, const MetricsRegistry& registry, MetricScope scope) {
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : registry.metrics()) {
    if (metric.scope != scope) {
      continue;
    }
    if (!first) out << ",";
    first = false;
    out << "\n    ";
    out << JsonQuoted(name);
    out << ": ";
    if (metric.kind == MetricKind::kHistogram) {
      out << "{\"bounds\": ";
      AppendNumberArray(out, metric.bounds);
      out << ", \"counts\": ";
      AppendNumberArray(out, metric.counts);
      out << ", \"total\": " << metric.value;
      if (scope == MetricScope::kTiming) {
        // Approximate bucket-interpolated percentiles (HistogramQuantile).
        // Timing section only: percentiles of deterministic histograms are
        // derivable from the buckets, and keeping them out preserves the
        // byte-for-byte minimality the determinism gates diff on.
        out << ", \"p50\": " << HistogramQuantile(metric, 50)
            << ", \"p90\": " << HistogramQuantile(metric, 90)
            << ", \"p99\": " << HistogramQuantile(metric, 99);
      }
      out << "}";
    } else {
      out << metric.value;
    }
  }
  if (!first) out << "\n  ";
  out << "}";
}

}  // namespace

std::string MetricsJson(const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\n  \"version\": " << kRunReportVersion << ",\n  \"deterministic\": ";
  AppendSection(out, registry, MetricScope::kDeterministic);
  out << ",\n  \"timing\": ";
  AppendSection(out, registry, MetricScope::kTiming);
  out << "\n}\n";
  return out.str();
}

namespace {

bool ParseNumberArray(const JsonValue& array, std::vector<uint64_t>* out) {
  if (array.kind != JsonValue::Kind::kArray) {
    return false;
  }
  for (const JsonValue& item : array.items) {
    if (item.kind != JsonValue::Kind::kNumber) {
      return false;
    }
    out->push_back(item.number);
  }
  return true;
}

// One histogram object, members in the order AppendSection writes them.
bool ParseHistogram(const JsonValue& value, MetricScope scope, Metric* metric) {
  static const char* const kKeys[] = {"bounds", "counts", "total", "p50", "p90", "p99"};
  const size_t key_count = scope == MetricScope::kTiming ? 6 : 3;
  if (value.members.size() != key_count) {
    return false;
  }
  for (size_t i = 0; i < key_count; ++i) {
    if (value.members[i].first != kKeys[i]) {
      return false;
    }
  }
  metric->kind = MetricKind::kHistogram;
  if (!ParseNumberArray(value.members[0].second, &metric->bounds) ||
      !ParseNumberArray(value.members[1].second, &metric->counts) || metric->bounds.empty() ||
      !std::is_sorted(metric->bounds.begin(), metric->bounds.end()) ||
      metric->counts.size() != metric->bounds.size() + 1) {
    return false;
  }
  for (const uint64_t count : metric->counts) {
    if (metric->value + count < metric->value) {
      return false;  // the counts overflow any total
    }
    metric->value += count;
  }
  const JsonValue& total = value.members[2].second;
  if (total.kind != JsonValue::Kind::kNumber || total.number != metric->value) {
    return false;
  }
  static const uint64_t kPercentiles[] = {50, 90, 99};
  for (size_t i = 3; i < key_count; ++i) {
    const JsonValue& percentile = value.members[i].second;
    if (percentile.kind != JsonValue::Kind::kNumber ||
        percentile.number != HistogramQuantile(*metric, kPercentiles[i - 3])) {
      return false;
    }
  }
  return true;
}

bool ParseMetricsSection(const JsonValue* section, const char* name, MetricScope scope,
                         MetricsRegistry* out, std::string* error) {
  if (section == nullptr || section->kind != JsonValue::Kind::kObject) {
    *error = std::string("missing ") + name + " section";
    return false;
  }
  for (const auto& [key, value] : section->members) {
    Metric metric;
    metric.scope = scope;
    if (value.kind == JsonValue::Kind::kNumber) {
      metric.value = value.number;
    } else if (value.kind != JsonValue::Kind::kObject || !ParseHistogram(value, scope, &metric)) {
      *error = "malformed metric '" + key + "' in the " + name + " section";
      return false;
    }
    if (!out->Insert(key, std::move(metric))) {
      *error = "metric '" + key + "' appears in both sections";
      return false;
    }
  }
  return true;
}

}  // namespace

bool ParseMetricsJson(const std::string& text, MetricsRegistry* out, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  JsonValue root;
  if (!ParseJson(text, &root, error)) {
    return false;
  }
  const JsonValue* version = root.Find("version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber) {
    *error = "missing version header";
    return false;
  }
  if (version->number != static_cast<uint64_t>(kRunReportVersion)) {
    *error = "unsupported metrics version " + std::to_string(version->number);
    return false;
  }
  if (root.members.size() != 3) {
    *error = "unexpected member in the metrics object";
    return false;
  }
  MetricsRegistry parsed;
  if (!ParseMetricsSection(root.Find("deterministic"), "deterministic",
                           MetricScope::kDeterministic, &parsed, error) ||
      !ParseMetricsSection(root.Find("timing"), "timing", MetricScope::kTiming, &parsed, error)) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

std::string DeterministicSection(const std::string& metrics_json) {
  JsonValue root;
  if (!ParseJson(metrics_json, &root, nullptr)) {
    return "";
  }
  const JsonValue* section = root.Find("deterministic");
  if (section == nullptr || section->kind != JsonValue::Kind::kObject) {
    return "";
  }
  return metrics_json.substr(section->begin, section->end - section->begin);
}

std::string TraceJson(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": ";
    out << JsonQuoted(event.name);
    out << ", \"cat\": ";
    out << JsonQuoted(event.category);
    out << ", \"ph\": \"X\", \"ts\": " << event.start_us << ", \"dur\": " << event.duration_us
        << ", \"pid\": 1, \"tid\": " << event.tid;
    if (!event.args.empty()) {
      out << ", \"args\": {";
      for (size_t i = 0; i < event.args.size(); ++i) {
        if (i != 0) out << ", ";
        out << JsonQuoted(event.args[i].first);
        out << ": " << event.args[i].second;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

bool WriteMetricsFile(const std::string& path, const MetricsRegistry& registry) {
  return WriteFileAtomic(path, MetricsJson(registry));
}

bool WriteTraceFile(const std::string& path, const TraceCollector& collector) {
  return WriteFileAtomic(path, TraceJson(collector.SortedEvents()));
}

}  // namespace gauntlet
