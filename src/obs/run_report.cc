#include "src/obs/run_report.h"

#include <sstream>

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
