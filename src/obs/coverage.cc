#include "src/obs/coverage.h"

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/obs/run_report.h"

namespace gauntlet {

namespace {

constexpr std::string_view kCoveragePrefix = "coverage/";

// The registry's coverage points as ("<domain>/<point>", metric) pairs, in
// key order.
std::vector<std::pair<std::string_view, const Metric*>> CoveragePoints(
    const MetricsRegistry& registry) {
  std::vector<std::pair<std::string_view, const Metric*>> points;
  for (auto it = registry.metrics().lower_bound(kCoveragePrefix);
       it != registry.metrics().end() && it->first.rfind(kCoveragePrefix, 0) == 0; ++it) {
    points.emplace_back(std::string_view(it->first).substr(kCoveragePrefix.size()), &it->second);
  }
  return points;
}

// Splits "domain/point" at its first slash; the point is empty when there
// is none.
std::pair<std::string_view, std::string_view> SplitDomain(std::string_view key) {
  const size_t slash = key.find('/');
  if (slash == std::string_view::npos) {
    return {key, std::string_view()};
  }
  return {key.substr(0, slash), key.substr(slash + 1)};
}

// Splits "bug-name/facet" at its last slash; the facet is empty when there
// is none.
std::pair<std::string_view, std::string_view> SplitFacet(std::string_view point) {
  const size_t slash = point.rfind('/');
  if (slash == std::string_view::npos) {
    return {point, std::string_view()};
  }
  return {point.substr(0, slash), point.substr(slash + 1)};
}

const char* ScopeLabel(MetricScope scope) {
  return scope == MetricScope::kDeterministic ? "deterministic" : "timing";
}

}  // namespace

std::string CoverageKey(std::string_view domain, std::string_view point) {
  std::string key(kCoveragePrefix);
  key.append(domain).append("/").append(point);
  return key;
}

void CoverPoint(std::string_view domain, std::string_view point, uint64_t delta) {
  if (MetricsRegistry* registry = CurrentMetrics()) {
    registry->Count(CoverageKey(domain, point), MetricScope::kDeterministic, delta);
  }
}

int CoverageBlindSpotViolations(const MetricsRegistry& registry, std::string* out) {
  int violations = 0;
  bool any_fault_trigger = false;
  const auto value = [&registry](const std::string& bug, const char* facet) {
    return registry.Find(CoverageKey("fault-trigger", bug + facet));
  };
  for (const auto& [key, metric] : CoveragePoints(registry)) {
    const auto [domain, point] = SplitDomain(key);
    if (domain != "fault-trigger") {
      continue;
    }
    any_fault_trigger = true;
    const auto [bug, facet] = SplitFacet(point);
    if (facet != "seeded" || metric->value == 0) {
      continue;
    }
    const std::string name(bug);
    const Metric* exercised = value(name, "/exercised");
    const Metric* detected = value(name, "/detected");
    std::string problem;
    if (exercised == nullptr || exercised->value == 0) {
      problem = "seeded but never exercised";
    } else if (detected == nullptr || detected->value == 0) {
      problem = "exercised but never detected";
    } else if (value(name, "/first_detection_index") == nullptr) {
      problem = "detected but no first-detection index recorded";
    } else {
      continue;
    }
    ++violations;
    if (out != nullptr) {
      *out += "  fault " + name + ": " + problem + "\n";
    }
  }
  if (!any_fault_trigger) {
    if (out != nullptr) {
      *out += "  no fault-trigger domain recorded\n";
    }
    return 1;
  }
  return violations;
}

std::string CoverageReportText(const MetricsRegistry& registry) {
  // Grouped by domain name first: flat key order would put
  // "detection-latency-wall/..." before "detection-latency/...".
  std::map<std::string_view, std::vector<std::pair<std::string_view, const Metric*>>> domains;
  for (const auto& [key, metric] : CoveragePoints(registry)) {
    const auto [domain, point] = SplitDomain(key);
    domains[domain].emplace_back(point, metric);
  }

  std::ostringstream out;
  out << "coverage report (metrics.json version " << kRunReportVersion << ")\n";
  std::string blind;
  for (const auto& [name, points] : domains) {
    const MetricScope scope = points.front().second->scope;
    size_t zero_points = 0;
    for (const auto& [point, metric] : points) {
      if (metric->value == 0) ++zero_points;
    }
    out << "\ndomain " << name << " [" << ScopeLabel(scope) << "]: " << points.size()
        << " points, " << zero_points << " zero\n";
    for (const auto& [point, metric] : points) {
      out << "  " << point << ": " << metric->value << "\n";
      // Zero-count deterministic points are structural blind spots too: the
      // campaign knows about the point but never reached it.
      if (metric->value == 0 && scope == MetricScope::kDeterministic &&
          name != "fault-trigger") {
        blind += "  " + std::string(name) + "/" + std::string(point) + ": zero count\n";
      }
    }
  }

  out << "\nblind spots:\n";
  std::string faults;
  CoverageBlindSpotViolations(registry, &faults);
  blind.insert(0, faults);
  out << (blind.empty() ? "  (none)\n" : blind);
  return out.str();
}

CoverageDiff DiffCoverage(const MetricsRegistry& before, const MetricsRegistry& after) {
  std::map<std::string_view, std::pair<const Metric*, const Metric*>> points;
  for (const auto& [key, metric] : CoveragePoints(before)) points[key].first = metric;
  for (const auto& [key, metric] : CoveragePoints(after)) points[key].second = metric;

  CoverageDiff diff;
  std::ostringstream out;
  out << "coverage diff (before -> after)\n";
  for (const auto& [key, pair] : points) {
    const auto [a, b] = pair;
    if (a != nullptr && b != nullptr && a->value == b->value) {
      continue;
    }
    const bool deterministic = (a != nullptr ? a : b)->scope == MetricScope::kDeterministic;
    if (deterministic) {
      ++diff.deterministic_differences;
    }
    out << "  " << (deterministic ? "" : "[timing] ") << key << ": ";
    if (a == nullptr) {
      out << "added (" << b->value << ")";
    } else if (b == nullptr) {
      out << "removed (was " << a->value << ")";
    } else {
      out << a->value << " -> " << b->value << (b->value < a->value ? " (regressed)" : "");
    }
    out << "\n";
  }
  out << "deterministic differences: " << diff.deterministic_differences << "\n";
  diff.text = out.str();
  return diff;
}

}  // namespace gauntlet
