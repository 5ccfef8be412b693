#include "src/obs/coverage.h"

#include <sstream>
#include <utility>

#include "src/support/file_io.h"
#include "src/support/json.h"

namespace gauntlet {

void CoverageMap::Record(std::string_view domain, std::string_view point, MetricScope scope,
                         uint64_t delta) {
  auto it = domains_.find(domain);
  if (it == domains_.end()) {
    it = domains_.emplace(std::string(domain), Domain{}).first;
    it->second.scope = scope;
  }
  auto point_it = it->second.points.find(point);
  if (point_it == it->second.points.end()) {
    point_it = it->second.points.emplace(std::string(point), 0).first;
  }
  point_it->second += delta;
}

void CoverageMap::Set(std::string_view domain, std::string_view point, MetricScope scope,
                      uint64_t value) {
  Record(domain, point, scope, 0);
  domains_.find(domain)->second.points.find(point)->second = value;
}

void CoverageMap::MergeFrom(const CoverageMap& other) {
  for (const auto& [name, domain] : other.domains_) {
    for (const auto& [point, count] : domain.points) {
      Record(name, point, domain.scope, count);
    }
  }
}

uint64_t CoverageMap::Value(std::string_view domain, std::string_view point) const {
  const auto it = domains_.find(domain);
  if (it == domains_.end()) {
    return 0;
  }
  const auto point_it = it->second.points.find(point);
  return point_it == it->second.points.end() ? 0 : point_it->second;
}

bool CoverageMap::Has(std::string_view domain, std::string_view point) const {
  const auto it = domains_.find(domain);
  return it != domains_.end() && it->second.points.find(point) != it->second.points.end();
}

// --- thread-local sink -----------------------------------------------------

namespace {
thread_local CoverageMap* current_coverage = nullptr;
}  // namespace

CoverageMap* CurrentCoverage() { return current_coverage; }

ScopedCoverageSink::ScopedCoverageSink(CoverageMap* map) : previous_(current_coverage) {
  current_coverage = map;
}

ScopedCoverageSink::~ScopedCoverageSink() { current_coverage = previous_; }

void CoverPoint(std::string_view domain, std::string_view point, MetricScope scope,
                uint64_t delta) {
  if (current_coverage != nullptr) {
    current_coverage->Record(domain, point, scope, delta);
  }
}

// --- JSON rendering --------------------------------------------------------

namespace {

void AppendCoverageSection(std::ostringstream& out, const CoverageMap& map, MetricScope scope) {
  out << "{";
  bool first_domain = true;
  for (const auto& [name, domain] : map.domains()) {
    if (domain.scope != scope) {
      continue;
    }
    if (!first_domain) out << ",";
    first_domain = false;
    out << "\n    " << JsonQuoted(name) << ": {";
    bool first_point = true;
    for (const auto& [point, count] : domain.points) {
      if (!first_point) out << ",";
      first_point = false;
      out << "\n      " << JsonQuoted(point) << ": " << count;
    }
    if (!first_point) out << "\n    ";
    out << "}";
  }
  if (!first_domain) out << "\n  ";
  out << "}";
}

}  // namespace

std::string CoverageJson(const CoverageMap& map) {
  std::ostringstream out;
  out << "{\n  \"version\": " << kCoverageVersion << ",\n  \"deterministic\": ";
  AppendCoverageSection(out, map, MetricScope::kDeterministic);
  out << ",\n  \"timing\": ";
  AppendCoverageSection(out, map, MetricScope::kTiming);
  out << "\n}\n";
  return out.str();
}

// --- JSON parsing ----------------------------------------------------------

namespace {

bool ParseSection(const JsonValue* section, const char* name, MetricScope scope,
                  CoverageMap* out, std::string* error) {
  if (section == nullptr || section->kind != JsonValue::Kind::kObject) {
    *error = std::string("missing ") + name + " section";
    return false;
  }
  for (const auto& [domain, points] : section->members) {
    if (points.kind != JsonValue::Kind::kObject) {
      *error = "domain '" + domain + "' is not an object";
      return false;
    }
    for (const auto& [point, count] : points.members) {
      if (count.kind != JsonValue::Kind::kNumber) {
        *error = "malformed point entry in domain '" + domain + "'";
        return false;
      }
      out->Record(domain, point, scope, count.number);
    }
  }
  return true;
}

}  // namespace

bool ParseCoverageJson(const std::string& text, CoverageMap* out, std::string* error) {
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
  if (version->number != static_cast<uint64_t>(kCoverageVersion)) {
    *error = "unsupported coverage version " + std::to_string(version->number);
    return false;
  }
  if (root.members.size() != 3) {
    *error = "unexpected member in the coverage object";
    return false;
  }
  CoverageMap parsed;
  if (!ParseSection(root.Find("deterministic"), "deterministic", MetricScope::kDeterministic,
                    &parsed, error) ||
      !ParseSection(root.Find("timing"), "timing", MetricScope::kTiming, &parsed, error)) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

// --- reports ---------------------------------------------------------------

namespace {

const char* ScopeLabel(MetricScope scope) {
  return scope == MetricScope::kDeterministic ? "deterministic" : "timing";
}

// Splits "bug-name/facet" into its two halves; facet is empty when there is
// no slash.
std::pair<std::string_view, std::string_view> SplitPoint(std::string_view point) {
  const size_t slash = point.rfind('/');
  if (slash == std::string_view::npos) {
    return {point, std::string_view()};
  }
  return {point.substr(0, slash), point.substr(slash + 1)};
}

}  // namespace

int CoverageBlindSpotViolations(const CoverageMap& map, std::string* out) {
  int violations = 0;
  const auto it = map.domains().find("fault-trigger");
  if (it == map.domains().end()) {
    if (out != nullptr) {
      *out += "  no fault-trigger domain recorded\n";
    }
    return 1;
  }
  for (const auto& [point, count] : it->second.points) {
    const auto [bug, facet] = SplitPoint(point);
    if (facet != "seeded" || count == 0) {
      continue;
    }
    const std::string name(bug);
    if (map.Value("fault-trigger", name + "/exercised") == 0) {
      ++violations;
      if (out != nullptr) {
        *out += "  fault " + name + ": seeded but never exercised\n";
      }
    } else if (map.Value("fault-trigger", name + "/detected") == 0) {
      ++violations;
      if (out != nullptr) {
        *out += "  fault " + name + ": exercised but never detected\n";
      }
    } else if (!map.Has("fault-trigger", name + "/first_detection_index")) {
      ++violations;
      if (out != nullptr) {
        *out += "  fault " + name + ": detected but no first-detection index recorded\n";
      }
    }
  }
  return violations;
}

std::string CoverageReportText(const CoverageMap& map) {
  std::ostringstream out;
  out << "coverage report (version " << kCoverageVersion << ")\n";
  for (const auto& [name, domain] : map.domains()) {
    size_t zero_points = 0;
    for (const auto& [point, count] : domain.points) {
      if (count == 0) ++zero_points;
    }
    out << "\ndomain " << name << " [" << ScopeLabel(domain.scope) << "]: "
        << domain.points.size() << " points, " << zero_points << " zero\n";
    for (const auto& [point, count] : domain.points) {
      out << "  " << point << ": " << count << "\n";
    }
  }

  out << "\nblind spots:\n";
  std::string blind;
  CoverageBlindSpotViolations(map, &blind);
  // Zero-count deterministic points are structural blind spots too: the
  // campaign knows about the point but never reached it.
  for (const auto& [name, domain] : map.domains()) {
    if (domain.scope != MetricScope::kDeterministic || name == "fault-trigger") {
      continue;
    }
    for (const auto& [point, count] : domain.points) {
      if (count == 0) {
        blind += "  " + name + "/" + point + ": zero count\n";
      }
    }
  }
  out << (blind.empty() ? "  (none)\n" : blind);
  return out.str();
}

CoverageDiff DiffCoverage(const CoverageMap& before, const CoverageMap& after) {
  CoverageDiff diff;
  std::ostringstream out;
  out << "coverage diff (before -> after)\n";

  // Union of domain names, walked in sorted order.
  std::map<std::string, MetricScope> domain_names;
  for (const auto& [name, domain] : before.domains()) domain_names.emplace(name, domain.scope);
  for (const auto& [name, domain] : after.domains()) domain_names.emplace(name, domain.scope);

  for (const auto& [name, scope] : domain_names) {
    const bool deterministic = scope == MetricScope::kDeterministic;
    std::map<std::string, char> points;  // value unused; sorted union
    const auto before_it = before.domains().find(name);
    const auto after_it = after.domains().find(name);
    if (before_it != before.domains().end()) {
      for (const auto& [point, count] : before_it->second.points) points.emplace(point, 0);
    }
    if (after_it != after.domains().end()) {
      for (const auto& [point, count] : after_it->second.points) points.emplace(point, 0);
    }
    for (const auto& [point, unused] : points) {
      const bool in_before = before.Has(name, point);
      const bool in_after = after.Has(name, point);
      const uint64_t a = before.Value(name, point);
      const uint64_t b = after.Value(name, point);
      if (in_before && in_after && a == b) {
        continue;
      }
      if (deterministic) {
        ++diff.deterministic_differences;
      }
      out << "  " << (deterministic ? "" : "[timing] ") << name << "/" << point << ": ";
      if (!in_before) {
        out << "added (" << b << ")";
      } else if (!in_after) {
        out << "removed (was " << a << ")";
      } else {
        out << a << " -> " << b << (b < a ? " (regressed)" : "");
      }
      out << "\n";
    }
  }
  out << "deterministic differences: " << diff.deterministic_differences << "\n";
  diff.text = out.str();
  return diff;
}

bool WriteCoverageFile(const std::string& path, const CoverageMap& map) {
  return WriteFileAtomic(path, CoverageJson(map));
}

}  // namespace gauntlet
