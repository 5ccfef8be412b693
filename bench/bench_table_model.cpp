// Solver-blowup gate for the N-entry table encoding (src/table/entry_set,
// paper Fig. 3 generalized): the multi-entry encoding must stay within 2x
// of the single-entry wall clock on the standard campaign workload, while
// actually producing the multi-entry scenarios it exists for.
//
// The workload is a full campaign — generate a stream of random programs,
// translation-validate each, generate packet tests and replay them on every
// registered back end with the full fault catalogue seeded — at the tight
// per-program test budget CI campaigns run with, identical between the two
// configurations except for TestGenOptions::symbolic_table_entries. Checks:
//
//   1. the N-entry run installs >= 2 entries on some generated test and
//      produces a non-first-installed-entry hit (the scenarios the encoding
//      buys) while the single-entry run cannot;
//   2. the N-entry campaign finds at least as many distinct faults as the
//      single-entry campaign (a count; the faults each found and the other
//      did not are printed by name);
//   3. N-entry wall clock <= 2x single-entry wall clock (best-of-N) —
//      exits nonzero otherwise, so CI fails on an encoding blowup.
//
// Plain binary (no Google Benchmark dependency) so it always builds and can
// run as a CI step.

#include <chrono>
#include <cstdio>
#include <set>
#include <string>

#include "src/frontend/parser.h"
#include "src/gauntlet/campaign.h"
#include "src/gen/generator.h"
#include "src/testgen/testgen.h"
#include "src/typecheck/typecheck.h"

namespace {

using namespace gauntlet;
using Clock = std::chrono::steady_clock;

constexpr int kPrograms = 30;
constexpr int kReps = 3;
constexpr uint64_t kSeed = 2020;
constexpr double kMaxRatio = 2.0;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

CampaignOptions Workload(size_t symbolic_table_entries) {
  CampaignOptions options;
  options.seed = kSeed;
  options.num_programs = kPrograms;
  // The tight per-program budget CI campaigns use: both configurations cap
  // at the same number of tests per program, so the gate measures what one
  // solved scenario costs under each encoding — the "solver blowup" — not
  // the extra scenarios the richer encoding also enumerates.
  options.testgen.max_tests = 8;
  options.testgen.symbolic_table_entries = symbolic_table_entries;
  return options;
}

struct RunResult {
  double best_ms = 0;
  CampaignReport report;
};

RunResult RunCampaign(size_t symbolic_table_entries) {
  const BugConfig bugs = BugConfig::All();
  RunResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point start = Clock::now();
    CampaignReport report = Campaign(Workload(symbolic_table_entries)).Run(bugs);
    const double ms = MillisSince(start);
    if (rep == 0 || ms < result.best_ms) {
      result.best_ms = ms;
    }
    result.report = std::move(report);
  }
  return result;
}

// Scans the generated tests of the workload's program stream for multi-entry
// control-plane state (the single-entry baseline can never produce it).
int CountMultiEntryTests(size_t symbolic_table_entries) {
  int multi_entry_tests = 0;
  GeneratorOptions generator_options;
  generator_options.seed = kSeed;
  ProgramGenerator generator(generator_options);
  TestGenOptions testgen;
  testgen.max_tests = 8;
  testgen.symbolic_table_entries = symbolic_table_entries;
  for (int i = 0; i < kPrograms; ++i) {
    const ProgramPtr program = generator.Generate();
    std::vector<PacketTest> tests;
    try {
      tests = TestCaseGenerator(testgen).Generate(*program);
    } catch (const UnsupportedError&) {
      continue;
    }
    for (const PacketTest& test : tests) {
      for (const auto& [name, entries] : test.tables) {
        multi_entry_tests += entries.size() >= 2 ? 1 : 0;
      }
    }
  }
  return multi_entry_tests;
}

// A fixed probe whose table key is exactly the packet's first byte, so "the
// packet misses the first installed entry and hits a later one" is checkable
// from the STF alone — the genuine non-first-installed-entry hit the N-entry
// encoding exists to solve for.
constexpr const char* kProbeProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start { pkt.extract(hdr.h); transition accept; }
}
control ig(inout Hdr hdr) {
  action set_b(bit<8> v) { hdr.h.b = v; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_b; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

int CountNonFirstEntryHits(size_t symbolic_table_entries) {
  auto program = Parser::ParseString(kProbeProgram);
  TypeCheck(*program);
  TestGenOptions testgen;
  testgen.symbolic_table_entries = symbolic_table_entries;
  int hits = 0;
  for (const PacketTest& test : TestCaseGenerator(testgen).Generate(*program)) {
    const std::optional<BitValue> key = test.input.ReadBits(0, 8);
    const auto it = test.tables.find("t");
    if (!key.has_value() || it == test.tables.end() || it->second.size() < 2 ||
        it->second[0].key[0].bits() == key->bits()) {
      continue;
    }
    for (size_t e = 1; e < it->second.size(); ++e) {
      hits += it->second[e].key[0].bits() == key->bits() ? 1 : 0;
    }
  }
  return hits;
}

// Names the distinct faults `found` caught that `other` did not: attributed
// faults by catalogue name, unattributed findings by component.
std::string FoundOnlyBy(const CampaignReport& found, const CampaignReport& other) {
  std::string names;
  const auto add = [&names](const std::string& name) {
    names += names.empty() ? name : ", " + name;
  };
  for (const BugId id : found.distinct_bugs) {
    if (other.distinct_bugs.count(id) == 0) {
      add(BugIdToString(id));
    }
  }
  for (const std::string& component : found.unattributed_components) {
    if (other.unattributed_components.count(component) == 0) {
      add("unattributed " + component);
    }
  }
  return names.empty() ? "none" : names;
}

}  // namespace

int main() {
  std::printf("table-model bench: %d programs, full catalogue, max_tests=8, best of %d\n",
              kPrograms, kReps);

  const int single_multi_tests = CountMultiEntryTests(1);
  const int multi_tests = CountMultiEntryTests(kDefaultSymbolicTableEntries);
  const int non_first_hits = CountNonFirstEntryHits(kDefaultSymbolicTableEntries);
  std::printf(
      "scenarios: single-entry %d multi-entry tests; N-entry %d (+%d non-first-entry hits"
      " on the probe)\n",
      single_multi_tests, multi_tests, non_first_hits);
  if (single_multi_tests != 0) {
    std::printf("FAIL: the single-entry baseline produced a multi-entry test\n");
    return 1;
  }
  if (multi_tests == 0) {
    std::printf("FAIL: the N-entry encoding produced no multi-entry scenarios\n");
    return 1;
  }
  if (non_first_hits == 0 || CountNonFirstEntryHits(1) != 0) {
    std::printf("FAIL: no genuine non-first-installed-entry hit on the probe program\n");
    return 1;
  }

  const RunResult single_run = RunCampaign(1);
  const RunResult multi_run = RunCampaign(kDefaultSymbolicTableEntries);
  const double ratio = single_run.best_ms > 0 ? multi_run.best_ms / single_run.best_ms : 0;
  std::printf("single-entry: %.1f ms, %zu findings, %zu distinct\n", single_run.best_ms,
              single_run.report.findings.size(), single_run.report.DistinctCount());
  std::printf("N-entry:      %.1f ms, %zu findings, %zu distinct  (%.2fx)\n",
              multi_run.best_ms, multi_run.report.findings.size(),
              multi_run.report.DistinctCount(), ratio);
  std::printf("single-entry only: %s\n",
              FoundOnlyBy(single_run.report, multi_run.report).c_str());
  std::printf("N-entry only:      %s\n",
              FoundOnlyBy(multi_run.report, single_run.report).c_str());

  // The richer encoding must not lose detection power on the same stream —
  // and must find the fault class it exists for: entry-priority inversion is
  // only observable through overlapping installed entries, which the
  // single-entry encoding cannot produce (it installs at most one entry).
  if (multi_run.report.DistinctCount() < single_run.report.DistinctCount()) {
    std::printf("FAIL: N-entry campaign found %zu distinct faults vs %zu single-entry\n",
                multi_run.report.DistinctCount(), single_run.report.DistinctCount());
    return 1;
  }
  if (single_run.report.distinct_bugs.count(BugId::kBmv2TablePriorityInversion) != 0) {
    std::printf("FAIL: the single-entry baseline claims a priority-inversion catch\n");
    return 1;
  }
  if (multi_run.report.distinct_bugs.count(BugId::kBmv2TablePriorityInversion) == 0) {
    std::printf("FAIL: N-entry campaign did not catch bmv2-table-priority-inversion\n");
    return 1;
  }

  if (ratio > kMaxRatio) {
    std::printf("FAIL: N-entry encoding is %.2fx the single-entry wall clock (budget %.1fx)\n",
                ratio, kMaxRatio);
    return 1;
  }
  std::printf("PASS: N-entry encoding within %.1fx budget\n", kMaxRatio);
  return 0;
}
