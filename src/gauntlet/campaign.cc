#include "src/gauntlet/campaign.h"

#include <exception>
#include <memory>
#include <set>

#include "src/cache/verdict_cache.h"
#include "src/frontend/printer.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/target/lowering.h"
#include "src/target/target.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {

std::string DetectionMethodToString(DetectionMethod method) {
  switch (method) {
    case DetectionMethod::kCrash:
      return "crash";
    case DetectionMethod::kTranslationValidation:
      return "translation-validation";
    case DetectionMethod::kPacketTest:
      return "packet-test";
  }
  return "<invalid>";
}

std::map<BugLocation, int> CampaignReport::DistinctByLocation() const {
  std::map<BugLocation, int> counts;
  for (const BugId bug : distinct_bugs) {
    ++counts[GetBugInfo(bug).location];
  }
  return counts;
}

std::map<BugKind, int> CampaignReport::DistinctByKind() const {
  std::map<BugKind, int> counts;
  for (const BugId bug : distinct_bugs) {
    ++counts[GetBugInfo(bug).kind];
  }
  return counts;
}

int CampaignReport::CountDistinct(BugLocation location, BugKind kind) const {
  int count = 0;
  for (const BugId bug : distinct_bugs) {
    const BugInfo& info = GetBugInfo(bug);
    count += (info.location == location && info.kind == kind) ? 1 : 0;
  }
  return count;
}

void CampaignReport::Merge(CampaignReport&& other) {
  // Latency first, before this->tests_generated absorbs other's counter: a
  // fault first detected in `other` saw every test *this* report generated
  // plus other's own pre-detection tests, so offsetting by the pre-merge
  // prefix gives the counter a single in-order pass would have seen.
  // A fault already present here keeps its (earlier) detection record.
  for (auto& [bug, lat] : other.latency) {
    auto [it, inserted] = latency.try_emplace(bug, lat);
    if (inserted) {
      it->second.tests_at_detection += tests_generated;
    } else {
      it->second.findings += lat.findings;
    }
  }
  programs_generated += other.programs_generated;
  programs_with_crash += other.programs_with_crash;
  programs_with_semantic += other.programs_with_semantic;
  tests_generated += other.tests_generated;
  undef_divergences += other.undef_divergences;
  structural_mismatches += other.structural_mismatches;
  for (Finding& finding : other.findings) {
    findings.push_back(std::move(finding));
  }
  distinct_bugs.insert(other.distinct_bugs.begin(), other.distinct_bugs.end());
  unattributed_components.insert(other.unattributed_components.begin(),
                                 other.unattributed_components.end());
}

void CampaignReport::RecordMetrics(MetricsRegistry& registry) const {
  const auto kDet = MetricScope::kDeterministic;
  // Zero-delta counts still create their keys, so the deterministic
  // section's key set — and hence its bytes — is stable across runs that
  // merely found different amounts.
  registry.Count("campaign/programs_generated", kDet, static_cast<uint64_t>(programs_generated));
  registry.Count("campaign/programs_with_crash", kDet,
                 static_cast<uint64_t>(programs_with_crash));
  registry.Count("campaign/programs_with_semantic", kDet,
                 static_cast<uint64_t>(programs_with_semantic));
  registry.Count("campaign/tests_generated", kDet, static_cast<uint64_t>(tests_generated));
  registry.Count("campaign/undef_divergences", kDet, static_cast<uint64_t>(undef_divergences));
  registry.Count("campaign/structural_mismatches", MetricScope::kTiming,
                 static_cast<uint64_t>(structural_mismatches));
  registry.Count("campaign/findings_total", kDet, findings.size());
  for (const Finding& finding : findings) {
    registry.Count("campaign/findings/method/" + DetectionMethodToString(finding.method), kDet);
    registry.Count(finding.kind == BugKind::kCrash ? "campaign/findings/kind/crash"
                                                   : "campaign/findings/kind/semantic",
                   kDet);
    registry.Count("campaign/findings/bug/" + (finding.attributed.has_value()
                                                   ? BugIdToString(*finding.attributed)
                                                   : "unattributed:" + finding.component),
                   kDet);
  }
  registry.Count("campaign/distinct_bugs", kDet, DistinctCount());
  for (const auto& [location, count] : DistinctByLocation()) {
    registry.Count("campaign/distinct/location/" + BugLocationToString(location), kDet,
                   static_cast<uint64_t>(count));
  }
  for (const auto& [kind, count] : DistinctByKind()) {
    registry.Count(kind == BugKind::kCrash ? "campaign/distinct/kind/crash"
                                           : "campaign/distinct/kind/semantic",
                   kDet, static_cast<uint64_t>(count));
  }
}

void CampaignReport::RecordCoverage(CoverageMap& map, const BugConfig& bugs) const {
  const auto kDet = MetricScope::kDeterministic;
  // Zero-create the fixed-name worker-side points so the deterministic key
  // set is stable regardless of which scenarios this particular run reached
  // (the variable-name points — decision buckets, branch kinds, installed
  // slot counts — only appear when testgen ran at all).
  static const char* const kPathShapePoints[] = {
      "class/parser-reject",     "class/forwarded",   "class/table-hit",
      "class/table-miss",        "class/multi-entry", "class/priority-inversion",
  };
  for (const char* point : kPathShapePoints) {
    map.Record("path-shape", point, kDet, 0);
  }
  static const char* const kTableConfigPoints[] = {
      "keyless-table",      "non-first-slot-win", "overlapping-entries",
      "shadowed-divergent", "multi-byte-key-hit", "multi-byte-action-data",
  };
  for (const char* point : kTableConfigPoints) {
    map.Record("table-config", point, kDet, 0);
  }
  for (const BugInfo& info : BugCatalogue()) {
    const std::string base = std::string(info.name) + "/";
    map.Record("fault-trigger", base + "seeded", kDet, bugs.Has(info.id) ? 1 : 0);
    // Key creation only: the per-program exercise counters were recorded
    // into the worker maps during TestProgram and are already merged in.
    map.Record("fault-trigger", base + "exercised", kDet, 0);
    map.Record("fault-trigger", base + "detected", kDet,
               distinct_bugs.count(info.id) != 0 ? 1 : 0);
    const auto lat = latency.find(info.id);
    if (lat == latency.end()) {
      continue;
    }
    const DetectionLatency& detection = lat->second;
    map.Set("fault-trigger", base + "first_detection_index", kDet,
            static_cast<uint64_t>(detection.first_program_index));
    map.Set("detection-latency", base + "programs_until_first", kDet,
            static_cast<uint64_t>(detection.first_program_index) + 1);
    map.Set("detection-latency", base + "tests_at_detection", kDet,
            static_cast<uint64_t>(detection.tests_at_detection));
    map.Set("detection-latency", base + "findings", kDet,
            static_cast<uint64_t>(detection.findings));
    map.Set("detection-latency-wall", base + "micros_to_first", MetricScope::kTiming,
            detection.wall_micros > run_start_micros
                ? detection.wall_micros - run_start_micros
                : 0);
  }
}

void CampaignReport::FoldInto(MetricsRegistry* metrics, CoverageMap* coverage,
                              const CacheStats* cache_stats, const BugConfig& bugs) const {
  if (metrics != nullptr) {
    RecordMetrics(*metrics);
    if (cache_stats != nullptr) {
      cache_stats->RecordMetrics(*metrics);
    }
  }
  if (coverage != nullptr) {
    RecordCoverage(*coverage, bugs);
  }
}

void Campaign::Record(CampaignReport& report, Finding finding) {
  if (finding.attributed.has_value()) {
    report.distinct_bugs.insert(*finding.attributed);
    auto [it, inserted] = report.latency.try_emplace(*finding.attributed);
    if (inserted) {
      it->second.first_program_index = finding.program_index;
      it->second.tests_at_detection = report.tests_generated;
      it->second.findings = 1;
      it->second.wall_micros = TraceNowMicros();
    } else {
      ++it->second.findings;
    }
  } else {
    report.unattributed_components.insert(finding.component);
  }
  report.findings.push_back(std::move(finding));
}

// Maps a crash message to the responsible component and (when the message
// is distinctive enough) the seeded fault. Front/mid-end crash sites are
// listed here; back-end crash sites (resource-model assertions) come from
// each registered target's CrashRules contribution.
void Campaign::AttributeCrash(Finding& finding, const std::string& message) const {
  static const TargetCrashRule shared_rules[] = {
      {"shift of constant", "TypeChecker", BugId::kTypeCheckerShiftCrash},
      {"slice index is negative", "TypeChecker", BugId::kTypeCheckerRejectSliceCompare},
      {"pass SimplifyDefUse", "SimplifyDefUse", BugId::kSimplifyDefUseDropsInoutWrite},
      {"pass StrengthReduction", "StrengthReduction",
       BugId::kStrengthReductionNegativeSlice},
      {kResidualCallsNeedle, "InlineFunctions", BugId::kInlinerSkipsNestedCall},
  };
  for (const TargetCrashRule& rule : shared_rules) {
    if (message.find(rule.needle) != std::string::npos) {
      finding.component = rule.component;
      finding.attributed = rule.bug;
      return;
    }
  }
  for (const Target* target : TargetRegistry::All()) {
    for (const TargetCrashRule& rule : target->CrashRules()) {
      if (message.find(rule.needle) != std::string::npos) {
        finding.component = rule.component;
        finding.attributed = rule.bug;
        return;
      }
    }
  }
  finding.component = "unknown-crash-site";
}

// Confirms which seeded fault a translation-validation finding belongs to by
// re-running the *blamed pass alone* on the retained pre-pass snapshot with
// each candidate disabled (the developer's "apply the candidate fix, rerun
// the reproducer" cycle, without paying for the rest of the pipeline).
void Campaign::AttributeTvFinding(Finding& finding, const TvReport& tv_report,
                                  const BugConfig& bugs, const std::string& pass_name,
                                  ValidationCache* cache) const {
  finding.component = pass_name;
  if (!options_.attribute_findings) {
    return;
  }
  // Locate the blamed pass's input: the retained version just before it.
  const Program* before = nullptr;
  for (size_t i = 1; i < tv_report.versions.size(); ++i) {
    if (tv_report.versions[i].first == pass_name) {
      before = tv_report.versions[i - 1].second.get();
      break;
    }
  }
  if (before == nullptr) {
    return;
  }
  Pass* blamed_pass = nullptr;
  const PassManager pipeline = PassManager::StandardPipeline();
  for (const std::unique_ptr<Pass>& pass : pipeline.passes()) {
    if (pass->name() == pass_name) {
      blamed_pass = pass.get();
      break;
    }
  }
  if (blamed_pass == nullptr) {
    return;
  }
  for (const BugInfo& info : BugCatalogue()) {
    if (pass_name != info.pass_name || !bugs.Has(info.id)) {
      continue;
    }
    BugConfig without = bugs;
    without.Disable(info.id);
    try {
      ProgramPtr transformed = before->Clone();
      blamed_pass->Run(*transformed, without);
      TypeCheck(*transformed);
      const TvPassResult result = TranslationValidator::CompareVersions(
          *before, *transformed, pass_name, cache, options_.tv);
      // Attributed if the blamed pass no longer miscompiles with this fault
      // disabled (an undef-only divergence counts as fixed, matching the
      // detection side's classification).
      if (result.verdict != TvVerdict::kSemanticDiff &&
          result.verdict != TvVerdict::kStructuralMismatch) {
        finding.attributed = info.id;
        return;
      }
    } catch (const std::exception&) {
      // The pass still crashes or produces an ill-typed program with this
      // candidate disabled: not the culprit.
    }
  }
}

// Black-box attribution: recompile the target with one candidate back-end
// fault disabled at a time and replay the failing test. Turning a back-end
// fault off cannot change the shared lowering, so every candidate reruns
// only the back-end stage on the program's one lowered version.
void Campaign::AttributeBlackBox(Finding& finding, const BugConfig& bugs, const Target& target,
                                 const std::shared_ptr<const Program>& lowered,
                                 const PacketTest& test) const {
  if (!options_.attribute_findings) {
    return;
  }
  for (const BugInfo& info : BugCatalogue()) {
    // Only semantic faults at this back end can explain a packet mismatch;
    // crash-kind faults would have aborted compilation instead.
    if (info.location != target.location() || info.kind != BugKind::kSemantic ||
        !bugs.Has(info.id)) {
      continue;
    }
    BugConfig without = bugs;
    without.Disable(info.id);
    try {
      const std::unique_ptr<Executable> candidate = target.CompileLowered(lowered, without);
      if (RunPacketTest(*candidate, test).passed) {
        finding.attributed = info.id;
        finding.component = info.pass_name;
        return;
      }
    } catch (const std::exception&) {
      // Disabling this fault still crashes the compile: not the culprit.
    }
  }
}

namespace {

// Whether this program (plus the path shapes its tests realized and the
// back ends it reached) *could* have triggered the fault: the trigger-family
// approximation behind the fault-trigger "exercised" counter. These are
// deliberately conservative necessary-condition checks — a fault counted as
// exercised may still escape detection (that is exactly the blind spot the
// coverage report surfaces) — but a fault never exercised was definitely
// out of reach for every program this campaign generated.
//
// "compiled" holds the back-end locations whose Compile ran on the program;
// "executed" additionally requires that the compile returned an artifact and
// that packet tests existed to replay on it, so crash-kind back-end faults
// gate on compiled and semantic ones on executed.
bool FaultExercised(BugId bug, const ProgramConstructCensus& census,
                    const PathCoverageSummary& paths, const std::set<BugLocation>& compiled,
                    const std::set<BugLocation>& executed) {
  const auto compiled_on = [&compiled](BugLocation location) {
    return compiled.count(location) != 0;
  };
  const auto executed_on = [&executed](BugLocation location) {
    return executed.count(location) != 0;
  };
  switch (bug) {
    // Front end.
    case BugId::kTypeCheckerShiftCrash:
      return census.const_shifts > 0;
    case BugId::kTypeCheckerRejectSliceCompare:
      return census.slice_exprs > 0;
    case BugId::kSideEffectOrderSwap:
    case BugId::kInlinerSkipsNestedCall:
      return census.function_calls > 0;
    case BugId::kExitIgnoresCopyOut:
      return census.exits_in_actions > 0;
    case BugId::kRenameDeclaredUndefined:
      return census.uninitialized_vars > 0;
    // Mid end.
    case BugId::kSimplifyDefUseDropsInoutWrite:
      return census.function_calls > 0;
    case BugId::kSliceWriteTreatedAsFullDef:
      return census.slice_writes > 0 || census.slice_args > 0;
    case BugId::kConstantFoldWrapWidth:
      return census.const_arith > 0;
    case BugId::kStrengthReductionNegativeSlice:
      return census.slice_exprs > 0;
    case BugId::kPredicationLostElse:
      return census.if_with_else > 0;
    case BugId::kInvalidHeaderCopyProp:
      return census.validity_ops > 0;
    case BugId::kTempSubstAcrossWrite:
      return census.assignments > 1;
    case BugId::kDeadCodeAfterExitCall:
      return census.exits_in_actions > 0;
    case BugId::kEliminateSlicesWrongMask:
      return census.slice_writes > 0 || census.slice_exprs > 0;
    // BMv2.
    case BugId::kBmv2EmitIgnoresValidity:
      return census.validity_ops > 0 && executed_on(BugLocation::kBackEndBmv2);
    case BugId::kBmv2TableMissRunsFirstAction:
      return paths.table_miss && executed_on(BugLocation::kBackEndBmv2);
    case BugId::kBmv2TablePriorityInversion:
      return paths.divergent_overlap && executed_on(BugLocation::kBackEndBmv2);
    // Tofino.
    case BugId::kTofinoPhvNarrowWide:
      return census.wide_arith_ops > 0 && executed_on(BugLocation::kBackEndTofino);
    case BugId::kTofinoTableDefaultSkipped:
      return paths.table_miss && executed_on(BugLocation::kBackEndTofino);
    case BugId::kTofinoDeparserEmitsInvalid:
      return census.validity_ops > 0 && executed_on(BugLocation::kBackEndTofino);
    case BugId::kTofinoActionDataEndianSwap:
      return paths.multi_byte_action_data && paths.table_hit &&
             executed_on(BugLocation::kBackEndTofino);
    case BugId::kTofinoCrashOnWideArith:
      return census.wide_multiplies > 0 && compiled_on(BugLocation::kBackEndTofino);
    case BugId::kTofinoCrashManyTables:
      return census.tables > 4 && compiled_on(BugLocation::kBackEndTofino);
    // eBPF.
    case BugId::kEbpfParserExtractReversed:
      return census.header_fields >= 2 && census.parser_extracts > 0 &&
             executed_on(BugLocation::kBackEndEbpf);
    case BugId::kEbpfMapMissDropsPacket:
      return paths.table_miss && executed_on(BugLocation::kBackEndEbpf);
    case BugId::kEbpfMapKeyByteOrderSwap:
      return paths.multi_byte_key_hit && paths.table_hit &&
             executed_on(BugLocation::kBackEndEbpf);
    case BugId::kEbpfCrashStackOverflow:
      return census.extracted_bits > 320 && compiled_on(BugLocation::kBackEndEbpf);
    case BugId::kEbpfCrashVerifierLoopBound:
      return census.max_parser_chain_depth > 4 && compiled_on(BugLocation::kBackEndEbpf);
  }
  return false;
}

void RecordFaultExercise(const ProgramConstructCensus& census, const PathCoverageSummary& paths,
                         const std::set<BugLocation>& compiled,
                         const std::set<BugLocation>& executed) {
  for (const BugInfo& info : BugCatalogue()) {
    if (FaultExercised(info.id, census, paths, compiled, executed)) {
      CoverPoint("fault-trigger", std::string(info.name) + "/exercised",
                 MetricScope::kDeterministic);
    }
  }
}

}  // namespace

void Campaign::TestProgram(const Program& program, const BugConfig& bugs, int program_index,
                           CampaignReport& report, ValidationCache* cache) const {
  bool crashed_this_program = false;
  bool semantic_this_program = false;
  // Coverage recording is keyed off the thread-local sink, like metrics: a
  // run without --coverage-out pays a null check and nothing else.
  const bool coverage_active = CurrentCoverage() != nullptr;
  ProgramConstructCensus census;
  if (coverage_active) {
    census = CensusProgram(program);
    RecordConstructCoverage(census);
  }
  if (cache != nullptr) {
    // Blast templates carry over between programs; verdict entries are
    // scoped to this program's content hash (see ValidationCache), keeping
    // results independent of which programs this worker happened to
    // process before.
    cache->BeginProgram(HashProgram(program));
  }

  // The pipeline's output for this program and fault set, shared by every
  // back end: validation produces it as a by-product.
  std::shared_ptr<const Program> lowered;

  // --- Technique 2 (§5): translation validation over the open pipeline ---
  if (options_.run_translation_validation) {
    const TranslationValidator validator(PassManager::StandardPipeline(), options_.tv);
    TvReport tv_report;
    {
      TraceSpan span("validate", "tv");
      tv_report = validator.Validate(program, bugs, /*stop_after_pass=*/{}, cache);
    }
    lowered = std::move(tv_report.lowered);
    if (tv_report.crashed) {
      Finding finding;
      finding.program_index = program_index;
      finding.method = DetectionMethod::kCrash;
      finding.kind = BugKind::kCrash;
      finding.detail = tv_report.crash_message;
      AttributeCrash(finding, tv_report.crash_message);
      Record(report, std::move(finding));
      crashed_this_program = true;
    }
    for (const TvPassResult& result : tv_report.pass_results) {
      switch (result.verdict) {
        case TvVerdict::kSemanticDiff: {
          Finding finding;
          finding.program_index = program_index;
          finding.method = DetectionMethod::kTranslationValidation;
          finding.kind = BugKind::kSemantic;
          finding.detail = result.detail;
          {
            TraceSpan span("attribute", "tv");
            AttributeTvFinding(finding, tv_report, bugs, result.pass_name, cache);
          }
          if (finding.component.empty()) {
            finding.component = result.pass_name;
          }
          Record(report, std::move(finding));
          semantic_this_program = true;
          break;
        }
        case TvVerdict::kUndefDivergence:
          ++report.undef_divergences;
          break;
        case TvVerdict::kStructuralMismatch:
          ++report.structural_mismatches;
          break;
        case TvVerdict::kInvalidEmit: {
          Finding finding;
          finding.program_index = program_index;
          finding.method = DetectionMethod::kTranslationValidation;
          finding.kind = BugKind::kCrash;
          finding.component = result.pass_name;
          finding.detail = "invalid emitted program: " + result.detail;
          Record(report, std::move(finding));
          crashed_this_program = true;
          break;
        }
        case TvVerdict::kEquivalent:
          break;
      }
    }
  }

  // Without validation's lowering (validation off, or its pipeline threw),
  // lower once here. A lowering that throws is rethrown inside every
  // target's compile below, so each target sees exactly the exception its
  // own Compile would have raised.
  std::exception_ptr lowering_error;
  if (lowered == nullptr) {
    TraceSpan span("lower", "target");
    try {
      lowered = LowerThroughPipeline(program, bugs);
    } catch (...) {
      lowering_error = std::current_exception();
    }
  }

  // --- Technique 3 (§6): packet tests against the targets ---
  // Tests are generated only for a program the back ends can compile: when
  // the shared lowering threw, every target's compile rethrows it and no
  // test would ever be replayed.
  std::vector<PacketTest> tests;
  PathCoverageSummary path_summary;
  if (options_.run_packet_tests && lowering_error == nullptr) {
    try {
      tests = TestCaseGenerator(options_.testgen)
                  .Generate(program, cache, coverage_active ? &path_summary : nullptr);
      report.tests_generated += static_cast<int>(tests.size());
    } catch (const UnsupportedError&) {
      // Outside the supported fragment: skip black-box testing (§8).
    }
  }

  // The same compile crash surfaces once per target (every target sees the
  // shared lowering's exception, and every back end runs the residual-call
  // check — with the back end's name embedded in the message). Dedup on
  // the *attributed* crash site, not the raw message, so one front/mid-end
  // crash is recorded once however many back ends observe it.
  std::set<std::string> recorded_crash_sites;
  std::set<BugLocation> compiled_locations;
  std::set<BugLocation> executed_locations;
  for (const Target* target : SelectedTargets()) {
    if (coverage_active) {
      compiled_locations.insert(target->location());
    }
    try {
      std::unique_ptr<Executable> executable;
      {
        TraceSpan span(std::string("compile:") + target->name(), "target");
        if (lowering_error != nullptr) {
          std::rethrow_exception(lowering_error);
        }
        executable = target->CompileLowered(lowered, bugs);
      }
      // Execution needs a compiled artifact and packet tests to replay.
      if (coverage_active && !tests.empty()) {
        executed_locations.insert(target->location());
      }
      std::vector<std::pair<PacketTest, PacketTestOutcome>> failures;
      {
        TraceSpan span(std::string("execute:") + target->name(), "target");
        failures = RunPacketTests(*executable, tests);
      }
      if (!failures.empty()) {
        Finding finding;
        finding.program_index = program_index;
        finding.method = DetectionMethod::kPacketTest;
        finding.kind = BugKind::kSemantic;
        finding.component = target->component();
        finding.detail = failures[0].second.detail;
        finding.repro_test = failures[0].first;
        {
          TraceSpan span("attribute", "target");
          AttributeBlackBox(finding, bugs, *target, lowered, failures[0].first);
        }
        // Failures not explained by a fault local to this back end are
        // duplicates of front/mid-end miscompilations that translation
        // validation already reported (the paper excludes those from
        // back-end counts, §7.1).
        if (finding.attributed.has_value() || !options_.run_translation_validation) {
          Record(report, std::move(finding));
          semantic_this_program = true;
        }
      }
    } catch (const CompilerBugError& error) {
      // Front/mid-end crashes were already observed by translation
      // validation; with validation on, only crash sites *inside* the back
      // end (which validation cannot see) are counted here.
      const std::string message = error.what();
      if (target->OwnsCrashMessage(message) || !options_.run_translation_validation) {
        Finding finding;
        finding.program_index = program_index;
        finding.method = DetectionMethod::kCrash;
        finding.kind = BugKind::kCrash;
        finding.detail = message;
        AttributeCrash(finding, message);
        const std::string site_key =
            finding.component + "\n" +
            (finding.attributed.has_value() ? BugIdToString(*finding.attributed) : message);
        if (recorded_crash_sites.insert(site_key).second) {
          Record(report, std::move(finding));
          crashed_this_program = true;
        }
      }
    } catch (const CompileError&) {
      // Orderly rejection: the program tripped a (possibly seeded)
      // incorrect rejection already counted by translation validation.
    }
  }

  report.programs_with_crash += crashed_this_program ? 1 : 0;
  report.programs_with_semantic += semantic_this_program ? 1 : 0;
  if (coverage_active) {
    RecordFaultExercise(census, path_summary, compiled_locations, executed_locations);
  }
}

std::vector<const Target*> Campaign::SelectedTargets() const {
  return TargetRegistry::Resolve(options_.targets);
}

GeneratorOptions Campaign::EffectiveGeneratorOptions() const {
  GeneratorOptions generator = options_.generator;
  if (options_.bias_generator && options_.targets.size() == 1) {
    generator = TargetRegistry::Get(options_.targets[0]).GeneratorBias(generator);
  }
  return generator;
}

}  // namespace gauntlet
