#include "src/testgen/testgen.h"

#include <functional>
#include <set>

#include "src/cache/verdict_cache.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/smt/evaluator.h"
#include "src/sym/interpreter.h"
#include "src/table/entry_set.h"

namespace gauntlet {

namespace {

// Bucket edges for the tests-per-program yield histogram (§6.2 evaluation
// dimension). Deterministic scope: path enumeration replays bit-exactly for
// any --jobs value and with the cache on or off.
const std::vector<uint64_t> kTestsPerProgramBounds = {0, 1, 2, 4, 8, 16, 32};

// Replays the parser under a model to assemble the concrete input packet:
// walks the state machine, pulling each extracted field's bits from the
// model's packet variables, and evaluating selects concretely. Supports the
// generator's parser fragment (extracts + selects over extracted fields).
class PacketAssembler {
 public:
  PacketAssembler(const SmtContext& ctx, const SmtModel& model, const ParserDecl& parser)
      : ctx_(ctx), model_(model), parser_(parser) {}

  BitString Assemble() {
    BitString packet;
    std::string state_name = "start";
    size_t offset = 0;
    int steps = 0;
    while (state_name != "accept" && state_name != "reject") {
      if (++steps > SymbolicInterpreter::kMaxParserDepth) {
        throw UnsupportedError("packet assembly exceeded the parser unrolling bound");
      }
      const ParserState* state = parser_.FindState(state_name);
      GAUNTLET_BUG_CHECK(state != nullptr, "unknown parser state during packet assembly");
      for (const StmtPtr& stmt : state->statements) {
        if (stmt->kind() == StmtKind::kEmpty) {
          continue;
        }
        if (stmt->kind() != StmtKind::kCall ||
            static_cast<const CallStmt&>(*stmt).call().call_kind() != CallKind::kExtract) {
          throw UnsupportedError(
              "test generation supports only extract statements in parser states");
        }
        const CallExpr& call = static_cast<const CallStmt&>(*stmt).call();
        ExtractHeader(*call.receiver(), packet, offset);
      }
      if (state->select_expr == nullptr) {
        state_name = state->cases[0].next_state;
        continue;
      }
      const BitValue selector = EvalFieldExpr(*state->select_expr);
      std::string next;
      for (const SelectCase& select_case : state->cases) {
        if (select_case.value == nullptr) {
          next = select_case.next_state;
          break;
        }
        const BitValue case_value =
            static_cast<const ConstantExpr&>(*select_case.value).value();
        if (selector.Eq(case_value)) {
          next = select_case.next_state;
          break;
        }
      }
      GAUNTLET_BUG_CHECK(!next.empty(), "select without default during packet assembly");
      state_name = next;
    }
    return packet;
  }

 private:
  void ExtractHeader(const Expr& header_lvalue, BitString& packet, size_t& offset) {
    GAUNTLET_BUG_CHECK(header_lvalue.type() != nullptr && header_lvalue.type()->IsHeader(),
                       "extract target is not a typed header");
    const std::string path = PathOf(header_lvalue);
    for (const Type::Field& field : header_lvalue.type()->fields()) {
      const uint32_t width = field.type->width();
      const std::string var_name =
          "p::pkt[" + std::to_string(offset) + "+:" + std::to_string(width) + "]";
      BitValue bits(width, 0);
      auto it = model_.bit_values.find(var_name);
      if (it != model_.bit_values.end()) {
        bits = BitValue(width, it->second.bits());
      }
      packet.AppendBits(bits);
      fields_[path + "." + field.name] = bits;
      offset += width;
    }
  }

  static std::string PathOf(const Expr& expr) {
    if (expr.kind() == ExprKind::kPath) {
      return static_cast<const PathExpr&>(expr).name();
    }
    GAUNTLET_BUG_CHECK(expr.kind() == ExprKind::kMember, "unsupported parser l-value");
    const auto& member = static_cast<const MemberExpr&>(expr);
    return PathOf(member.base()) + "." + member.member();
  }

  BitValue EvalFieldExpr(const Expr& expr) const {
    if (expr.kind() == ExprKind::kPath || expr.kind() == ExprKind::kMember) {
      auto it = fields_.find(PathOf(expr));
      if (it == fields_.end()) {
        throw UnsupportedError("select over a field that was never extracted");
      }
      return it->second;
    }
    if (expr.kind() == ExprKind::kConstant) {
      return static_cast<const ConstantExpr&>(expr).value();
    }
    throw UnsupportedError("test generation supports only field/constant select expressions");
  }

  const SmtContext& ctx_;
  const SmtModel& model_;
  const ParserDecl& parser_;
  std::map<std::string, BitValue> fields_;
};

// Builds the table configuration a model implies: every installed entry
// slot of the N-entry encoding, in the installation order its solved
// priorities dictate (src/table/entry_set.h). Miss-path models now install
// their non-matching slots too — a populated table the lookup misses is an
// ordinary solved scenario, not a post-solve decoy.
TableConfig TablesFromModel(const SmtModel& model, const std::vector<TableInfo>& tables) {
  TableConfig config;
  for (const TableInfo& table : tables) {
    std::vector<TableEntry> entries = EntriesFromModel(model, table);
    if (!entries.empty()) {
      config[table.table_name] = std::move(entries);
    }
  }
  return config;
}

}  // namespace

std::vector<PacketTest> TestCaseGenerator::Generate(const Program& program, ValidationCache* cache,
                                                    PathCoverageSummary* coverage) const {
  const PackageBlock* parser_block = program.FindBlock(BlockRole::kParser);
  const PackageBlock* deparser_block = program.FindBlock(BlockRole::kDeparser);
  if (parser_block == nullptr || deparser_block == nullptr) {
    throw UnsupportedError("test generation requires a parser and a deparser");
  }
  const ParserDecl* parser = program.FindParser(parser_block->decl_name);
  GAUNTLET_BUG_CHECK(parser != nullptr, "parser binding is not a parser");

  SmtContext ctx;
  SymbolicInterpreter interpreter(ctx, options_.symbolic_table_entries);
  const PipelineSemantics pipeline = interpreter.InterpretPipeline(program);

  // Hard constraints shared by every path: glue + zero metadata + zero
  // undefined values.
  std::vector<SmtRef> hard = pipeline.glue;
  const std::set<std::string> glued(pipeline.glued_inputs.begin(),
                                    pipeline.glued_inputs.end());
  auto pin_unglued = [&](const BlockSemantics& block) {
    for (const std::string& input : block.input_vars) {
      if (glued.count(input) > 0 || input.rfind("p::pkt[", 0) == 0) {
        continue;
      }
      const SmtRef var = ctx.FindVar(input);
      GAUNTLET_BUG_CHECK(var.IsValid(), "input variable vanished");
      if (ctx.IsBool(var)) {
        hard.push_back(ctx.BoolNot(var));
      } else {
        hard.push_back(ctx.Eq(var, ctx.Const(ctx.WidthOf(var), 0)));
      }
    }
  };
  pin_unglued(pipeline.ingress);
  if (pipeline.has_egress) {
    pin_unglued(pipeline.egress);
  }
  pin_unglued(pipeline.deparser);
  // Pin every undefined value to zero (targets zero-initialize).
  for (const SmtRef& pin : PinUndefinedValues(ctx)) {
    hard.push_back(pin);
  }

  // Decision conditions across all blocks, in pipeline order, with their
  // kinds collected in parallel for the path-shape coverage census.
  std::vector<SmtRef> decisions;
  std::vector<std::string> decision_kinds;
  for (const BlockSemantics* block :
       {&pipeline.parser, &pipeline.ingress, &pipeline.egress, &pipeline.deparser}) {
    for (size_t i = 0; i < block->branch_conditions.size(); ++i) {
      decisions.push_back(block->branch_conditions[i]);
      decision_kinds.push_back(i < block->branch_kinds.size() ? block->branch_kinds[i]
                                                              : "unknown");
      if (decisions.size() >= options_.max_decisions) {
        break;
      }
    }
    if (decisions.size() >= options_.max_decisions) {
      break;
    }
  }

  // One incremental solver carries the hard constraints for the whole
  // enumeration; every path probe below is an assumption solve that reuses
  // the encoding, all learned clauses, and (with incremental solving on)
  // the shared assumption-prefix trail of the previous probe.
  SmtSolver solver(ctx);
  if (cache != nullptr) {
    solver.set_blast_cache(&cache->blast());
  }
  solver.set_incremental(options_.incremental_solving);
  solver.set_conflict_limit(100000);
  solver.set_time_limit_ms(options_.query_time_limit_ms);
  for (const SmtRef& constraint : hard) {
    solver.Assert(constraint);
  }

  // DFS over sign assignments of the decision conditions, pruning
  // infeasible prefixes with solver calls, visiting the true branch before
  // the false branch at every level. The fixed visit order makes the path
  // list a function of per-prefix feasibility alone — never of which model
  // a probe happened to return — so it is identical with incremental
  // solving on or off. Models still halve the probes: the branch the
  // parent's model already decides is feasible for free, and only the
  // other branch needs the solver (one probe per expanded node either
  // way; which branch pays it is the only thing a model influences).
  std::vector<std::vector<SmtRef>> paths;
  std::vector<SmtRef> assumption_stack;
  std::function<void(size_t, const SmtModel&)> enumerate = [&](size_t index,
                                                               const SmtModel& model) {
    if (index == decisions.size()) {
      paths.push_back(assumption_stack);
      return;
    }
    ModelEvaluator evaluator(ctx, model);
    const bool model_value = evaluator.EvalBool(decisions[index]);
    for (const bool branch : {true, false}) {
      if (paths.size() >= options_.max_tests) {
        return;
      }
      assumption_stack.push_back(branch ? decisions[index] : ctx.BoolNot(decisions[index]));
      if (branch == model_value) {
        // The inherited model witnesses this branch: recurse for free.
        enumerate(index + 1, model);
      } else if (solver.CheckUnderAssumptions(assumption_stack) == CheckResult::kSat) {
        const SmtModel branch_model = solver.ExtractModel();
        enumerate(index + 1, branch_model);
      }
      assumption_stack.pop_back();
    }
  };
  {
    TraceSpan span("testgen-enumerate", "testgen");
    if (decisions.empty()) {
      paths.push_back({});
    } else if (solver.Check() == CheckResult::kSat) {
      const SmtModel root_model = solver.ExtractModel();
      enumerate(0, root_model);
    }
    span.Arg("decisions", decisions.size());
    span.Arg("paths", paths.size());
  }
  CountMetric("testgen/paths", MetricScope::kTiming, paths.size());

  // Path-shape coverage: decision-depth bucket and branch-kind census.
  // Everything here derives from the bit-exact enumeration above, so the
  // recorded points are deterministic.
  const bool want_coverage = coverage != nullptr || CurrentMetrics() != nullptr;
  if (want_coverage) {
    const auto decision_bucket = [](size_t n) -> const char* {
      if (n == 0) return "0";
      if (n <= 2) return "1-2";
      if (n <= 4) return "3-4";
      if (n <= 8) return "5-8";
      if (n <= 16) return "9-16";
      return "17+";
    };
    CoverPoint("path-shape", std::string("decisions/") + decision_bucket(decisions.size()));
    for (const std::string& kind : decision_kinds) {
      CoverPoint("path-shape", "branch/" + kind);
    }
  }

  // Constants the program itself writes (collected from the output DAGs).
  // An input field that happens to equal such a constant can mask a
  // miscompilation — e.g. a target that wrongly skips a default action
  // writing 0xee is invisible on a packet that already carries 0xee. This
  // generalizes the paper's §6.2 observation (zero inputs mask bugs on
  // zero-initializing targets) from zero to every program constant.
  std::set<std::pair<uint32_t, uint64_t>> written_constants;
  {
    std::vector<SmtRef> worklist;
    std::set<uint32_t> visited;
    for (const BlockSemantics* block :
         {&pipeline.parser, &pipeline.ingress, &pipeline.egress, &pipeline.deparser}) {
      for (const auto& [name, ref] : block->outputs) {
        worklist.push_back(ref);
      }
    }
    while (!worklist.empty() && written_constants.size() < 16) {
      const SmtRef ref = worklist.back();
      worklist.pop_back();
      if (!visited.insert(ref.index).second) {
        continue;
      }
      const SmtNode& node = ctx.node(ref);
      if (node.op == SmtOp::kConst && node.bits != 0) {
        written_constants.insert({node.width, node.bits});
      }
      worklist.insert(worklist.end(), node.args.begin(), node.args.end());
    }
  }

  // Tables whose control-plane state the tests must populate; names are
  // unique program-wide, so ingress and egress tables can share one list.
  std::vector<TableInfo> all_tables = pipeline.ingress.tables;
  if (pipeline.has_egress) {
    all_tables.insert(all_tables.end(), pipeline.egress.tables.begin(),
                      pipeline.egress.tables.end());
  }

  // Solve each path for a concrete witness and build the test case. The
  // witness models come from a dedicated solver whose configuration is
  // fixed (never varied by --no-incremental): every solve it performs is
  // determined by the path list and its own earlier verdicts, models and
  // failed-assumption cores — all pure functions of the program — so the
  // packets, table entries and expected outputs it yields are
  // byte-identical whether or not the probe solver above reused trails.
  // (The probe solver's own models cannot be used here: its search
  // history differs between the two modes.)
  SmtSolver witness_solver(ctx);
  if (cache != nullptr) {
    witness_solver.set_blast_cache(&cache->blast());
  }
  witness_solver.set_conflict_limit(100000);
  witness_solver.set_time_limit_ms(options_.query_time_limit_ms);
  for (const SmtRef& constraint : hard) {
    witness_solver.Assert(constraint);
  }
  TraceSpan witness_span("testgen-witness", "testgen");
  std::vector<PacketTest> tests;
  std::set<std::string> seen;  // dedupe by (packet, tables) fingerprint
  for (size_t path_index = 0; path_index < paths.size(); ++path_index) {
    std::vector<SmtRef> preferences;
    // Preference budget: packet-shaping preferences claim the budget first,
    // control-plane (action data) steering next, key asymmetry last. Each
    // later class gets a slightly larger cap instead of starving behind an
    // unbounded earlier one. The greedy CheckWithPreferences pass costs
    // about one assumption solve per rejected preference; kept ones ride
    // along in a satisfiable block or are already satisfied by the model.
    constexpr size_t kPacketCap = 96;
    constexpr size_t kTableCap = 144;
    constexpr size_t kKeyCap = 160;
    // First byte != last byte on a whole-byte multi-byte value: makes any
    // byte-reversed load/lookup (endian-swap action data, byte-order-
    // confused map keys) observable.
    const auto prefer_byte_asymmetric = [&](SmtRef var, size_t cap) {
      const uint32_t width = ctx.WidthOf(var);
      if (width >= 16 && width % 8 == 0 && preferences.size() < cap) {
        preferences.push_back(ctx.BoolNot(ctx.Eq(
            ctx.Extract(var, width - 1, width - 8), ctx.Extract(var, 7, 0))));
      }
    };
    // Steer a value away from the constants the program writes, so "the
    // buggy output happens to equal the correct output" fix points are
    // avoided whenever the path allows it.
    const auto prefer_avoid_written_constants = [&](SmtRef var, size_t cap) {
      const uint32_t width = ctx.WidthOf(var);
      for (const auto& [const_width, const_bits] : written_constants) {
        if (const_width == width && preferences.size() < cap) {
          preferences.push_back(
              ctx.BoolNot(ctx.Eq(var, ctx.Const(const_width, const_bits))));
        }
      }
    };
    // §6.2: zero values mask erroneous behavior on zero-initializing
    // targets. Prefer the high bit set (exposes truncation/carry bugs in
    // wide arithmetic) and non-zero overall; the greedy pass drops
    // whichever preferences conflict with the path condition.
    SmtRef previous_slice;
    for (const std::string& input : pipeline.parser.input_vars) {
      if (input.rfind("p::pkt[", 0) == 0) {
        const SmtRef var = ctx.FindVar(input);
        const uint32_t width = ctx.WidthOf(var);
        // Every byte non-zero: spreads entropy across the whole field so
        // truncation/carry faults in any sub-word are observable.
        for (uint32_t lo = 0; lo < width; lo += 8) {
          const uint32_t hi = lo + 7 < width ? lo + 7 : width - 1;
          preferences.push_back(ctx.BoolNot(
              ctx.Eq(ctx.Extract(var, hi, lo), ctx.Const(hi - lo + 1, 0))));
        }
        // Fields wider than a PHV container should carry their high bit,
        // so arithmetic on them overflows the container observably
        // instead of cancelling out in the truncated word.
        if (width > 32 && preferences.size() < kPacketCap) {
          preferences.push_back(
              ctx.Eq(ctx.Extract(var, width - 1, width - 1), ctx.Const(1, 1)));
        }
        // Consecutive equal-width fields should differ: a back end that
        // permutes field order (reversed extraction) or byte order is
        // invisible on packets whose swapped fields happen to agree.
        if (previous_slice.IsValid() && ctx.WidthOf(previous_slice) == width &&
            preferences.size() < kPacketCap) {
          preferences.push_back(ctx.BoolNot(ctx.Eq(previous_slice, var)));
        }
        previous_slice = var;
        prefer_avoid_written_constants(var, kPacketCap);
      }
    }
    // Control-plane stress preferences, per table:
    //  * hit paths should run the action carrying the most control-plane
    //    data — a hit on a parameterless action cannot expose faults in
    //    how the target loads installed entries (shadowed entries,
    //    byte-swapped action data);
    //  * every entry slot should actually be installed, so solved paths
    //    carry populated multi-entry tables;
    //  * a later slot's win should be a genuine non-first *installed* hit
    //    (the earlier slot installed first, at a lower priority);
    //  * overlapping (shadowed) slots should behave differently — a back
    //    end that resolves the overlap in the wrong order is observable;
    //  * multi-byte action data should have first byte != last byte, so
    //    a byte-reversed load is observable.
    for (const TableInfo& table : all_tables) {
      if (table.entries.empty()) {
        continue;  // keyless: no control-plane state to shape
      }
      // The data-richest listed action, measured on slot 0 (widths are
      // identical across slots).
      size_t best = table.action_names.size();
      uint32_t best_bits = 0;
      for (size_t i = 0; i < table.entries[0].action_data_vars.size(); ++i) {
        uint32_t bits = 0;
        for (const std::string& data_var : table.entries[0].action_data_vars[i]) {
          const SmtRef var = ctx.FindVar(data_var);
          if (var.IsValid()) {
            bits += ctx.IsBool(var) ? 1 : ctx.WidthOf(var);
          }
        }
        if (bits > best_bits) {
          best_bits = bits;
          best = i;
        }
      }
      if (best < table.action_names.size() && table.hit_condition.IsValid() &&
          preferences.size() < kTableCap) {
        SmtRef best_selected = ctx.False();
        for (const SymbolicTableEntry& entry : table.entries) {
          const SmtRef entry_action = ctx.FindVar(entry.action_var);
          if (entry_action.IsValid()) {
            best_selected = ctx.BoolOr(
                best_selected, ctx.BoolAnd(entry.win_condition,
                                           ctx.Eq(entry_action, ctx.Const(kActionIndexWidth, best + 1))));
          }
        }
        preferences.push_back(ctx.BoolOr(ctx.BoolNot(table.hit_condition), best_selected));
      }
      // Structural multi-entry shaping.
      for (const SymbolicTableEntry& entry : table.entries) {
        if (entry.installed_condition.IsValid() && preferences.size() < kTableCap) {
          preferences.push_back(entry.installed_condition);
        }
      }
      for (size_t slot = 1; slot < table.entries.size(); ++slot) {
        const SymbolicTableEntry& prev = table.entries[slot - 1];
        const SymbolicTableEntry& entry = table.entries[slot];
        const SmtRef prev_prio = ctx.FindVar(prev.priority_var);
        const SmtRef prio = ctx.FindVar(entry.priority_var);
        const SmtRef prev_action = ctx.FindVar(prev.action_var);
        const SmtRef entry_action = ctx.FindVar(entry.action_var);
        if (!prev_prio.IsValid() || !prio.IsValid()) {
          continue;
        }
        if (preferences.size() < kTableCap) {
          preferences.push_back(
              ctx.BoolOr(ctx.BoolNot(entry.win_condition),
                         ctx.BoolAnd(prev.installed_condition, ctx.Ult(prev_prio, prio))));
        }
        if (prev_action.IsValid() && entry_action.IsValid() &&
            preferences.size() < kTableCap) {
          preferences.push_back(ctx.BoolOr(
              ctx.BoolNot(ctx.BoolAnd(prev.match_condition, entry.match_condition)),
              ctx.BoolNot(ctx.Eq(prev_action, entry_action))));
        }
      }
      for (const SymbolicTableEntry& entry : table.entries) {
        for (const std::vector<std::string>& data_vars : entry.action_data_vars) {
          for (const std::string& data_var : data_vars) {
            const SmtRef var = ctx.FindVar(data_var);
            if (!var.IsValid() || ctx.IsBool(var)) {
              continue;
            }
            prefer_byte_asymmetric(var, kTableCap);
            // A hit whose action data coincides with what the miss path
            // would leave behind is a fix point: the buggy and correct
            // outputs agree and the fault stays invisible. Steer the data
            // away from the masking candidates — zero, the program's own
            // constants, and the same-width input fields it might
            // overwrite — whenever the path allows it.
            const uint32_t width = ctx.WidthOf(var);
            if (preferences.size() < kTableCap) {
              preferences.push_back(ctx.BoolNot(ctx.Eq(var, ctx.Const(width, 0))));
            }
            prefer_avoid_written_constants(var, kTableCap);
            for (const std::string& input : pipeline.parser.input_vars) {
              if (input.rfind("p::pkt[", 0) != 0 || preferences.size() >= kTableCap) {
                continue;
              }
              const SmtRef input_var = ctx.FindVar(input);
              if (input_var.IsValid() && ctx.WidthOf(input_var) == width) {
                preferences.push_back(ctx.BoolNot(ctx.Eq(var, input_var)));
              }
            }
          }
        }
      }
      // Shadow divergence: the same (action, param) data variable should
      // differ across slots, so whichever overlapping entry a back end
      // wrongly picks computes a different output.
      for (size_t slot = 1; slot < table.entries.size(); ++slot) {
        const SymbolicTableEntry& prev = table.entries[slot - 1];
        const SymbolicTableEntry& entry = table.entries[slot];
        for (size_t i = 0; i < entry.action_data_vars.size(); ++i) {
          for (size_t p = 0; p < entry.action_data_vars[i].size(); ++p) {
            const SmtRef a = ctx.FindVar(prev.action_data_vars[i][p]);
            const SmtRef b = ctx.FindVar(entry.action_data_vars[i][p]);
            if (a.IsValid() && b.IsValid() && !ctx.IsBool(a) &&
                preferences.size() < kTableCap) {
              preferences.push_back(ctx.BoolNot(ctx.Eq(a, b)));
            }
          }
        }
      }
      // Multi-byte match keys should be byte-asymmetric too: a back end
      // that looks keys up in the wrong byte order (network-vs-host
      // confusion) behaves correctly on palindromic keys.
      for (const SymbolicTableEntry& entry : table.entries) {
        for (const std::string& key_var : entry.key_vars) {
          const SmtRef var = ctx.FindVar(key_var);
          if (var.IsValid() && !ctx.IsBool(var)) {
            prefer_byte_asymmetric(var, kKeyCap);
          }
        }
      }
    }
    if (witness_solver.CheckWithPreferences(preferences, paths[path_index]) !=
        CheckResult::kSat) {
      continue;  // path became infeasible under the hard pins
    }
    const SmtModel model = witness_solver.ExtractModel();

    PacketTest test;
    test.name = "path" + std::to_string(path_index);
    test.input = PacketAssembler(ctx, model, *parser).Assemble();
    test.tables = TablesFromModel(model, all_tables);

    // Expected output from the formal semantics.
    ModelEvaluator evaluator(ctx, model);
    const SmtRef* reject = pipeline.parser.FindOutput("$reject");
    if (reject != nullptr && evaluator.EvalBool(*reject)) {
      test.expected.dropped = true;
    } else {
      // Walk emit sites in order: emitN.$valid gates the field leaves that
      // follow it in the outputs vector.
      bool current_valid = false;
      for (const auto& [name, ref] : pipeline.deparser.outputs) {
        if (name.rfind("emit", 0) != 0) {
          continue;
        }
        if (name.find(".$valid") != std::string::npos) {
          current_valid = evaluator.EvalBool(ref);
          continue;
        }
        if (current_valid) {
          test.expected.output.AppendBits(evaluator.EvalBits(ref));
        }
      }
    }

    // Dedupe on the full serialized test (packet + installed entries +
    // expectation): two paths that differ only in which table entry they
    // hit are distinct control-plane stimuli and must both survive.
    std::string fingerprint = EmitStf(test);
    fingerprint.erase(0, fingerprint.find('\n'));  // drop the name line
    if (!seen.insert(std::move(fingerprint)).second) {
      continue;
    }

    // Classify what this surviving test realizes (witness models replay
    // bit-exactly, so the classification is deterministic too).
    if (want_coverage) {
      if (test.expected.dropped) {
        CoverPoint("path-shape", "class/parser-reject");
      } else {
        CoverPoint("path-shape", "class/forwarded");
      }
      for (const TableInfo& table : all_tables) {
        const TableScenario scenario = ClassifyTableScenario(ctx, model, table);
        if (scenario.keyless) {
          CoverPoint("table-config", "keyless-table");
        } else {
          CoverPoint("table-config", "installed-slots/" + std::to_string(scenario.installed_slots));
        }
        if (scenario.hit) CoverPoint("path-shape", "class/table-hit");
        if (!scenario.hit && scenario.installed_slots > 0) {
          CoverPoint("path-shape", "class/table-miss");
        }
        if (scenario.installed_slots >= 2) CoverPoint("path-shape", "class/multi-entry");
        if (scenario.non_first_slot_win) {
          CoverPoint("table-config", "non-first-slot-win");
        }
        if (scenario.overlap) CoverPoint("table-config", "overlapping-entries");
        if (scenario.divergent_overlap) {
          CoverPoint("table-config", "shadowed-divergent");
          CoverPoint("path-shape", "class/priority-inversion");
        }
        if (scenario.multi_byte_key) CoverPoint("table-config", "multi-byte-key-hit");
        if (scenario.multi_byte_action_data) {
          CoverPoint("table-config", "multi-byte-action-data");
        }
        if (coverage != nullptr) {
          coverage->table_hit = coverage->table_hit || scenario.hit;
          coverage->table_miss =
              coverage->table_miss || (!scenario.hit && scenario.installed_slots > 0);
          coverage->divergent_overlap =
              coverage->divergent_overlap || scenario.divergent_overlap;
          coverage->multi_byte_key_hit =
              coverage->multi_byte_key_hit || scenario.multi_byte_key;
          coverage->multi_byte_action_data =
              coverage->multi_byte_action_data || scenario.multi_byte_action_data;
        }
      }
    }
    tests.push_back(std::move(test));
  }
  witness_span.Arg("tests", tests.size());
  CountMetric("testgen/tests", MetricScope::kTiming, tests.size());
  ObserveMetric("testgen/tests_per_program", MetricScope::kDeterministic, kTestsPerProgramBounds,
                tests.size());
  return tests;
}

}  // namespace gauntlet
