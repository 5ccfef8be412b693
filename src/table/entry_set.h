#ifndef SRC_TABLE_ENTRY_SET_H_
#define SRC_TABLE_ENTRY_SET_H_

#include <string>
#include <vector>

#include "src/smt/expr.h"
#include "src/smt/solver.h"
#include "src/table/table_model.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// The symbolic side of the table model: paper Figure 3 generalized from one
// symbolic entry to N.
//
// Each of the N entry slots carries its own symbolic key columns, action
// index and control-plane action data, plus a symbolic *priority* that
// decides the installation order. An entry is installed iff its action index
// selects a listed action (the Fig. 3 convention: index i + 1 selects listed
// action i; 0 / out-of-range means the slot is empty). The winning entry of
// a lookup is the matching installed entry with the lowest priority (ties
// broken by slot index) — exactly first-match semantics once the solved
// entries are installed in (priority, slot) order, which is what
// EntriesFromModel does when it inverts the encoding back into concrete
// control-plane state.
//
// This is what lets path enumeration (src/testgen) solve for hits on
// *different installed entries* before any packet exists: "slot 1 wins while
// slot 0 is installed with a lower priority but a different key" is an
// ordinary satisfiable path condition, not a post-solve decoy.
// ---------------------------------------------------------------------------

// The width of the Fig. 3 action-index variable (value i + 1 selects listed
// action i; 0 / out-of-range = empty slot) and of the per-slot installation
// priority. Shared with every consumer that writes constants against these
// variables (testgen preferences, hand-built test models).
inline constexpr uint32_t kActionIndexWidth = 16;
inline constexpr uint32_t kPriorityWidth = 4;

// The symbolic control-plane variables of one entry slot.
struct SymbolicTableEntry {
  std::vector<std::string> key_vars;  // "<t>_e<k>_key_<i>" (bit vars)
  std::string action_var;             // "<t>_e<k>_action" (bit<16> var)
  std::string priority_var;           // "<t>_e<k>_prio" (bit<8> var)
  // action_data_vars[i] are the symbolic argument names this slot supplies
  // to listed action i ("<t>_e<k>_<action>_<param>").
  std::vector<std::vector<std::string>> action_data_vars;

  SmtRef installed_condition;  // action index selects a listed action
  SmtRef match_condition;      // installed && every key column equals its var
  SmtRef win_condition;        // matches && beats every other matching slot
};

// Symbolic control-plane state of one applied table: what the block
// semantics expose to test generation and the model-consuming tests.
struct TableInfo {
  std::string table_name;
  std::vector<std::string> action_names;  // listed actions; index i selects i+1
  std::vector<SymbolicTableEntry> entries;
  // True iff some entry wins (== some entry matches); False for keyless
  // tables, which can only run their default action.
  SmtRef hit_condition;
};

// Builds the N-entry encoding for one table into an SmtContext and answers
// the questions the symbolic interpreter asks while executing the table's
// actions under it.
class SymbolicEntrySet {
 public:
  // `key_values` are the table's evaluated key expressions, in column order.
  // Keyless tables get zero slots (their lookup can never hit).
  SymbolicEntrySet(SmtContext& ctx, const TableModel& model, const std::string& prefix,
                   const std::vector<SmtRef>& key_values, size_t num_entries);

  const TableInfo& info() const { return info_; }
  TableInfo TakeInfo() { return std::move(info_); }
  size_t size() const { return info_.entries.size(); }

  // The winning entry selects listed action `action_index`.
  SmtRef ActionSelected(size_t action_index) const;

  // The value bound to parameter `param_index` of listed action
  // `action_index` when that action is selected: the winning slot's data
  // variable, multiplexed over the slots.
  SmtRef ActionDataValue(size_t action_index, size_t param_index) const;

  // For every adjacent slot pair, the condition that both match the lookup
  // key — the entry-shadowing scenario (several installed entries overlap on
  // one key and installation order decides). Exposed so path enumeration
  // treats "overlapping entries" as a decision worth exploring.
  std::vector<SmtRef> OverlapConditions() const;

 private:
  SmtContext& ctx_;
  TableInfo info_;
  // Per-slot resolved refs, parallel to info_.entries.
  std::vector<SmtRef> action_refs_;
  std::vector<SmtRef> priority_refs_;
  // data_refs_[slot][action][param]
  std::vector<std::vector<std::vector<SmtRef>>> data_refs_;
};

// Inverts the encoding: reads every installed slot out of a solved model and
// returns the concrete entries in installation order — sorted by
// (priority, slot index) so that first-match lookup over the returned list
// realizes the symbolic lowest-priority-wins semantics. Uninstalled slots
// are skipped; an empty result means the model left the table unpopulated.
std::vector<TableEntry> EntriesFromModel(const SmtModel& model, const TableInfo& info);

// What one solved witness model says about one table: the concrete lookup
// scenario the test realizes. Feeds the "table-config" and "path-shape"
// coverage domains and the fault-trigger exercise predicates; derived
// purely from the model (no solver calls), so it is identical for any
// --jobs value and cache setting.
struct TableScenario {
  bool keyless = false;
  int installed_slots = 0;
  bool hit = false;
  int winning_slot = -1;        // -1 on miss
  bool non_first_slot_win = false;  // winner preceded by another installed slot
  bool overlap = false;             // >= 2 installed slots match the lookup key
  bool divergent_overlap = false;   // overlapping slots select different actions
  bool multi_byte_key = false;      // winner matched on a byte-aligned key >= 16 bits
  bool multi_byte_action_data = false;  // winner supplies byte-aligned data >= 16 bits
};

TableScenario ClassifyTableScenario(const SmtContext& ctx, const SmtModel& model,
                                    const TableInfo& info);

}  // namespace gauntlet

#endif  // SRC_TABLE_ENTRY_SET_H_
