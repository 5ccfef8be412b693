#ifndef SRC_PASSES_BUGS_H_
#define SRC_PASSES_BUGS_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/typecheck/typecheck.h"

namespace gauntlet {

// The seeded-fault catalogue. Each entry models a concrete p4c/Tofino bug
// class documented in the paper (section 7.2 and Figure 5); enabling one
// makes the corresponding pass misbehave in exactly that way. The
// evaluation benchmarks run bug-finding campaigns against subsets of this
// catalogue to regenerate the paper's tables (see DESIGN.md).
enum class BugId {
  // --- type checker (front end) ---
  kTypeCheckerShiftCrash,          // Fig. 5b: crash inferring a shift width
  kTypeCheckerRejectSliceCompare,  // Fig. 5c: legal comparison rejected

  // --- front-end passes ---
  kSideEffectOrderSwap,        // §7.2: argument side effects evaluated right-to-left
  kInlinerSkipsNestedCall,     // §7.2: InlineFunctions misses a call; later pass crashes
  kExitIgnoresCopyOut,         // Fig. 5f: statement sunk below exit in RemoveActionParameters
  kRenameDeclaredUndefined,    // §8: UniqueNames renames an undefined variable (false-alarm)
  kSimplifyDefUseDropsInoutWrite,  // Fig. 5a: inout uses treated as dead
  kSliceWriteTreatedAsFullDef,     // Fig. 5d: slice copy-out kills disjoint partial writes
  kConstantFoldWrapWidth,          // folds at 64-bit, ignoring the declared width
  kStrengthReductionNegativeSlice, // Fig. 5c trigger: rewrites slices with inverted bounds

  // --- mid-end passes ---
  kPredicationLostElse,      // §7.2: Predication drops the else-branch write
  kInvalidHeaderCopyProp,    // Fig. 5e: copy-prop across setValid/setInvalid
  kTempSubstAcrossWrite,     // LocalCopyElimination substitutes across a clobber
  kDeadCodeAfterExitCall,    // DCE assumes a call always exits
  kEliminateSlicesWrongMask, // slice-lowering computes an off-by-one mask

  // --- BMv2 back end ---
  kBmv2EmitIgnoresValidity,     // deparser emits invalid headers
  kBmv2TableMissRunsFirstAction,  // miss executes the first listed action
  kBmv2TablePriorityInversion,  // last matching entry wins instead of first

  // --- Tofino back end (closed source; only black-box testing sees these) ---
  kTofinoPhvNarrowWide,         // >32-bit ALU ops truncated to 32 bits
  kTofinoTableDefaultSkipped,   // default action skipped on miss
  kTofinoDeparserEmitsInvalid,  // deparser ignores validity
  kTofinoActionDataEndianSwap,  // multi-byte action data loaded byte-reversed
  kTofinoCrashOnWideArith,      // crash: no PHV allocation for wide multiply
  kTofinoCrashManyTables,       // crash: stage allocator asserts on >4 tables

  // --- eBPF back end (XDP-flavoured software target) ---
  kEbpfParserExtractReversed,  // parser extracts a header's fields in reverse order
  kEbpfMapMissDropsPacket,     // a map (table) miss aborts/drops instead of the default
  kEbpfMapKeyByteOrderSwap,    // map lookups read multi-byte keys host-order while the
                               // control plane installed them network-order
  kEbpfCrashStackOverflow,     // crash: parsed headers exceed the modelled stack frame
  kEbpfCrashVerifierLoopBound, // crash: the in-kernel verifier rejects a parse loop
                               // unrolled past its bounded-iteration budget
};

enum class BugKind { kCrash, kSemantic };

// Where in the compiler the fault lives — the paper's Table 3 dimension.
enum class BugLocation { kFrontEnd, kMidEnd, kBackEndBmv2, kBackEndTofino, kBackEndEbpf };

// Human-readable location label ("front end", "bmv2 backend", ...).
std::string BugLocationToString(BugLocation location);

// True for the black-box back-end locations (everything behind the target
// layer; only packet-test replay can see faults seeded there).
bool IsBackEndLocation(BugLocation location);

struct BugInfo {
  BugId id;
  const char* name;        // stable identifier for reports
  BugKind kind;
  BugLocation location;
  const char* pass_name;   // pass (or component) the fault is seeded into
  const char* paper_ref;   // figure/section this models
};

// Full catalogue in a stable order.
const std::vector<BugInfo>& BugCatalogue();
const BugInfo& GetBugInfo(BugId id);
std::string BugIdToString(BugId id);

// Inverse of BugIdToString: catalogue name -> id, nullopt for unknown
// names. Resolves fault names that arrive as text, such as serve
// submission headers.
std::optional<BugId> BugIdFromString(const std::string& name);

// The set of faults enabled for one compiler instantiation.
class BugConfig {
 public:
  BugConfig() = default;
  explicit BugConfig(std::set<BugId> enabled) : enabled_(std::move(enabled)) {}

  static BugConfig None() { return BugConfig(); }
  static BugConfig All();

  bool Has(BugId id) const { return enabled_.count(id) > 0; }
  void Enable(BugId id) { enabled_.insert(id); }
  void Disable(BugId id) { enabled_.erase(id); }
  const std::set<BugId>& enabled() const { return enabled_; }
  bool empty() const { return enabled_.empty(); }

 private:
  std::set<BugId> enabled_;
};

// The type checker is configured separately from the pass pipeline; this is
// the single place that maps the checker's catalogue entries onto its
// options, shared by the validator, the CLI, and the back-end compilers.
TypeCheckOptions TypeCheckOptionsFromBugs(const BugConfig& bugs);

}  // namespace gauntlet

#endif  // SRC_PASSES_BUGS_H_
