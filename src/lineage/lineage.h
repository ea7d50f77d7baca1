// Copyright (c) PCQE contributors.
// Boolean lineage formulas over base tuples — element (2) of the framework.
//
// Every query result carries a lineage formula describing which base tuples
// it derives from: joins conjoin lineages, duplicate elimination and union
// disjoin them, and set difference negates the subtrahend's lineage
// (Trio-style propagation; see Das Sarma/Theobald/Widom 2007 and
// Dalvi/Suciu 2004, the paper's references [15] and [6]). The paper's running
// example is the formula `(p02 OR p03) AND p13`.

#ifndef PCQE_LINEAGE_LINEAGE_H_
#define PCQE_LINEAGE_LINEAGE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace pcqe {

/// Lineage formulas reference base tuples by their catalog-wide id.
/// (Duplicated from relational/tuple.h to keep this library dependency-free;
/// the two are the same 64-bit id space.)
using LineageVarId = uint64_t;

/// Index of a node inside a `LineageArena`.
using LineageRef = uint32_t;

/// Sentinel for "no lineage".
inline constexpr LineageRef kNullLineage = ~0U;

/// \brief Node kinds of a lineage formula.
enum class LineageOp : uint8_t {
  kFalse = 0,  ///< Constant false (empty disjunction).
  kTrue = 1,   ///< Constant true (certain derivation, e.g. a literal row).
  kVar = 2,    ///< A base-tuple variable.
  kAnd = 3,    ///< Conjunction of >= 2 children.
  kOr = 4,     ///< Disjunction of >= 2 children.
  kNot = 5,    ///< Negation of exactly 1 child.
};

/// \brief Arena that owns lineage DAG nodes.
///
/// Nodes are immutable once created and referenced by index, so formulas
/// share subtrees freely (a DAG, not a tree). Builders perform light
/// normalization: nested same-op children are flattened, constants are
/// folded, and single-child AND/OR collapse to the child. The arena is the
/// unit of lifetime: all refs returned by one arena are valid for as long as
/// that arena lives.
class LineageArena {
 public:
  LineageArena() = default;

  /// Number of nodes allocated.
  size_t size() const { return nodes_.size(); }

  /// Pre-sizes internal tables for about `nodes` nodes. Batch producers (the
  /// vectorized executor, workload generators) call this once instead of
  /// paying incremental rehashes per row.
  void Reserve(size_t nodes);

  /// Constant-false formula.
  LineageRef False();

  /// Constant-true formula.
  LineageRef True();

  /// A base-tuple variable. Repeated calls with the same id return the same
  /// node, so variable identity is preserved across the DAG.
  LineageRef Var(LineageVarId id);

  /// Conjunction. Flattens nested ANDs, drops `true`, folds to `false` when
  /// any child is `false`. An empty conjunction is `true`.
  LineageRef And(const std::vector<LineageRef>& children);

  /// Binary convenience overload (allocation-free: uses a reused scratch).
  LineageRef And(LineageRef a, LineageRef b);

  /// Disjunction. Flattens nested ORs, drops `false`, folds to `true` when
  /// any child is `true`, dedupes identical child refs. An empty
  /// disjunction is `false`.
  LineageRef Or(const std::vector<LineageRef>& children);

  /// Binary convenience overload (allocation-free: uses a reused scratch).
  LineageRef Or(LineageRef a, LineageRef b);

  /// Negation, with double-negation and constant folding.
  LineageRef Not(LineageRef child);

  /// Node kind of `ref`.
  LineageOp op(LineageRef ref) const { return nodes_[ref].op; }

  /// Variable id; only valid when `op(ref) == kVar`.
  LineageVarId var(LineageRef ref) const {
    PCQE_DCHECK(nodes_[ref].op == LineageOp::kVar);
    return nodes_[ref].var;
  }

  /// Children span; empty for constants and variables.
  const std::vector<LineageRef>& children(LineageRef ref) const {
    return nodes_[ref].children;
  }

  /// Distinct variable ids appearing under `ref`, in first-creation order
  /// (the order their nodes were interned). Visits only the nodes reachable
  /// from `ref`, so the cost follows the formula, not the arena.
  std::vector<LineageVarId> Variables(LineageRef ref) const;

  /// All interned variables as (id, ref) pairs (unordered). Confidence
  /// snapshots iterate this once instead of re-walking every row's formula
  /// (which is O(rows × arena) on large results).
  const std::unordered_map<LineageVarId, LineageRef>& variable_index() const {
    return var_index_;
  }

  /// Variable ids that appear in strictly more than one *position* under
  /// `ref` (counting DAG sharing as multiple occurrences). For these, the
  /// independence assumption of `EvaluateIndependent` is an approximation.
  std::vector<LineageVarId> SharedVariables(LineageRef ref) const;

  /// True iff no variable occurs more than once under `ref`; for read-once
  /// formulas the independent evaluation is exact.
  bool IsReadOnce(LineageRef ref) const { return SharedVariables(ref).empty(); }

  /// Textual form, e.g. "((t2 | t3) & t13)" with variables as "t<id>".
  std::string ToString(LineageRef ref) const;

  /// Deep-copies the formula `ref` of `src` into this arena, preserving
  /// structure and variable ids. Used to pool lineages from several query
  /// results (each with its own arena) into one combined arena for a
  /// multi-query increment problem.
  LineageRef CopyFrom(const LineageArena& src, LineageRef ref);

 private:
  struct Node {
    LineageOp op;
    LineageVarId var = 0;
    std::vector<LineageRef> children;
  };

  LineageRef Append(Node node);
  /// Returns the existing node for (op, children-as-a-set) or creates one.
  LineageRef Intern(LineageOp op, const std::vector<LineageRef>& children);
  /// The nodes reachable from `ref` (itself included), ascending.
  std::vector<LineageRef> Reachable(LineageRef ref) const;
  /// (variable, occurrence count) under `ref` in first-creation order,
  /// counting DAG sharing as multiple occurrences.
  std::vector<std::pair<LineageVarId, uint32_t>> CountOccurrences(LineageRef ref) const;

  /// Hash of a composite key (op, sorted children) — FNV-1a over the child
  /// refs, seeded with the op, so the unordered interning index never
  /// compares more than one bucket chain per insert (the old ordered map
  /// paid O(log n) vector comparisons per node, the hot cost of per-row
  /// `And` construction at million-row scale).
  struct CompositeKeyHash {
    size_t operator()(const std::pair<LineageOp, std::vector<LineageRef>>& key) const {
      uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(key.first);
      for (LineageRef c : key.second) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  std::vector<Node> nodes_;
  // Interning of constants and variables.
  LineageRef false_ref_ = kNullLineage;
  LineageRef true_ref_ = kNullLineage;
  // Hashed, not sorted: a sorted vector pays an O(n) middle insert whenever
  // var ids from different tables intern interleaved (exactly what lazy
  // factorized join lineage does), which is quadratic at scale.
  std::unordered_map<LineageVarId, LineageRef> var_index_;
  // Binary AND/OR composites — by far the hottest interning shape (one per
  // join output row) — key as a packed `(min << 32) | max` word instead of a
  // heap-allocated child vector: the miss path (every distinct join pair is
  // a miss) then pays one integer-map insert, no key allocation, no sort, no
  // byte-wise hash. Disjoint from `composite_index_`, which keeps every
  // composite with != 2 children.
  std::unordered_map<uint64_t, LineageRef> binary_and_index_;
  std::unordered_map<uint64_t, LineageRef> binary_or_index_;
  // Interning of composites, keyed by (op, sorted children): commutatively
  // equal formulas resolve to one node.
  std::unordered_map<std::pair<LineageOp, std::vector<LineageRef>>, LineageRef,
                     CompositeKeyHash>
      composite_index_;
  // Scratch buffers reused across calls so per-row formula construction does
  // not allocate for the flatten pass or for interning hits.
  std::vector<LineageRef> flat_scratch_;
  std::vector<LineageRef> binary_scratch_;
  std::pair<LineageOp, std::vector<LineageRef>> composite_key_scratch_;
};

}  // namespace pcqe

#endif  // PCQE_LINEAGE_LINEAGE_H_
