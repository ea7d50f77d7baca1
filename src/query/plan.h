// Copyright (c) PCQE contributors.
// Physical query plans interpreted by the executor.

#ifndef PCQE_QUERY_PLAN_H_
#define PCQE_QUERY_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "query/expression.h"
#include "relational/table.h"

namespace pcqe {

/// \brief Plan operator kinds.
enum class PlanKind : uint8_t {
  kScan,      ///< base-table scan; lineage = Var(tuple id)
  kFilter,    ///< predicate; lineage unchanged
  kProject,   ///< compute output columns; lineage unchanged
  kJoin,      ///< inner join (hash fast-path); lineage = AND
  kDistinct,  ///< duplicate elimination; lineage = OR over duplicates
  kUnionAll,  ///< bag concatenation; lineage unchanged
  kUnion,     ///< set union; lineage = OR over duplicates across inputs
  kExcept,    ///< set difference; lineage = left AND NOT(right)
  kIntersect, ///< set intersection; lineage = left AND right
  kSort,      ///< order by; lineage unchanged
  kLimit,     ///< first-n; lineage unchanged
  kAggregate, ///< GROUP BY + aggregate functions; lineage = AND over group
  /// β pushdown pre-filter over a kScan child: drops base tuples whose
  /// confidence can never clear the policy threshold (confidence is monotone
  /// non-increasing under conjunction, so such tuples can only produce
  /// blocked rows). Inserted by the planner only when a request carries β
  /// and the plan shape is pushdown-safe; see planner.h.
  kConfidencePrune,
};

/// Operator name ("Scan", "HashJoin"-agnostic "Join", ...).
std::string PlanKindToString(PlanKind kind);

/// \brief One node of a physical plan tree.
///
/// Plans are produced by the planner (see planner.h) with every expression
/// already bound against the child layout and `output_schema` computed, so
/// the executor is a pure interpreter. Fields are public in the spirit of a
/// plain data container; the planner is the only writer.
struct PlanNode {
  PlanKind kind;
  /// Schema of the rows this node emits (drives parent binding).
  Schema output_schema;

  /// \name Children (empty / one / two depending on `kind`).
  /// @{
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
  /// @}

  /// kScan: the table to read. Non-owning; the catalog outlives the plan.
  const Table* table = nullptr;

  /// kFilter / kJoin: predicate, bound against `output_schema` of the child
  /// (filter) or the concatenation of both children (join).
  std::unique_ptr<Expr> predicate;

  /// kProject: one bound expression per output column.
  std::vector<std::unique_ptr<Expr>> projections;

  /// kSort: bound keys with direction.
  struct SortKey {
    std::unique_ptr<Expr> expr;
    bool ascending = true;
  };
  std::vector<SortKey> sort_keys;

  /// kLimit: row cap (>= 0).
  int64_t limit = 0;

  /// kAggregate: grouping keys, bound against the child. Empty keys mean
  /// one global group.
  std::vector<std::unique_ptr<Expr>> group_keys;

  /// kConfidencePrune: the policy threshold β; keep a base tuple iff its
  /// confidence strictly clears it (the exact complement of the policy
  /// filter's blocking test, ε included).
  double prune_beta = 0.0;

  /// kAggregate: one aggregate computation per synthetic `__agg<i>` output
  /// column.
  struct AggregateSpec {
    AggFunc func = AggFunc::kCount;
    /// Argument, bound against the child; null for COUNT(*).
    std::unique_ptr<Expr> arg;
  };
  std::vector<AggregateSpec> aggregates;

  /// One-line operator summary without schema or children (`Scan orders`,
  /// `Filter (amount < 100)`); the label `EXPLAIN ANALYZE` profiles under.
  std::string Summary() const;

  /// Indented multi-line plan rendering for EXPLAIN-style diagnostics.
  std::string ToString(int indent = 0) const;
};

}  // namespace pcqe

#endif  // PCQE_QUERY_PLAN_H_
