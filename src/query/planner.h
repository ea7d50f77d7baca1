// Copyright (c) PCQE contributors.
// Planner: binds a parsed SELECT against the catalog and emits a plan.

#ifndef PCQE_QUERY_PLANNER_H_
#define PCQE_QUERY_PLANNER_H_

#include <memory>
#include <optional>

#include "common/result.h"
#include "query/ast.h"
#include "query/plan.h"
#include "relational/catalog.h"

namespace pcqe {

/// \brief Translates a `SelectStatement` into an executable `PlanNode` tree.
///
/// Responsibilities:
/// - resolve table references (base tables and derived tables) against the
///   catalog, applying aliases as column qualifiers;
/// - fold the FROM list into a left-deep join chain (comma sources become
///   cross joins, explicit JOINs carry their ON condition);
/// - bind every expression and compute each node's output schema;
/// - expand `*`, name projected columns (alias > source name > "colN");
/// - lower set operations left-associatively and attach ORDER BY / LIMIT
///   at the top.
///
/// Errors are `kBindError` (unknown table/column, type mismatch, set-op
/// arity mismatch) or propagate from expression binding.
///
/// When `pushdown_beta` is set above 0 and the plan is pushdown-safe (see
/// `IsConfidencePushdownSafe`), every base-table scan is wrapped in a
/// `kConfidencePrune` node carrying that β; the vectorized executor skips
/// chunks by the bounds each column chunk keeps. An unsafe shape leaves the
/// plan untouched, so the pushed and unpushed plans stay result-identical
/// by construction.
[[nodiscard]] Result<std::unique_ptr<PlanNode>> PlanQuery(
    const Catalog& catalog, const SelectStatement& stmt,
    std::optional<double> pushdown_beta = std::nullopt);

/// True iff pruning sub-β base tuples below this plan cannot change the
/// post-filter released set: every operator either keeps per-row confidence
/// monotone non-increasing in its inputs (scan/filter/project/join/sort/
/// union-all) or is a prune node itself. Duplicate-merging set operations
/// (OR lineage can *raise* confidence), EXCEPT (NOT raises it), LIMIT
/// (pruned rows change which rows occupy the cap) and aggregation (pruned
/// group members change group values) are unsafe.
[[nodiscard]] bool IsConfidencePushdownSafe(const PlanNode& plan);

/// Base tables `plan` scans, deduplicated case-insensitively, in plan order.
/// Policy resolution uses these to apply table-scoped confidence policies.
[[nodiscard]] std::vector<std::string> CollectScannedTables(const PlanNode& plan);

}  // namespace pcqe

#endif  // PCQE_QUERY_PLANNER_H_
