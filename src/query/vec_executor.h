// Copyright (c) PCQE contributors.
// Vectorized plan interpreter over column chunks with factorized lineage.
//
// Where the row engine (query/executor.h) materializes every intermediate
// row as a `std::vector<Value>` plus an eagerly built lineage node, this
// engine keeps results *factorized*:
//
//  - a result is a set of **factors** — one per base-table scan (plus one per
//    group-materializing operator) — each with a selection vector mapping
//    output rows to factor-domain rows;
//  - output columns either **borrow** a base table's column chunks through a
//    factor's selection vector (zero copies through scan → filter → join →
//    sort → limit chains) or own an explicit value vector;
//  - a row's lineage is implied: the AND of one lineage leaf per factor.
//    Nothing is allocated in the arena until a row provably survives to the
//    top of the plan (or reaches a grouping operator), so a join under a
//    selective filter builds formulas once per *released group* instead of
//    once per intermediate row.
//
// Bit-identity contract with the row engine: same values, same row order,
// same lineage structure per row (hence bit-identical confidences via the
// same left-fold evaluation), same costs and released sets downstream.
// Order-preserving operators replicate the row engine's emission order
// exactly. DISTINCT and GROUP BY run natively: group ids are assigned in
// first-seen order under the row engine's grouping equality
// (`ValueVecHash`/`ValueVecEq`), aggregates fold through its
// `AggAccumulator`, and each group's lineage is the OR (DISTINCT) or AND
// (GROUP BY) of its members' row lineages in member order, interned in the
// order materializing the input would intern them. Set operations still
// materialize their inputs into the row engine's implementation
// (query/exec_common.h).

#ifndef PCQE_QUERY_VEC_EXECUTOR_H_
#define PCQE_QUERY_VEC_EXECUTOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "lineage/lineage.h"
#include "query/execution_mode.h"
#include "query/plan.h"
#include "telemetry/profile.h"

namespace pcqe {

struct ExecRow;

/// \brief One factor of a factorized result: a lineage domain plus the
/// selection vector mapping output rows into it.
struct VecFactor {
  /// Scan factor when non-null: domain rows are table rows, the leaf for
  /// domain row r is `Var((table_id << 32) | r)`, confidences come from the
  /// table's column chunks.
  const Table* table = nullptr;
  /// Materialized factor when `table` is null: per-domain-row lineage refs
  /// built by a grouping operator.
  std::vector<LineageRef> lineages;
  /// Output row i derives from domain row `sel[i]`. Always explicit
  /// (`sel.size() == result.num_rows`).
  std::vector<uint32_t> sel;
};

/// \brief One output column: either borrowed from a scan factor's column
/// chunks (indexed through that factor's selection vector) or owned.
struct VecColumn {
  /// Index into `VecResult::factors` when borrowing, else -1.
  int borrowed_factor = -1;
  /// Base-table column index; only meaningful when borrowing.
  size_t base_col = 0;
  /// One value per output row; only populated when not borrowing.
  std::vector<Value> owned;
};

/// \brief A factorized operator result.
struct VecResult {
  size_t num_rows = 0;
  std::vector<VecFactor> factors;
  std::vector<VecColumn> columns;

  /// Boxes output column `col`, row `row` (borrowed columns read the base
  /// table's chunks through the factor's selection vector). Stateless, so
  /// deferred materialization can box rows long after the executor is gone —
  /// the scanned tables must still be alive.
  Value BoxedValue(size_t col, size_t row) const;

  /// True when every factor is a scan factor (then per-row lineage and
  /// confidence are fully implied by the factorization: nothing needs to
  /// exist in the arena for the row's confidence to be computable).
  bool AllScanFactors() const;

  /// Confidence of output row `row` without building any lineage node —
  /// the factorized form of `VectorExecutor::ConfidenceOf(RowLineage(row))`:
  /// one confidence leaf per factor, first-seen-deduped, left-folded in
  /// factor order. Bit-identical to evaluating the interned formula because
  /// the `And` builder flattens/dedupes the same leaves in the same order.
  /// Requires `AllScanFactors()`.
  double ScanRowConfidence(size_t row) const;

  /// Interns the lineage formula of output row `row` into `arena`, with the
  /// exact structure `VectorExecutor::RowLineage` (and hence the row engine)
  /// builds. Used to box deferred lineage after the executor is gone; the
  /// scanned tables must still be alive. `scratch` is caller-provided so a
  /// bulk materialization loop does not allocate per row.
  LineageRef BoxRowLineage(LineageArena* arena, size_t row,
                           std::vector<LineageRef>* scratch) const;
};

/// \brief Interprets plan trees over column chunks.
///
/// One executor instance serves one query; it owns per-query caches (interned
/// scan variables, memoized per-node confidences) keyed against the arena
/// passed at construction.
class VectorExecutor {
 public:
  /// `arena` must outlive every ref returned by `Run` and `RowLineage`. A
  /// non-null `profiler` collects one `OperatorProfile` node per executed
  /// operator (`EXPLAIN ANALYZE`); the default costs one branch per operator.
  explicit VectorExecutor(LineageArena* arena, OperatorProfiler* profiler = nullptr)
      : arena_(arena), profiler_(profiler) {}

  /// Executes `plan` into a factorized result.
  [[nodiscard]] Result<VecResult> Run(const PlanNode& plan);

  /// Boxed value of output column `col`, row `row` of `r`.
  Value ColumnValue(const VecResult& r, size_t col, size_t row) const;

  /// Builds (or reuses) the lineage formula of output row `row`: the AND of
  /// one leaf per factor, constructed with the exact child order the row
  /// engine uses, so both engines intern structurally identical nodes.
  LineageRef RowLineage(const VecResult& r, size_t row);

  /// Confidence of `ref` under tuple independence, memoized per node.
  /// Identical fold order (hence bit-identical doubles) to
  /// `EvaluateIndependent` with a snapshot of current base confidences; the
  /// leaf probabilities are read straight from the column chunks.
  double ConfidenceOf(LineageRef ref);

  const VecExecStats& stats() const { return stats_; }

 private:
  /// The unprofiled interpreter switch; `Run` wraps it with profiling.
  [[nodiscard]] Result<VecResult> Dispatch(const PlanNode& plan);

  [[nodiscard]] Result<VecResult> RunScan(const PlanNode& plan);
  /// β pushdown over a scan child, fused: builds the selection vector
  /// straight from the confidence chunks, skipping whole chunks whose
  /// zone-map max cannot clear β and keeping whole chunks whose min already
  /// does (no per-row test either way).
  [[nodiscard]] Result<VecResult> RunConfidencePrune(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunFilter(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunProject(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunJoin(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunSort(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunLimit(const PlanNode& plan);
  /// DISTINCT / GROUP BY, natively over the factorized input: hash group
  /// ids in first-seen order, aggregates folded per group through the row
  /// engine's `AggAccumulator`, one materialized factor of per-group lineage.
  /// No input row is materialized.
  [[nodiscard]] Result<VecResult> RunHashGrouping(const PlanNode& plan);
  /// Set operations: materializes both inputs and delegates to the row
  /// engine's shared implementation (query/exec_common.h).
  [[nodiscard]] Result<VecResult> RunSetOp(const PlanNode& plan);

  /// Lineage leaf of factor `f`, domain row `row` (interned Var for scan
  /// factors, stored ref for materialized factors).
  LineageRef FactorRef(const VecFactor& f, uint32_t row);

  /// Gathers output row `row` of `r` into `out` (resized to the column
  /// count) for tuple-at-a-time expression fallbacks.
  void GatherRow(const VecResult& r, size_t row, std::vector<Value>* out) const;

  /// Materializes `r` into row-engine rows (values + per-row lineage).
  [[nodiscard]] Result<std::vector<ExecRow>> Materialize(const VecResult& r);

  /// Wraps materialized rows as a single-factor result with owned columns.
  VecResult WrapRows(std::vector<ExecRow> rows, size_t num_columns);

  /// Keeps only `keep` (input row indices, ascending emission order) in `r`:
  /// composes every factor's selection vector and compacts owned columns.
  static void ApplySelection(VecResult* r, const std::vector<uint32_t>& keep);

  /// Tries to evaluate `conjunct` with a typed kernel over the candidate
  /// rows, shrinking `candidates` in place. Returns false when the conjunct
  /// has no kernel (caller falls back to expression evaluation).
  bool TryFilterKernel(const VecResult& r, const Expr& conjunct,
                       std::vector<uint32_t>* candidates);

  double VarConfidence(LineageVarId id) const;

  LineageArena* arena_;
  OperatorProfiler* profiler_;
  VecExecStats stats_;
  /// Scanned tables by table id, for Var → confidence resolution.
  std::unordered_map<uint32_t, const Table*> tables_by_id_;
  /// Interned Var refs per scanned table (kNullLineage = not yet created).
  std::unordered_map<uint32_t, std::vector<LineageRef>> var_cache_;
  /// Memoized per-node confidence, NaN = not yet computed (confidences live
  /// in [0, 1], so NaN is a safe sentinel).
  std::vector<double> conf_cache_;
  /// Reused scratch buffers (see ISSUE: no per-row allocation on hot paths).
  std::vector<LineageRef> lineage_scratch_;
  std::vector<Value> row_scratch_;
};

}  // namespace pcqe

#endif  // PCQE_QUERY_VEC_EXECUTOR_H_
