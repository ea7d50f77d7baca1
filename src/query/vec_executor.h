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
//  - a row's lineage is implied: the AND of one lineage leaf per factor,
//    which `VecResult::BoxRowLineage`, the one lineage builder, interns.
//    Nothing is allocated in the arena until a row provably survives to the
//    top of the plan (or reaches a grouping or set operator), so a join
//    under a selective filter builds formulas once per *released group*
//    instead of once per intermediate row.
//
// Bit-identity contract with the row engine: same values, same row order,
// same lineage structure per row (hence bit-identical confidences via the
// same left-fold evaluation), same costs and released sets downstream.
// Order-preserving operators replicate the row engine's emission order
// exactly. DISTINCT and GROUP BY run natively: group ids are assigned in
// first-seen order under the row engine's grouping equality (typed over
// BIGINT key columns, `ValueVecHash`/`ValueVecEq` otherwise), aggregates
// fold through its `AggAccumulator`, and each group's lineage is the OR
// (DISTINCT) or AND (GROUP BY) of its members' row lineages in member order.
// The grouping whose output reaches the plan root over one scanned table
// keeps that lineage deferred as a `GroupFactor` (member rows plus each
// group's folded confidence); every other grouping interns it in the order
// materializing the input would. Set operations still materialize their
// inputs into the row engine's implementation (query/exec_common.h).
// `RunQuery` returns the root's `VecResult` as is (`QueryResult::columnar`);
// see query/query_engine.h for which results it interns at once.

#ifndef PCQE_QUERY_VEC_EXECUTOR_H_
#define PCQE_QUERY_VEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "lineage/lineage.h"
#include "query/execution_mode.h"
#include "query/plan.h"
#include "telemetry/profile.h"

namespace pcqe {

struct ExecRow;

/// \brief The deferred lineage of a DISTINCT or GROUP BY over one scanned
/// table.
///
/// Group g's formula is the OR (DISTINCT) or AND (GROUP BY; `true` with no
/// members) of the leaves of its member rows
/// `members[member_start[g] .. member_start[g + 1])`, in member order, which
/// is input order. `confidences[g]` is the double that formula evaluates to.
/// The table is named by id, never by pointer: a grouped result owns its
/// values, so nothing of it reads a table once the executor has returned.
struct GroupFactor {
  uint32_t table_id = 0;
  /// True for DISTINCT (OR of the members), false for GROUP BY (AND).
  bool disjunctive = false;
  /// Offsets into `members`, one per group plus one.
  std::vector<uint32_t> member_start;
  /// Base-table rows, group after group.
  std::vector<uint32_t> members;
  std::vector<double> confidences;
};

/// \brief One factor of a factorized result: a lineage domain plus the
/// selection vector mapping output rows into it.
struct VecFactor {
  /// Scan factor when non-null: domain rows are table rows, the leaf for
  /// domain row r is `Var(MakeTupleId(table_id, r))`, confidences come from the
  /// table's column chunks.
  const Table* table = nullptr;
  /// Group factor when non-null: domain rows are group ids, whose formulas
  /// are interned only on demand. Only the output of the grouping that
  /// reaches the plan root carries one.
  std::unique_ptr<const GroupFactor> group;
  /// Materialized factor when both are null: per-domain-row lineage refs
  /// built by a grouping or set operator.
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

  /// Most scan factors a lineage-deferred result may have (the confidence
  /// fold dedupes leaves in a fixed-size scratch).
  static constexpr size_t kMaxDeferredScanFactors = 8;

  /// True when per-row lineage and confidence are implied by the
  /// factorization alone: every factor is a scan factor (at most
  /// `kMaxDeferredScanFactors` of them), or the only factor is a group
  /// factor. Nothing then needs to exist in the arena for a row's confidence
  /// to be known.
  bool DefersLineage() const;

  /// Confidence of output row `row` without building any lineage node: what
  /// `EvaluateIndependent` gives for the formula `BoxRowLineage` interns.
  /// Scan factors contribute one leaf each, first-seen-deduped and
  /// left-folded in factor order; this is bit-identical to evaluating the
  /// interned formula because the `And` builder flattens and dedupes the same
  /// leaves in the same order. A group factor gives its group's confidence.
  /// Requires `DefersLineage()`.
  double DeferredConfidence(size_t row) const;

  /// Interns the lineage formula of output row `row` into `arena`, the exact
  /// structure the row engine builds: a group factor's member leaves in
  /// member order, then their OR / AND; else the AND of one leaf per factor
  /// in factor order (an interned Var for a scan factor, the stored ref for a
  /// materialized one). The executor's groupings and set operations,
  /// `RunQuery` and `MaterializeLineage` all build formulas with it; after
  /// the executor is gone the scanned tables must still be alive. `scratch`
  /// is caller-provided so a bulk loop does not allocate per row.
  LineageRef BoxRowLineage(LineageArena* arena, size_t row,
                           std::vector<LineageRef>* scratch) const;
};

/// \brief Interprets plan trees over column chunks.
///
/// One executor instance serves one query, interning formulas into the arena
/// passed at construction.
class VectorExecutor {
 public:
  /// `arena` must outlive every ref the executor interns into it. A
  /// non-null `profiler` collects one `OperatorProfile` node per executed
  /// operator (`EXPLAIN ANALYZE`); the default costs one branch per operator.
  explicit VectorExecutor(LineageArena* arena, OperatorProfiler* profiler = nullptr)
      : arena_(arena), profiler_(profiler) {}

  /// Executes `plan` into a factorized result. Call once per executor.
  [[nodiscard]] Result<VecResult> Execute(const PlanNode& plan);

  /// Current confidence of base tuple `id` of a table this executor
  /// scanned, read straight from its column chunks: the leaf probability
  /// for `EvaluateIndependent` over the formulas the executor interned.
  double VarConfidence(LineageVarId id) const;

  const VecExecStats& stats() const { return stats_; }

 private:
  /// Runs one plan node: `Dispatch` wrapped with profiling.
  [[nodiscard]] Result<VecResult> Run(const PlanNode& plan);

  /// The unprofiled interpreter switch.
  [[nodiscard]] Result<VecResult> Dispatch(const PlanNode& plan);

  [[nodiscard]] Result<VecResult> RunScan(const PlanNode& plan);
  /// β pushdown over a scan child, fused: builds the selection vector
  /// straight from the confidence chunks, skipping whole chunks whose
  /// confidence max cannot clear β and keeping whole chunks whose min
  /// already does (no per-row test either way).
  [[nodiscard]] Result<VecResult> RunConfidencePrune(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunFilter(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunProject(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunJoin(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunSort(const PlanNode& plan);
  [[nodiscard]] Result<VecResult> RunLimit(const PlanNode& plan);
  /// DISTINCT / GROUP BY, natively over the factorized input: hash group
  /// ids in first-seen order, aggregates folded per group through the row
  /// engine's `AggAccumulator`. The root grouping over one scan factor
  /// returns a `GroupFactor` and interns nothing; any other grouping returns
  /// one materialized factor of per-group lineage. No input row is
  /// materialized.
  [[nodiscard]] Result<VecResult> RunHashGrouping(const PlanNode& plan);
  /// Set operations: materializes both inputs and delegates to the row
  /// engine's shared implementation (query/exec_common.h).
  [[nodiscard]] Result<VecResult> RunSetOp(const PlanNode& plan);

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

  LineageArena* arena_;
  OperatorProfiler* profiler_;
  VecExecStats stats_;
  /// The one grouping allowed to defer its lineage, found by `Execute`
  /// (`RootGrouping` in vec_executor.cc says why), or null.
  const PlanNode* root_grouping_ = nullptr;
  /// Scanned tables by table id, for Var → confidence resolution.
  std::unordered_map<uint32_t, const Table*> tables_by_id_;
  /// Scratch buffers reused across rows, so no hot loop allocates per row.
  std::vector<LineageRef> lineage_scratch_;
  std::vector<Value> row_scratch_;
};

}  // namespace pcqe

#endif  // PCQE_QUERY_VEC_EXECUTOR_H_
