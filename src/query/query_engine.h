// Copyright (c) PCQE contributors.
// High-level entry point: SQL text in, confidence-annotated rows out.

#ifndef PCQE_QUERY_QUERY_ENGINE_H_
#define PCQE_QUERY_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "lineage/evaluate.h"
#include "lineage/lineage.h"
#include "query/execution_mode.h"
#include "relational/catalog.h"
#include "telemetry/profile.h"
#include "telemetry/trace.h"

namespace pcqe {

struct VecResult;

/// \brief A fully evaluated query: schema, rows with lineage and confidence.
///
/// This is what the paper calls the set of *intermediate results* — query
/// answers with computed confidence values, before confidence-policy
/// filtering. The `arena` owns every row's lineage formula; keep the
/// `QueryResult` alive as long as lineage refs are dereferenced (the strategy
/// layer does).
struct QueryResult {
  /// One result row.
  struct Row {
    std::vector<Value> values;
    /// Lineage over base-tuple ids, allocated in `arena`.
    LineageRef lineage = kNullLineage;
    /// Confidence computed from base-tuple confidences by lineage
    /// propagation (independence semantics; see lineage/evaluate.h).
    double confidence = 0.0;
  };

  Schema schema;
  std::vector<Row> rows;
  std::shared_ptr<LineageArena> arena;
  /// Base tables the query scanned (deduplicated, in plan order). Policy
  /// resolution uses these to apply table-scoped confidence policies.
  std::vector<std::string> tables;
  /// Vectorized-interpreter counters. The row interpreter fills only
  /// `pruned_rows` (β pushdown's row-exact prune).
  VecExecStats vec_stats;
  /// True when the executed plan carried at least one `kConfidencePrune`
  /// node, i.e. β pushdown actually applied (a pushdown request against an
  /// unsafe plan shape leaves this false). Feeds audit and telemetry.
  bool pushed_down = false;
  /// Set when the vectorized engine deferred materialization (the engine's
  /// serving configuration): the factorized payload boxes values
  /// (`ValuesOfRow` / `MaterializeValues`) and — for pure
  /// scan/filter/join/sort/limit pipelines and for a DISTINCT or GROUP BY
  /// over one table — lineage formulas (`MaterializeLineage`) on demand.
  /// Scan factors borrow the scanned tables' column chunks — materialize
  /// before dropping or reloading the catalog. Null when everything is
  /// materialized eagerly (the `RunQuery` default) or the row interpreter
  /// ran.
  std::shared_ptr<const VecResult> columnar;
  /// True while `rows[i].values` is empty and boxes via `columnar`.
  bool defer_values = false;
  /// True while `rows[i].lineage` is `kNullLineage` and `arena` is empty
  /// (confidences are always computed — nodelessly, from the factorization —
  /// so policy filtering never needs the formulas; see
  /// `VecResult::DeferredConfidence`).
  bool defer_lineage = false;

  /// True when `rows[i].values` must be boxed via `columnar` first.
  bool values_deferred() const { return defer_values; }

  /// True when `rows[i].lineage` has not been interned yet.
  bool lineage_deferred() const { return defer_lineage; }

  /// Boxed values of row `i`, whether deferred or materialized.
  std::vector<Value> ValuesOfRow(size_t i) const;

  /// Boxes every deferred row's values in place (idempotent, no-op when
  /// eager). Not synchronized: never call on a result shared across threads
  /// (the service's cache hands each request its own copy).
  void MaterializeValues();

  /// Interns every deferred row's lineage formula, with the exact structure
  /// the eager paths build, into a new arena that this result then owns
  /// (idempotent, no-op when eager). Copies of one result share `arena` by
  /// `shared_ptr`, and a deferred result's shared arena is empty, so boxing
  /// never writes into an arena that another copy reads: the service caches
  /// results unboxed, and a shortfall solve, the shell's `.why` or a client
  /// holding a served outcome each box their own copy. Not synchronized
  /// itself: one copy must not be materialized by two threads at once.
  void MaterializeLineage();

  /// Re-derives every row's confidence from `confidences` (base-tuple id →
  /// confidence). Used after data-quality improvement updates base tuples.
  /// Materializes deferred lineage first.
  void RecomputeConfidences(const ConfidenceMap& confidences);

  /// Formats rows as an aligned text table with a confidence column; deferred
  /// rows box transiently (display only shows `max_rows` rows).
  std::string ToTable(size_t max_rows = 50) const;
};

/// Builds a `ConfidenceMap` holding the current confidence of every base
/// tuple referenced by `result`, read from `catalog`. Walks the arena's
/// variable index, so a lineage-deferred result must `MaterializeLineage()`
/// first (its arena holds no variables yet).
[[nodiscard]] Result<ConfidenceMap> SnapshotConfidences(const Catalog& catalog, const QueryResult& result);

/// Parses, plans, executes and confidence-annotates `sql` against `catalog`.
/// When `trace` is non-null, one child span per pipeline stage ("parse",
/// "plan", "execute", "lineage") is added under the currently open span.
/// `mode` selects the interpreter. The vectorized one serves every query;
/// `ExecutionMode::kRow` reaches the row interpreter, which is kept only as
/// the differential oracle the vectorized one must match bit for bit (see
/// tests/vectorized_test.cc). With `materialize_values` false the vectorized
/// engine skips per-row value boxing and — when the result is purely
/// factorized over scans, or is a DISTINCT or GROUP BY over one table —
/// per-row lineage interning, returning a deferred result (see
/// `QueryResult::columnar`); confidences are always computed,
/// bit-identically. The row engine ignores the flag (its operators are
/// inherently materialized). A non-null `profile` enables `EXPLAIN ANALYZE`
/// collection: the executor records one `OperatorProfile` node per operator
/// (rows, chunks, factors, arena nodes, wall time); null (the default) keeps
/// the hot path allocation-free. A set `pushdown_beta` asks the planner to
/// prune sub-β base tuples below joins when the plan shape allows it (see
/// planner.h) — result-identical to post-filtering by monotonicity, checked
/// continuously by tests/planner_pushdown_test.cc.
[[nodiscard]] Result<QueryResult> RunQuery(const Catalog& catalog, const std::string& sql,
                                           TraceBuilder* trace = nullptr,
                                           ExecutionMode mode = ExecutionMode::kVectorized,
                                           bool materialize_values = true,
                                           OperatorProfile* profile = nullptr,
                                           std::optional<double> pushdown_beta = std::nullopt);

}  // namespace pcqe

#endif  // PCQE_QUERY_QUERY_ENGINE_H_
