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
///
/// A result takes one of two forms, told apart by `columnar`:
///  - the vectorized interpreter's (every serving path): `columnar` holds the
///    factorized result, `rows[i].values` stay empty and `ValuesOfRow` boxes
///    them on demand. Scan factors borrow the scanned tables' column chunks,
///    so drop such a result before dropping or reloading those tables;
///  - the row oracle's: `columnar` is null and every row holds its values and
///    its interned lineage.
struct QueryResult {
  /// One result row.
  struct Row {
    /// Filled by the row oracle only; read values through `ValuesOfRow`.
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
  /// The vectorized interpreter's factorized result; null when the row
  /// oracle ran.
  std::shared_ptr<const VecResult> columnar;
  /// True while `rows[i].lineage` is `kNullLineage` and `arena` is empty:
  /// pure scan/filter/join/sort/limit pipelines and a DISTINCT or GROUP BY
  /// over one table leave their formulas implied by `columnar` (confidences
  /// are always computed — nodelessly, from the factorization — so policy
  /// filtering never needs the formulas; see `VecResult::DeferredConfidence`).
  bool defer_lineage = false;

  /// Boxed values of row `i`, from `columnar` or from the oracle's row.
  std::vector<Value> ValuesOfRow(size_t i) const;

  /// Interns every deferred row's lineage formula, with the exact structure
  /// the row oracle builds, into a new arena that this result then owns
  /// (idempotent, no-op when not deferred). Copies of one result share
  /// `arena` by `shared_ptr`, and a deferred result's shared arena is empty,
  /// so boxing never writes into an arena that another copy reads: the
  /// service caches results unboxed, and a shortfall solve, the shell's
  /// `.why` or a client holding a served outcome each box their own copy.
  /// Not synchronized itself: one copy must not be materialized by two
  /// threads at once.
  void MaterializeLineage();

  /// Re-derives every row's confidence from `confidences` (base-tuple id →
  /// confidence). Used after data-quality improvement updates base tuples.
  /// Materializes deferred lineage first.
  void RecomputeConfidences(const ConfidenceMap& confidences);

  /// Formats rows as an aligned text table with a confidence column; rows
  /// box transiently (display only shows `max_rows` rows).
  std::string ToTable(size_t max_rows = 50) const;

  /// The same table over the rows `selected` (indices into `rows`, in
  /// order), e.g. an outcome's released rows.
  std::string ToTable(const std::vector<size_t>& selected, size_t max_rows) const;
};

/// Builds a `ConfidenceMap` holding the current confidence of every base
/// tuple referenced by `result`, read from `catalog`. Walks the arena's
/// variable index, so a lineage-deferred result must `MaterializeLineage()`
/// first (its arena holds no variables yet).
[[nodiscard]] Result<ConfidenceMap> SnapshotConfidences(const Catalog& catalog, const QueryResult& result);

/// Parses, plans, executes and confidence-annotates `sql` against `catalog`.
/// When `trace` is non-null, one child span per pipeline stage ("parse",
/// "plan", "execute", "lineage") is added under the currently open span.
/// `mode` selects the interpreter. The vectorized one serves every query and
/// returns its result factorized (`QueryResult::columnar`): values box on
/// demand, and — unless the result is purely factorized over scans, or is a
/// DISTINCT or GROUP BY over one table (`defer_lineage`) — lineage is
/// interned and confidences folded here; confidences are always computed,
/// bit-identically to the row oracle. `ExecutionMode::kRow` reaches the row
/// interpreter, which is kept only as the differential oracle the vectorized
/// one must match bit for bit (see tests/vectorized_test.cc); its results are
/// materialized. A non-null `profile` enables `EXPLAIN ANALYZE` collection:
/// the executor records one `OperatorProfile` node per operator (rows,
/// chunks, factors, arena nodes, wall time); null (the default) keeps the
/// hot path allocation-free. A set `pushdown_beta` asks the planner to prune
/// sub-β base tuples below joins when the plan shape allows it (see
/// planner.h) — result-identical to post-filtering by monotonicity, checked
/// continuously by tests/planner_pushdown_test.cc.
[[nodiscard]] Result<QueryResult> RunQuery(const Catalog& catalog, const std::string& sql,
                                           TraceBuilder* trace = nullptr,
                                           ExecutionMode mode = ExecutionMode::kVectorized,
                                           OperatorProfile* profile = nullptr,
                                           std::optional<double> pushdown_beta = std::nullopt);

}  // namespace pcqe

#endif  // PCQE_QUERY_QUERY_ENGINE_H_
