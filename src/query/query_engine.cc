#include "query/query_engine.h"

#include <algorithm>

#include "common/string_util.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/vec_executor.h"

namespace pcqe {

void QueryResult::RecomputeConfidences(const ConfidenceMap& confidences) {
  MaterializeLineage();
  for (Row& row : rows) {
    row.confidence = EvaluateIndependent(*arena, row.lineage, confidences);
  }
}

std::vector<Value> QueryResult::ValuesOfRow(size_t i) const {
  if (columnar == nullptr) return rows[i].values;
  std::vector<Value> values;
  values.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    values.push_back(columnar->BoxedValue(c, i));
  }
  return values;
}

void QueryResult::MaterializeLineage() {
  if (!defer_lineage) return;
  // Nothing was interned for a deferred result, and copies of it (a cached
  // entry and every completion served from it) share that empty arena. Box
  // into a fresh arena this copy owns, so no copy ever writes into one that
  // another reads.
  PCQE_DCHECK(arena == nullptr || arena->size() == 0);
  auto boxed = std::make_shared<LineageArena>();
  boxed->Reserve(rows.size());
  std::vector<LineageRef> scratch;
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].lineage = columnar->BoxRowLineage(boxed.get(), i, &scratch);
  }
  arena = std::move(boxed);
  defer_lineage = false;
}

namespace {

/// `count` rows of `result` as an aligned text table with a confidence
/// column, the k-th being row `row_of(k)`; only the first `max_rows` box.
template <typename RowOf>
std::string FormatTable(const QueryResult& result, size_t count, const RowOf& row_of,
                        size_t max_rows) {
  const Schema& schema = result.schema;
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  header.reserve(schema.num_columns() + 1);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    header.push_back(schema.column(c).QualifiedName());
  }
  header.push_back("confidence");
  cells.push_back(std::move(header));
  size_t shown = std::min(count, max_rows);
  for (size_t k = 0; k < shown; ++k) {
    const size_t r = row_of(k);
    std::vector<std::string> line;
    line.reserve(schema.num_columns() + 1);
    for (const Value& v : result.ValuesOfRow(r)) line.push_back(v.ToString());
    line.push_back(FormatDouble(result.rows[r].confidence, 6));
    cells.push_back(std::move(line));
  }
  std::vector<size_t> widths(cells[0].size(), 0);
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) widths[c] = std::max(widths[c], line[c].size());
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out += StrFormat("%-*s", static_cast<int>(widths[c] + 2), cells[r][c].c_str());
    }
    out += "\n";
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        out += std::string(widths[c], '-') + "  ";
      }
      out += "\n";
    }
  }
  if (count > shown) {
    out += StrFormat("... (%zu more rows)\n", count - shown);
  }
  return out;
}

}  // namespace

std::string QueryResult::ToTable(size_t max_rows) const {
  return FormatTable(*this, rows.size(), [](size_t k) { return k; }, max_rows);
}

std::string QueryResult::ToTable(const std::vector<size_t>& selected, size_t max_rows) const {
  return FormatTable(*this, selected.size(), [&](size_t k) { return selected[k]; }, max_rows);
}

Result<ConfidenceMap> SnapshotConfidences(const Catalog& catalog,
                                          const QueryResult& result) {
  // Every interned variable refers to a base tuple the query scanned, so
  // snapshotting the arena's variable index covers all rows in one pass.
  // (Walking each row's formula with `Variables` is O(rows × arena nodes)
  // and dominated end-to-end time on large results.)
  ConfidenceMap map(0.0);
  for (const auto& [id, ref] : result.arena->variable_index()) {
    (void)ref;
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog.FindTuple(id));
    map.Set(id, t.confidence());
  }
  return map;
}

namespace {

/// True when the planner actually inserted a β prune node (the pushdown
/// spec alone does not imply it — unsafe shapes plan unchanged).
bool ContainsConfidencePrune(const PlanNode& plan) {  // NOLINT(misc-no-recursion)
  if (plan.kind == PlanKind::kConfidencePrune) return true;
  if (plan.left && ContainsConfidencePrune(*plan.left)) return true;
  return plan.right && ContainsConfidencePrune(*plan.right);
}

}  // namespace

Result<QueryResult> RunQuery(const Catalog& catalog, const std::string& sql,
                             TraceBuilder* trace, ExecutionMode mode, OperatorProfile* profile,
                             std::optional<double> pushdown_beta) {
  if (profile != nullptr) profile->mode = ExecutionModeToString(mode);
  std::unique_ptr<SelectStatement> stmt;
  {
    ScopedSpan span(trace, "parse");
    PCQE_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  }
  std::unique_ptr<PlanNode> plan;
  {
    ScopedSpan span(trace, "plan");
    PCQE_ASSIGN_OR_RETURN(plan, PlanQuery(catalog, *stmt, pushdown_beta));
  }

  QueryResult result;
  result.schema = plan->output_schema;
  result.arena = std::make_shared<LineageArena>();
  result.tables = CollectScannedTables(*plan);
  result.pushed_down = ContainsConfidencePrune(*plan);

  OperatorProfiler profiler(profile);

  if (mode == ExecutionMode::kVectorized) {
    VectorExecutor executor(result.arena.get(),
                            profile != nullptr ? &profiler : nullptr);
    VecResult vec;
    {
      ScopedSpan span(trace, "execute");
      PCQE_ASSIGN_OR_RETURN(vec, executor.Execute(*plan));
      span.Annotate("rows", std::to_string(vec.num_rows));
    }
    result.vec_stats = executor.stats();
    result.rows.resize(vec.num_rows);
    result.defer_lineage = vec.DefersLineage();
    if (result.defer_lineage) {
      // Per-row confidences fold nodelessly over the chunks' confidence
      // vectors or come with the groups (bit-identical to evaluating the
      // interned formulas); lineage interns on demand (MaterializeLineage),
      // so nothing per row is allocated for rows the policy filter releases.
      ScopedSpan span(trace, "lineage");
      for (size_t i = 0; i < vec.num_rows; ++i) {
        result.rows[i].confidence = vec.DeferredConfidence(i);
      }
    } else {
      {
        ScopedSpan span(trace, "execute-lineage");
        result.arena->Reserve(vec.num_rows);
        std::vector<LineageRef> scratch;
        for (size_t i = 0; i < vec.num_rows; ++i) {
          result.rows[i].lineage = vec.BoxRowLineage(result.arena.get(), i, &scratch);
        }
      }
      {
        // Confidences fold over the column chunks' confidence vectors,
        // memoized per lineage node — bit-identical to the row path's
        // snapshot-then-evaluate, without building a ConfidenceMap.
        ScopedSpan span(trace, "lineage");
        auto leaf = [&executor](LineageVarId id) { return executor.VarConfidence(id); };
        std::vector<double> memo;
        for (QueryResult::Row& row : result.rows) {
          row.confidence = EvaluateIndependent(*result.arena, row.lineage, leaf, &memo);
        }
      }
    }
    // Values box on demand (ValuesOfRow) from the factorized payload.
    result.columnar = std::make_shared<const VecResult>(std::move(vec));
    return result;
  }

  {
    ScopedSpan span(trace, "execute");
    Executor executor(result.arena.get(), profile != nullptr ? &profiler : nullptr);
    PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> rows, executor.Run(*plan));
    result.vec_stats = executor.stats();
    result.rows.reserve(rows.size());
    for (ExecRow& row : rows) {
      result.rows.push_back({std::move(row.values), row.lineage, 0.0});
    }
    span.Annotate("rows", std::to_string(result.rows.size()));
  }

  {
    ScopedSpan span(trace, "lineage");
    PCQE_ASSIGN_OR_RETURN(ConfidenceMap confidences,
                          SnapshotConfidences(catalog, result));
    result.RecomputeConfidences(confidences);
  }
  return result;
}

}  // namespace pcqe
