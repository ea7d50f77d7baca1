#include "query/executor.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "query/exec_common.h"
#include "relational/column_chunk.h"

namespace pcqe {

using exec_internal::EvalPredicate;
using exec_internal::SplitJoinPredicate;
using exec_internal::ValueVecEq;
using exec_internal::ValueVecHash;

Result<std::vector<ExecRow>> Executor::Run(const PlanNode& plan) {
  if (profiler_ == nullptr) return Dispatch(plan);
  size_t node = profiler_->Begin(plan.Summary());
  uint64_t arena_before = arena_->size();
  uint64_t pruned_before = stats_.pruned_rows;
  Result<std::vector<ExecRow>> result = Dispatch(plan);
  OperatorProfiler::Extra extra;
  extra.arena_nodes = arena_->size() - arena_before;
  extra.pruned_rows = stats_.pruned_rows - pruned_before;
  profiler_->End(node, result.ok() ? result->size() : 0, extra);
  return result;
}

Result<std::vector<ExecRow>> Executor::Dispatch(
    const PlanNode& plan) {  // NOLINT(misc-no-recursion)
  switch (plan.kind) {
    case PlanKind::kScan:
      return RunScan(plan);
    case PlanKind::kFilter:
      return RunFilter(plan);
    case PlanKind::kProject:
      return RunProject(plan);
    case PlanKind::kJoin:
      return RunJoin(plan);
    case PlanKind::kDistinct:
      return RunDistinct(plan);
    case PlanKind::kUnionAll:
    case PlanKind::kUnion:
    case PlanKind::kExcept:
    case PlanKind::kIntersect:
      return RunSetOp(plan);
    case PlanKind::kSort:
      return RunSort(plan);
    case PlanKind::kLimit:
      return RunLimit(plan);
    case PlanKind::kAggregate:
      return RunAggregate(plan);
    case PlanKind::kConfidencePrune:
      return RunConfidencePrune(plan);
  }
  return Status::Internal("unknown plan kind");
}

Result<std::vector<ExecRow>> Executor::RunConfidencePrune(const PlanNode& plan) {
  // The planner wraps scans directly, so input row i is base row i of the
  // scanned table and its confidence reads straight off the chunk column.
  PCQE_CHECK(plan.left != nullptr && plan.left->kind == PlanKind::kScan);
  const TableColumnData& data = plan.left->table->column_data();
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  std::vector<ExecRow> out;
  out.reserve(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    // Exact complement of PolicyDecision::Allows' blocking test: a base
    // tuple at or below β (mod ε) can only ever produce blocked rows.
    if (data.confidence(i) > plan.prune_beta + kEpsilon) {
      out.push_back(std::move(input[i]));
    } else {
      ++stats_.pruned_rows;
    }
  }
  return out;
}

Result<std::vector<ExecRow>> Executor::RunScan(const PlanNode& plan) {
  PCQE_CHECK(plan.table != nullptr);
  std::vector<ExecRow> out;
  out.reserve(plan.table->num_tuples());
  arena_->Reserve(plan.table->num_tuples());
  for (size_t row = 0; row < plan.table->num_tuples(); ++row) {
    Tuple t = plan.table->tuple(row);
    out.push_back({t.values(), arena_->Var(t.id())});
  }
  return out;
}

Result<std::vector<ExecRow>> Executor::RunFilter(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  std::vector<ExecRow> out;
  out.reserve(input.size());
  for (ExecRow& row : input) {
    PCQE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*plan.predicate, row.values));
    if (keep) out.push_back(std::move(row));
  }
  return out;
}

Result<std::vector<ExecRow>> Executor::RunProject(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  std::vector<ExecRow> out;
  out.reserve(input.size());
  for (const ExecRow& row : input) {
    ExecRow projected;
    projected.lineage = row.lineage;
    projected.values.reserve(plan.projections.size());
    for (const auto& expr : plan.projections) {
      PCQE_ASSIGN_OR_RETURN(Value v, expr->Eval(row.values));
      projected.values.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

Result<std::vector<ExecRow>> Executor::RunJoin(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> left, Run(*plan.left));
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> right, Run(*plan.right));
  size_t left_width = plan.left->output_schema.num_columns();

  std::vector<std::pair<size_t, size_t>> equi_pairs;
  std::vector<const Expr*> residual;
  SplitJoinPredicate(plan.predicate.get(), left_width, &equi_pairs, &residual);

  std::vector<ExecRow> out;
  auto emit = [&](const ExecRow& l, const ExecRow& r) -> Status {
    std::vector<Value> combined;
    combined.reserve(l.values.size() + r.values.size());
    combined.insert(combined.end(), l.values.begin(), l.values.end());
    combined.insert(combined.end(), r.values.begin(), r.values.end());
    for (const Expr* res : residual) {
      PCQE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*res, combined));
      if (!keep) return Status::OK();
    }
    out.push_back({std::move(combined), arena_->And(l.lineage, r.lineage)});
    return Status::OK();
  };

  if (!equi_pairs.empty()) {
    // Hash join on the equi columns; SQL equality never matches NULL keys.
    std::unordered_map<std::vector<Value>, std::vector<size_t>, ValueVecHash, ValueVecEq>
        build;
    build.reserve(right.size());
    for (size_t i = 0; i < right.size(); ++i) {
      std::vector<Value> key;
      key.reserve(equi_pairs.size());
      bool has_null = false;
      for (const auto& [l_idx, r_idx] : equi_pairs) {
        (void)l_idx;
        const Value& v = right[i].values[r_idx];
        if (v.is_null()) has_null = true;
        key.push_back(v);
      }
      if (!has_null) build[std::move(key)].push_back(i);
    }
    // A foreign-key-style probe emits about one row per left row; reserving
    // that floor avoids most growth reallocations of the output vector.
    out.reserve(left.size());
    std::vector<Value> key;
    for (const ExecRow& l : left) {
      key.clear();
      key.reserve(equi_pairs.size());
      bool has_null = false;
      for (const auto& [l_idx, r_idx] : equi_pairs) {
        (void)r_idx;
        const Value& v = l.values[l_idx];
        if (v.is_null()) has_null = true;
        key.push_back(v);
      }
      if (has_null) continue;
      auto it = build.find(key);
      if (it == build.end()) continue;
      for (size_t r_i : it->second) {
        PCQE_RETURN_NOT_OK(emit(l, right[r_i]));
      }
    }
    return out;
  }

  // Nested loop for theta joins and cross products.
  for (const ExecRow& l : left) {
    for (const ExecRow& r : right) {
      PCQE_RETURN_NOT_OK(emit(l, r));
    }
  }
  return out;
}

Result<std::vector<ExecRow>> Executor::RunDistinct(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  return exec_internal::DistinctRows(std::move(input), arena_);
}

Result<std::vector<ExecRow>> Executor::RunSetOp(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> left, Run(*plan.left));
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> right, Run(*plan.right));
  return exec_internal::SetOpRows(plan.kind, std::move(left), std::move(right), arena_);
}

Result<std::vector<ExecRow>> Executor::RunAggregate(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  return exec_internal::AggregateRows(plan, std::move(input), arena_);
}

Result<std::vector<ExecRow>> Executor::RunSort(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  // Precompute key tuples once (comparator re-evaluation would be O(n log n)
  // expression evals).
  std::vector<std::vector<Value>> keys(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    keys[i].reserve(plan.sort_keys.size());
    for (const PlanNode::SortKey& k : plan.sort_keys) {
      PCQE_ASSIGN_OR_RETURN(Value v, k.expr->Eval(input[i].values));
      keys[i].push_back(std::move(v));
    }
  }
  std::vector<size_t> order(input.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < plan.sort_keys.size(); ++k) {
      int c = keys[a][k].Compare(keys[b][k]);
      if (c != 0) return plan.sort_keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<ExecRow> out;
  out.reserve(input.size());
  for (size_t i : order) out.push_back(std::move(input[i]));
  return out;
}

Result<std::vector<ExecRow>> Executor::RunLimit(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> input, Run(*plan.left));
  if (static_cast<int64_t>(input.size()) > plan.limit) {
    input.resize(static_cast<size_t>(plan.limit));
  }
  return input;
}

}  // namespace pcqe
