#include "query/exec_common.h"

#include "common/logging.h"

namespace pcqe {
namespace exec_internal {

Status AggAccumulator::Add(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return Status::OK();
    case DataType::kInt64:
      AddInt(*v.AsInt());
      return Status::OK();
    case DataType::kDouble:
      AddDouble(*v.AsDouble());
      return Status::OK();
    case DataType::kBool:
    case DataType::kString:
      break;
  }
  // Only COUNT and MIN/MAX are defined over non-numeric values (the binder
  // rejects such SUM/AVG arguments; this is the same refusal at run time).
  if (func_ == AggFunc::kSum || func_ == AggFunc::kAvg) return v.AsDouble().status();
  ++count_;
  if (func_ != AggFunc::kCount) Keep(v);
  return Status::OK();
}

void AggAccumulator::AddInt(int64_t v) {
  ++count_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
      isum_ += v;
      sum_ += static_cast<double>(v);
      break;
    case AggFunc::kAvg:
      sum_ += static_cast<double>(v);
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      Keep(Value::Int(v));
      break;
  }
}

void AggAccumulator::AddDouble(double v) {
  ++count_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
      all_int_ = false;
      sum_ += v;
      break;
    case AggFunc::kAvg:
      sum_ += v;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      Keep(Value::Double(v));
      break;
  }
}

void AggAccumulator::Keep(Value v) {
  if (count_ == 1) {
    best_ = std::move(v);
    return;
  }
  int c = v.Compare(best_);
  if ((func_ == AggFunc::kMin && c < 0) || (func_ == AggFunc::kMax && c > 0)) {
    best_ = std::move(v);
  }
}

Value AggAccumulator::Finish() const {
  if (func_ == AggFunc::kCount) return Value::Int(count_);
  if (count_ == 0) return Value::Null();
  switch (func_) {
    case AggFunc::kSum:
      return all_int_ ? Value::Int(isum_) : Value::Double(sum_);
    case AggFunc::kAvg:
      return Value::Double(sum_ / static_cast<double>(count_));
    default:
      return best_;
  }
}

void SplitJoinPredicate(const Expr* predicate, size_t left_width,
                        std::vector<std::pair<size_t, size_t>>* equi_pairs,
                        std::vector<const Expr*>* residual) {  // NOLINT(misc-no-recursion)
  if (predicate == nullptr) return;
  if (predicate->kind() == ExprKind::kBinary &&
      predicate->binary_op() == BinaryOp::kAnd) {
    SplitJoinPredicate(predicate->left(), left_width, equi_pairs, residual);
    SplitJoinPredicate(predicate->right(), left_width, equi_pairs, residual);
    return;
  }
  if (predicate->kind() == ExprKind::kBinary &&
      predicate->binary_op() == BinaryOp::kEq &&
      predicate->left()->kind() == ExprKind::kColumnRef &&
      predicate->right()->kind() == ExprKind::kColumnRef) {
    size_t a = predicate->left()->column_index();
    size_t b = predicate->right()->column_index();
    if (a < left_width && b >= left_width) {
      equi_pairs->emplace_back(a, b - left_width);
      return;
    }
    if (b < left_width && a >= left_width) {
      equi_pairs->emplace_back(b, a - left_width);
      return;
    }
  }
  residual->push_back(predicate);
}

Result<bool> EvalPredicate(const Expr& predicate, const std::vector<Value>& row) {
  PCQE_ASSIGN_OR_RETURN(Value v, predicate.Eval(row));
  if (v.is_null()) return false;
  return v.AsBool();
}

Result<std::vector<ExecRow>> DistinctRows(std::vector<ExecRow> input, LineageArena* arena) {
  RowGroups groups;
  for (const ExecRow& row : input) groups.Add(row.values, row.lineage);
  std::vector<ExecRow> out;
  out.reserve(groups.groups().size());
  for (const RowGroups::Group& g : groups.groups()) {
    out.push_back({g.values, arena->Or(g.lineages)});
  }
  return out;
}

Result<std::vector<ExecRow>> SetOpRows(PlanKind kind, std::vector<ExecRow> left,
                                       std::vector<ExecRow> right, LineageArena* arena) {
  if (kind == PlanKind::kUnionAll) {
    left.reserve(left.size() + right.size());
    for (ExecRow& r : right) left.push_back(std::move(r));
    return left;
  }

  if (kind == PlanKind::kUnion) {
    RowGroups groups;
    for (const ExecRow& row : left) groups.Add(row.values, row.lineage);
    for (const ExecRow& row : right) groups.Add(row.values, row.lineage);
    std::vector<ExecRow> out;
    out.reserve(groups.groups().size());
    for (const RowGroups::Group& g : groups.groups()) {
      out.push_back({g.values, arena->Or(g.lineages)});
    }
    return out;
  }

  // EXCEPT / INTERSECT work on deduplicated sides.
  RowGroups left_groups;
  for (const ExecRow& row : left) left_groups.Add(row.values, row.lineage);
  RowGroups right_groups;
  for (const ExecRow& row : right) right_groups.Add(row.values, row.lineage);

  std::vector<ExecRow> out;
  for (const RowGroups::Group& g : left_groups.groups()) {
    const std::vector<LineageRef>* rhs = right_groups.Find(g.values);
    LineageRef left_or = arena->Or(g.lineages);
    if (kind == PlanKind::kIntersect) {
      if (rhs == nullptr) continue;
      out.push_back({g.values, arena->And(left_or, arena->Or(*rhs))});
    } else {  // kExcept
      LineageRef lineage = left_or;
      if (rhs != nullptr) {
        lineage = arena->And(left_or, arena->Not(arena->Or(*rhs)));
        // A certain right-side derivation folds the lineage to constant
        // false: the row can never appear, so drop it like classic EXCEPT.
        if (arena->op(lineage) == LineageOp::kFalse) continue;
      }
      out.push_back({g.values, lineage});
    }
  }
  return out;
}

Result<std::vector<ExecRow>> AggregateRows(const PlanNode& plan, std::vector<ExecRow> input,
                                           LineageArena* arena) {
  // Partition the input by key values, preserving first-seen group order.
  std::vector<std::vector<size_t>> groups;  // member row indices
  std::vector<std::vector<Value>> group_keys;
  {
    std::unordered_map<std::vector<Value>, size_t, ValueVecHash, ValueVecEq> index;
    for (size_t r = 0; r < input.size(); ++r) {
      std::vector<Value> key;
      key.reserve(plan.group_keys.size());
      for (const auto& k : plan.group_keys) {
        PCQE_ASSIGN_OR_RETURN(Value v, k->Eval(input[r].values));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = index.try_emplace(key, groups.size());
      if (inserted) {
        groups.emplace_back();
        group_keys.push_back(std::move(key));
      }
      groups[it->second].push_back(r);
    }
  }
  // A global aggregation (no keys) over empty input still produces one row
  // (COUNT(*) = 0, other aggregates NULL). Its lineage is `true`: there are
  // no base tuples whose presence could change the answer.
  if (groups.empty() && plan.group_keys.empty()) {
    groups.emplace_back();
    group_keys.emplace_back();
  }

  std::vector<ExecRow> out;
  out.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    ExecRow row;
    row.values = group_keys[g];
    row.values.reserve(group_keys[g].size() + plan.aggregates.size());

    for (const PlanNode::AggregateSpec& spec : plan.aggregates) {
      AggAccumulator acc(spec.func);
      for (size_t r : groups[g]) {
        if (!spec.arg) {
          acc.AddRow();
          continue;
        }
        PCQE_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(input[r].values));
        PCQE_RETURN_NOT_OK(acc.Add(v));
      }
      row.values.push_back(acc.Finish());
    }

    // Conservative lineage: the aggregate value is exactly right iff every
    // contributing row's derivation holds, i.e. the conjunction of member
    // lineages. An empty (global) group is certain.
    std::vector<LineageRef> members;
    members.reserve(groups[g].size());
    for (size_t r : groups[g]) members.push_back(input[r].lineage);
    row.lineage = members.empty() ? arena->True() : arena->And(members);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace exec_internal
}  // namespace pcqe
