// Copyright (c) PCQE contributors.
// Internals shared by the row and vectorized plan interpreters.
//
// The grouping operators are implemented here over materialized `ExecRow`s.
// The row engine uses all of them; the vectorized engine uses the set
// operations as they are and runs DISTINCT and GROUP BY natively over column
// chunks (query/vec_executor.h), sharing the grouping equality
// (`ValueVecHash`/`ValueVecEq`) and the aggregate arithmetic
// (`AggAccumulator`) with the versions here. The bit-identity contract
// between the two engines (same values, same row order, same lineage
// structure, hence same confidences) rests on those shared pieces and on the
// differential tests in tests/vectorized_test.cc.

#ifndef PCQE_QUERY_EXEC_COMMON_H_
#define PCQE_QUERY_EXEC_COMMON_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "query/executor.h"
#include "query/plan.h"

namespace pcqe {
namespace exec_internal {

/// Hash over a row of values, consistent with `ValueVecEq`.
struct ValueVecHash {
  size_t operator()(const std::vector<Value>& v) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& x : v) {
      h ^= x.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// SQL grouping equality (NULL equals NULL) over rows of values.
struct ValueVecEq {
  bool operator()(const std::vector<Value>& a, const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

/// Grouping of rows by value-equality, preserving first-seen order.
class RowGroups {
 public:
  /// Adds a row's lineage to its value group. Values are copied on first
  /// sight only.
  void Add(const std::vector<Value>& values, LineageRef lineage) {
    auto [it, inserted] = index_.try_emplace(values, groups_.size());
    if (inserted) {
      groups_.push_back({values, {lineage}});
    } else {
      groups_[it->second].lineages.push_back(lineage);
    }
  }

  /// Lineages of the group matching `values`, or nullptr.
  const std::vector<LineageRef>* Find(const std::vector<Value>& values) const {
    auto it = index_.find(values);
    return it == index_.end() ? nullptr : &groups_[it->second].lineages;
  }

  struct Group {
    std::vector<Value> values;
    std::vector<LineageRef> lineages;
  };
  const std::vector<Group>& groups() const { return groups_; }

 private:
  std::vector<Group> groups_;
  std::unordered_map<std::vector<Value>, size_t, ValueVecHash, ValueVecEq> index_;
};

/// \brief Running state of one aggregate over one group, fed the group's
/// members in member order.
///
/// Both engines fold through this: the row engine's `AggregateRows` over
/// boxed argument values, the vectorized engine's native GROUP BY over typed
/// column reads as well. So COUNT/SUM/AVG/MIN/MAX are defined once: NULL
/// arguments never count, SUM stays BIGINT while every value is, AVG divides
/// the double sum by the non-NULL count, MIN/MAX keep the first of equal
/// values, and an aggregate over no values is NULL (COUNT is 0).
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}

  /// One member of COUNT(*): counts the row, not a value.
  void AddRow() { ++count_; }

  /// One member's argument value.
  [[nodiscard]] Status Add(const Value& v);

  /// One member's non-NULL BIGINT / DOUBLE argument; the same as `Add` of
  /// the boxed value.
  void AddInt(int64_t v);
  void AddDouble(double v);

  /// The aggregate over everything added so far.
  Value Finish() const;

 private:
  /// MIN/MAX: replaces the incumbent only on a strict improvement.
  void Keep(Value v);

  AggFunc func_;
  int64_t count_ = 0;
  bool all_int_ = true;
  int64_t isum_ = 0;
  double sum_ = 0.0;
  Value best_;
};

/// Splits `predicate` into equi-join pairs usable for hashing (column =
/// column with the two sides split by `left_width`) and residual conjuncts.
void SplitJoinPredicate(const Expr* predicate, size_t left_width,
                        std::vector<std::pair<size_t, size_t>>* equi_pairs,
                        std::vector<const Expr*>* residual);

/// Evaluates a bound BOOLEAN expression against `row`, mapping NULL to
/// false (SQL WHERE semantics).
[[nodiscard]] Result<bool> EvalPredicate(const Expr& predicate, const std::vector<Value>& row);

/// DISTINCT over materialized rows: groups equal rows in first-seen order and
/// emits `OR` over each group's lineages.
[[nodiscard]] Result<std::vector<ExecRow>> DistinctRows(std::vector<ExecRow> input,
                                                        LineageArena* arena);

/// UNION [ALL] / EXCEPT / INTERSECT over materialized rows, with the lineage
/// semantics documented on `Executor`.
[[nodiscard]] Result<std::vector<ExecRow>> SetOpRows(PlanKind kind, std::vector<ExecRow> left,
                                                     std::vector<ExecRow> right,
                                                     LineageArena* arena);

/// GROUP BY + aggregate evaluation over materialized rows; `plan` supplies
/// `group_keys` and `aggregates`. Groups come out in first-seen order, each
/// with the AND of its members' lineages (`true` for the one group of a
/// global aggregate over no rows).
[[nodiscard]] Result<std::vector<ExecRow>> AggregateRows(const PlanNode& plan,
                                                         std::vector<ExecRow> input,
                                                         LineageArena* arena);

}  // namespace exec_internal
}  // namespace pcqe

#endif  // PCQE_QUERY_EXEC_COMMON_H_
