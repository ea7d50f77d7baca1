// Copyright (c) PCQE contributors.
// Confidence evaluation over lineage formulas.

#ifndef PCQE_LINEAGE_EVALUATE_H_
#define PCQE_LINEAGE_EVALUATE_H_

#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "lineage/lineage.h"

namespace pcqe {

/// \brief Maps base-tuple variables to confidence values.
///
/// Thin wrapper over a hash map plus a default for unmapped variables
/// (useful in tests; production paths always populate every variable).
class ConfidenceMap {
 public:
  /// `fallback` is returned for unmapped variables.
  explicit ConfidenceMap(double fallback = 0.0) : fallback_(fallback) {}

  /// Sets the confidence of variable `id`.
  void Set(LineageVarId id, double p) { map_[id] = p; }

  /// Confidence of `id`, or the fallback.
  double Get(LineageVarId id) const {
    auto it = map_.find(id);
    return it == map_.end() ? fallback_ : it->second;
  }

  double operator()(LineageVarId id) const { return Get(id); }

  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<LineageVarId, double> map_;
  double fallback_;
};

/// \brief Evaluates P(formula) assuming all variables are independent **and**
/// every internal combination is independent.
///
/// AND multiplies child probabilities, OR combines via
/// `1 - Π(1 - p_i)`, NOT complements. This is the paper's semantics (its
/// running example computes `p38 = (p02 + p03 − p02·p03) · p13`) and is exact
/// whenever the formula is read-once (each variable occurs at most once).
/// For formulas with shared variables it is an approximation; use
/// `EvaluateExact` to quantify the gap.
///
/// `probs` is any callable `double(LineageVarId)`. A non-null `memo`, indexed
/// by node and NaN where not yet known, keeps each node's probability, so
/// formulas that share subformulas (the rows of one result) score each node
/// once. It grows to `arena.size()`; keep one memo per arena and `probs`.
template <typename ProbFn>
double EvaluateIndependent(const LineageArena& arena, LineageRef ref, const ProbFn& probs,
                           std::vector<double>* memo = nullptr) {
  if (memo != nullptr) {
    if (memo->size() < arena.size()) {
      memo->resize(arena.size(), std::numeric_limits<double>::quiet_NaN());
    }
    if (!std::isnan((*memo)[ref])) return (*memo)[ref];
  }
  double p = 0.0;
  switch (arena.op(ref)) {
    case LineageOp::kFalse:
      break;
    case LineageOp::kTrue:
      p = 1.0;
      break;
    case LineageOp::kVar:
      p = probs(arena.var(ref));
      break;
    case LineageOp::kNot:
      p = 1.0 - EvaluateIndependent(arena, arena.children(ref)[0], probs, memo);
      break;
    case LineageOp::kAnd:
      p = 1.0;
      for (LineageRef c : arena.children(ref)) {
        p *= EvaluateIndependent(arena, c, probs, memo);
        if (p == 0.0) break;
      }
      break;
    case LineageOp::kOr: {
      double q = 1.0;  // probability all children are false
      for (LineageRef c : arena.children(ref)) {
        q *= 1.0 - EvaluateIndependent(arena, c, probs, memo);
        if (q == 0.0) break;
      }
      p = 1.0 - q;
      break;
    }
  }
  if (memo != nullptr) (*memo)[ref] = p;
  return p;
}

/// \brief Options for `EvaluateExact`.
struct ExactEvalOptions {
  /// Maximum number of shared variables to condition on; the evaluation
  /// enumerates 2^shared assignments, so this bounds work at 2^budget.
  size_t max_shared_variables = 20;
};

/// \brief Exact P(formula) under variable independence (but *without* the
/// internal-independence approximation).
///
/// Conditions on every shared variable (Shannon expansion): for each of the
/// 2^s truth assignments of the s shared variables, the residual formula is
/// read-once, so `EvaluateIndependent` on it is exact; results are weighted
/// by the assignment probability. Returns `kResourceExhausted` when `s`
/// exceeds `options.max_shared_variables`.
[[nodiscard]] Result<double> EvaluateExact(const LineageArena& arena, LineageRef ref,
                             const ConfidenceMap& probs,
                             const ExactEvalOptions& options = {});

}  // namespace pcqe

#endif  // PCQE_LINEAGE_EVALUATE_H_
