// Copyright (c) PCQE contributors.
// Data-quality improvement — the component that *applies* a chosen strategy
// (Figure 1, steps (8)-(9)).

#ifndef PCQE_IMPROVE_IMPROVER_H_
#define PCQE_IMPROVE_IMPROVER_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/catalog.h"
#include "strategy/solution.h"

namespace pcqe {

/// \brief Applies increment actions to the catalog, atomically per call.
///
/// In the paper this component stands for the real-world acquisition step
/// (buying a report, running an audit); here it updates stored confidences
/// and totals their cost (the WAL and the audit ring record each accept). Apply is
/// all-or-nothing: every action is validated (tuple exists, target within
/// (current, ceiling]) before any confidence is written.
class QualityImprover {
 public:
  /// `catalog` must outlive the improver.
  explicit QualityImprover(Catalog* catalog) : catalog_(catalog) {}

  /// Validates and commits `actions`. Returns `kInvalidArgument` /
  /// `kNotFound` without modifying anything when any action is invalid.
  /// Actions targeting a confidence at or below the current value are
  /// rejected (quality improvement never lowers confidence).
  [[nodiscard]] Status Apply(const std::vector<IncrementAction>& actions);

  /// The validation pass of `Apply` alone, mutating nothing. The engine's
  /// durable accept path runs this *before* logging the transaction, so a
  /// doomed accept is rejected without ever touching the WAL.
  [[nodiscard]] Status Validate(const std::vector<IncrementAction>& actions) const;

  /// Total cost committed through this improver.
  double total_cost_spent() const { return total_cost_; }

 private:
  Catalog* catalog_;
  double total_cost_ = 0.0;
};

}  // namespace pcqe

#endif  // PCQE_IMPROVE_IMPROVER_H_
