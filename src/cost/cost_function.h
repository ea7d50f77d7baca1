// Copyright (c) PCQE contributors.
// Cost functions for confidence acquisition.
//
// Section 3.2 of the paper attaches to every base tuple a cost function
// describing how expensive it is to raise that tuple's confidence (e.g. by
// buying a verification report or running an audit). Section 5.1 generates
// workloads whose cost functions are drawn from "binomial, exponential and
// logarithm" families. The paper gives no formulas, so this module defines a
// small interpretable family (see DESIGN.md §3 for the substitution note):
//
//   Linear       c(p) = a * p
//   Polynomial   c(p) = a * p^d          ("binomial" in the paper's wording)
//   Exponential  c(p) = a * e^(b*p)
//   Logarithmic  c(p) = a * ln(1 + b*p)
//   Step         c(p) = a * (number of δ acquisition actions)
//
// All families are strictly increasing on [0, 1], so the *incremental* cost
// of moving confidence from `from` to `to` is c(to) - c(from) >= 0.

#ifndef PCQE_COST_COST_FUNCTION_H_
#define PCQE_COST_COST_FUNCTION_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace pcqe {

/// \brief Enumerates the built-in cost-function families.
enum class CostFamily : int {
  kLinear = 0,
  kPolynomial = 1,
  kExponential = 2,
  kLogarithmic = 3,
  kStep = 4,
};

/// Canonical lowercase family name ("exponential", ...).
std::string CostFamilyToString(CostFamily family);

/// \brief Cost of holding a confidence level; differences give increment cost.
///
/// Implementations must be strictly increasing on [0, 1]. Thread-compatible:
/// all methods are const and instances are safely shared via
/// `std::shared_ptr<const CostFunction>`.
class CostFunction {
 public:
  virtual ~CostFunction() = default;

  /// The family tag, for printing and serialization.
  virtual CostFamily family() const = 0;

  /// Absolute cost level of holding confidence `p`, with `p` in [0, 1].
  virtual double Level(double p) const = 0;

  /// Cost of raising confidence from `from` to `to`. Returns 0 when
  /// `to <= from` (confidence is never actively lowered; decrements in the
  /// greedy refinement phase *refund* exactly this amount).
  double Increment(double from, double to) const {
    if (to <= from) return 0.0;
    return Level(to) - Level(from);
  }

  /// Human-readable description, e.g. "exponential(a=2, b=3)", with each
  /// parameter printed like printf's `%g` (6 significant digits).
  std::string ToString() const;

  /// Appends the description to `out` with each parameter printed to
  /// `significant_digits` digits, like printf's `%.<n>g`. At 17 digits
  /// `ParseCostFunction` reads back the exact parameters, so snapshots
  /// persist that form.
  virtual void AppendDescription(std::string* out, int significant_digits) const = 0;
};

/// Shared immutable handle; tuples referencing the same acquisition channel
/// share one instance.
using CostFunctionPtr = std::shared_ptr<const CostFunction>;

/// \name Factories
/// Each validates its parameters and returns `kInvalidArgument` on a
/// non-increasing configuration.
/// @{

/// Linear cost `a * p`; requires a > 0.
[[nodiscard]] Result<CostFunctionPtr> MakeLinearCost(double a);

/// Polynomial ("binomial") cost `a * p^d`; requires a > 0 and d >= 1.
[[nodiscard]] Result<CostFunctionPtr> MakePolynomialCost(double a, double degree);

/// Exponential cost `a * e^(b*p)`; requires a > 0 and b > 0.
[[nodiscard]] Result<CostFunctionPtr> MakeExponentialCost(double a, double b);

/// Logarithmic cost `a * ln(1 + b*p)`; requires a > 0 and b > 0.
[[nodiscard]] Result<CostFunctionPtr> MakeLogarithmicCost(double a, double b);

/// Step cost `a * ceil(p / delta)`; requires a > 0 and delta in (0, 1].
[[nodiscard]] Result<CostFunctionPtr> MakeStepCost(double a, double delta);

/// @}

/// The cost function assumed when a tuple has none attached: linear with
/// unit slope, so "cost" degenerates to "total confidence raised".
CostFunctionPtr DefaultCostFunction();

/// \brief Parses the textual form produced by `CostFunction::ToString` or
/// `AppendDescription` ("linear(a=2)", "exponential(a=2, b=3)", ...), for
/// persistence.
/// Returns `kParseError` on malformed input and `kInvalidArgument` for
/// out-of-range parameters.
[[nodiscard]] Result<CostFunctionPtr> ParseCostFunction(const std::string& text);

}  // namespace pcqe

#endif  // PCQE_COST_COST_FUNCTION_H_
