#include "cost/cost_function.h"

#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/string_util.h"
#include "common/text_io.h"

namespace pcqe {

std::string CostFamilyToString(CostFamily family) {
  switch (family) {
    case CostFamily::kLinear:
      return "linear";
    case CostFamily::kPolynomial:
      return "polynomial";
    case CostFamily::kExponential:
      return "exponential";
    case CostFamily::kLogarithmic:
      return "logarithmic";
    case CostFamily::kStep:
      return "step";
  }
  return "unknown";
}

namespace {

/// Appends "family(k1=v1, k2=v2)" with each value printed to `digits`
/// significant digits.
void AppendFamily(std::string* out, const char* family,
                  std::initializer_list<std::pair<const char*, double>> params,
                  int digits) {
  *out += family;
  *out += '(';
  const char* sep = "";
  for (const auto& [name, value] : params) {
    *out += sep;
    *out += name;
    *out += '=';
    AppendDouble(out, value, digits);
    sep = ", ";
  }
  *out += ')';
}

class LinearCost final : public CostFunction {
 public:
  explicit LinearCost(double a) : a_(a) {}
  CostFamily family() const override { return CostFamily::kLinear; }
  double Level(double p) const override { return a_ * p; }
  void AppendDescription(std::string* out, int digits) const override {
    AppendFamily(out, "linear", {{"a", a_}}, digits);
  }

 private:
  double a_;
};

class PolynomialCost final : public CostFunction {
 public:
  PolynomialCost(double a, double degree) : a_(a), degree_(degree) {}
  CostFamily family() const override { return CostFamily::kPolynomial; }
  double Level(double p) const override { return a_ * std::pow(p, degree_); }
  void AppendDescription(std::string* out, int digits) const override {
    AppendFamily(out, "polynomial", {{"a", a_}, {"d", degree_}}, digits);
  }

 private:
  double a_;
  double degree_;
};

class ExponentialCost final : public CostFunction {
 public:
  ExponentialCost(double a, double b) : a_(a), b_(b) {}
  CostFamily family() const override { return CostFamily::kExponential; }
  double Level(double p) const override { return a_ * std::exp(b_ * p); }
  void AppendDescription(std::string* out, int digits) const override {
    AppendFamily(out, "exponential", {{"a", a_}, {"b", b_}}, digits);
  }

 private:
  double a_;
  double b_;
};

class LogarithmicCost final : public CostFunction {
 public:
  LogarithmicCost(double a, double b) : a_(a), b_(b) {}
  CostFamily family() const override { return CostFamily::kLogarithmic; }
  double Level(double p) const override { return a_ * std::log1p(b_ * p); }
  void AppendDescription(std::string* out, int digits) const override {
    AppendFamily(out, "logarithmic", {{"a", a_}, {"b", b_}}, digits);
  }

 private:
  double a_;
  double b_;
};

class StepCost final : public CostFunction {
 public:
  StepCost(double a, double delta) : a_(a), delta_(delta) {}
  CostFamily family() const override { return CostFamily::kStep; }
  double Level(double p) const override {
    // Tiny slack so p = k*delta counts exactly k completed actions.
    return a_ * std::ceil(p / delta_ - 1e-12);
  }
  void AppendDescription(std::string* out, int digits) const override {
    AppendFamily(out, "step", {{"a", a_}, {"delta", delta_}}, digits);
  }

 private:
  double a_;
  double delta_;
};

}  // namespace

std::string CostFunction::ToString() const {
  std::string out;
  AppendDescription(&out, 6);
  return out;
}

Result<CostFunctionPtr> MakeLinearCost(double a) {
  if (!(a > 0.0)) return Status::InvalidArgument("linear cost requires a > 0");
  return CostFunctionPtr(std::make_shared<LinearCost>(a));
}

Result<CostFunctionPtr> MakePolynomialCost(double a, double degree) {
  if (!(a > 0.0)) return Status::InvalidArgument("polynomial cost requires a > 0");
  if (!(degree >= 1.0)) {
    return Status::InvalidArgument("polynomial cost requires degree >= 1");
  }
  return CostFunctionPtr(std::make_shared<PolynomialCost>(a, degree));
}

Result<CostFunctionPtr> MakeExponentialCost(double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("exponential cost requires a > 0 and b > 0");
  }
  return CostFunctionPtr(std::make_shared<ExponentialCost>(a, b));
}

Result<CostFunctionPtr> MakeLogarithmicCost(double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("logarithmic cost requires a > 0 and b > 0");
  }
  return CostFunctionPtr(std::make_shared<LogarithmicCost>(a, b));
}

Result<CostFunctionPtr> MakeStepCost(double a, double delta) {
  if (!(a > 0.0)) return Status::InvalidArgument("step cost requires a > 0");
  if (!(delta > 0.0 && delta <= 1.0)) {
    return Status::InvalidArgument("step cost requires delta in (0, 1]");
  }
  return CostFunctionPtr(std::make_shared<StepCost>(a, delta));
}

CostFunctionPtr DefaultCostFunction() {
  static const CostFunctionPtr kDefault = *MakeLinearCost(1.0);
  return kDefault;
}

Result<CostFunctionPtr> ParseCostFunction(const std::string& text) {
  // Grammar: family '(' name '=' number (',' name '=' number)* ')'.
  size_t open = text.find('(');
  if (open == std::string::npos || text.empty() || text.back() != ')') {
    return Status::ParseError(
        StrFormat("malformed cost function '%s'", text.c_str()));
  }
  std::string family = std::string(TrimAscii(text.substr(0, open)));
  std::string body = text.substr(open + 1, text.size() - open - 2);

  // Parse "k=v" pairs.
  double a = 0.0, b = 0.0, d = 0.0, delta = 0.0;
  bool have_a = false, have_b = false, have_d = false, have_delta = false;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t comma = body.find(',', pos);
    std::string pair = std::string(
        TrimAscii(body.substr(pos, comma == std::string::npos ? std::string::npos
                                                              : comma - pos)));
    pos = comma == std::string::npos ? body.size() : comma + 1;
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError(
          StrFormat("malformed cost parameter '%s'", pair.c_str()));
    }
    std::string key = std::string(TrimAscii(pair.substr(0, eq)));
    std::optional<double> parsed = ParseDouble(TrimAscii(pair.substr(eq + 1)));
    if (!parsed) {
      return Status::ParseError(
          StrFormat("non-numeric cost parameter '%s'", pair.c_str()));
    }
    const double value = *parsed;
    if (key == "a") {
      a = value;
      have_a = true;
    } else if (key == "b") {
      b = value;
      have_b = true;
    } else if (key == "d") {
      d = value;
      have_d = true;
    } else if (key == "delta") {
      delta = value;
      have_delta = true;
    } else {
      return Status::ParseError(
          StrFormat("unknown cost parameter '%s'", key.c_str()));
    }
  }

  if (family == "linear" && have_a && !have_b && !have_d && !have_delta) {
    return MakeLinearCost(a);
  }
  if (family == "polynomial" && have_a && have_d && !have_b && !have_delta) {
    return MakePolynomialCost(a, d);
  }
  if (family == "exponential" && have_a && have_b && !have_d && !have_delta) {
    return MakeExponentialCost(a, b);
  }
  if (family == "logarithmic" && have_a && have_b && !have_d && !have_delta) {
    return MakeLogarithmicCost(a, b);
  }
  if (family == "step" && have_a && have_delta && !have_b && !have_d) {
    return MakeStepCost(a, delta);
  }
  return Status::ParseError(
      StrFormat("unknown cost family or wrong parameters in '%s'", text.c_str()));
}

}  // namespace pcqe
