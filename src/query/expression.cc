#include "query/expression.h"

#include "common/string_util.h"

namespace pcqe {

std::string BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

std::string AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Literal(Value v) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::ColumnRef(std::string name) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumnRef;
  e->column_name_ = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::Unary(UnaryOp op, std::unique_ptr<Expr> operand) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kUnary;
  e->unary_op_ = op;
  e->left_ = std::move(operand);
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kBinary;
  e->binary_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

std::unique_ptr<Expr> Expr::Aggregate(AggFunc func, std::unique_ptr<Expr> arg) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAggregate;
  e->agg_func_ = func;
  e->left_ = std::move(arg);
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind_ == ExprKind::kAggregate) return true;
  if (left_ && left_->ContainsAggregate()) return true;
  if (right_ && right_->ContainsAggregate()) return true;
  return false;
}

Result<std::unique_ptr<Expr>> Expr::LiftAggregates(
    std::unique_ptr<Expr> expr, std::vector<std::unique_ptr<Expr>>* lifted) {
  if (expr->kind_ == ExprKind::kAggregate) {
    if (expr->left_ && expr->left_->ContainsAggregate()) {
      return Status::BindError("aggregate calls cannot be nested");
    }
    auto ref = Expr::ColumnRef(StrFormat("__agg%zu", lifted->size()));
    lifted->push_back(std::move(expr));
    return ref;
  }
  if (expr->left_) {
    PCQE_ASSIGN_OR_RETURN(expr->left_, LiftAggregates(std::move(expr->left_), lifted));
  }
  if (expr->right_) {
    PCQE_ASSIGN_OR_RETURN(expr->right_, LiftAggregates(std::move(expr->right_), lifted));
  }
  return expr;
}

std::unique_ptr<Expr> Expr::ReplaceBySyntax(
    std::unique_ptr<Expr> expr,
    const std::vector<std::pair<std::string, std::string>>& text_to_column) {
  std::string text = expr->ToString();
  for (const auto& [pattern, column] : text_to_column) {
    if (text == pattern) return Expr::ColumnRef(column);
  }
  if (expr->left_) {
    expr->left_ = ReplaceBySyntax(std::move(expr->left_), text_to_column);
  }
  if (expr->right_) {
    expr->right_ = ReplaceBySyntax(std::move(expr->right_), text_to_column);
  }
  return expr;
}

namespace {

bool IsNumeric(DataType t) { return t == DataType::kInt64 || t == DataType::kDouble; }

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return true;
    default:
      return false;
  }
}

// Whether values of these static types may meet in a comparison. kNull is
// compatible with everything (a NULL literal compares NULL at runtime).
bool Comparable(DataType a, DataType b) {
  if (a == DataType::kNull || b == DataType::kNull) return true;
  if (a == b) return true;
  return IsNumeric(a) && IsNumeric(b);
}

}  // namespace

Status Expr::Bind(const Schema& schema) {
  switch (kind_) {
    case ExprKind::kAggregate:
      // Aggregates never reach Bind directly: the planner lifts them into
      // per-group columns first (see LiftAggregates). Hitting one here means
      // the query used an aggregate outside SELECT/HAVING.
      return Status::BindError(
          "aggregate calls are only allowed in the SELECT list and HAVING");
    case ExprKind::kLiteral:
      result_type_ = literal_.type();
      break;
    case ExprKind::kColumnRef: {
      auto idx = schema.IndexOf(column_name_);
      if (!idx.ok()) {
        // Normalize lookup failures to bind errors: the caller wrote a query
        // that does not fit the schema.
        return Status::BindError(idx.status().message());
      }
      column_index_ = *idx;
      result_type_ = schema.column(column_index_).type;
      break;
    }
    case ExprKind::kUnary: {
      PCQE_RETURN_NOT_OK(left_->Bind(schema));
      DataType t = left_->result_type_;
      switch (unary_op_) {
        case UnaryOp::kNot:
          if (t != DataType::kBool && t != DataType::kNull) {
            return Status::BindError(
                StrFormat("NOT requires BOOLEAN, got %s", DataTypeToString(t).c_str()));
          }
          result_type_ = DataType::kBool;
          break;
        case UnaryOp::kNegate:
          if (!IsNumeric(t) && t != DataType::kNull) {
            return Status::BindError(
                StrFormat("unary minus requires numeric, got %s",
                          DataTypeToString(t).c_str()));
          }
          result_type_ = t;
          break;
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          result_type_ = DataType::kBool;
          break;
      }
      break;
    }
    case ExprKind::kBinary: {
      PCQE_RETURN_NOT_OK(left_->Bind(schema));
      PCQE_RETURN_NOT_OK(right_->Bind(schema));
      DataType lt = left_->result_type_;
      DataType rt = right_->result_type_;
      if (IsComparison(binary_op_)) {
        if (!Comparable(lt, rt)) {
          return Status::BindError(StrFormat(
              "cannot compare %s with %s", DataTypeToString(lt).c_str(),
              DataTypeToString(rt).c_str()));
        }
        result_type_ = DataType::kBool;
      } else if (IsArithmetic(binary_op_)) {
        if ((!IsNumeric(lt) && lt != DataType::kNull) ||
            (!IsNumeric(rt) && rt != DataType::kNull)) {
          return Status::BindError(StrFormat(
              "arithmetic requires numeric operands, got %s %s %s",
              DataTypeToString(lt).c_str(), BinaryOpToString(binary_op_).c_str(),
              DataTypeToString(rt).c_str()));
        }
        result_type_ = (lt == DataType::kDouble || rt == DataType::kDouble ||
                        binary_op_ == BinaryOp::kDiv)
                           ? DataType::kDouble
                           : DataType::kInt64;
      } else if (binary_op_ == BinaryOp::kAnd || binary_op_ == BinaryOp::kOr) {
        auto check = [&](DataType t) {
          return t == DataType::kBool || t == DataType::kNull;
        };
        if (!check(lt) || !check(rt)) {
          return Status::BindError(StrFormat(
              "%s requires BOOLEAN operands, got %s and %s",
              BinaryOpToString(binary_op_).c_str(), DataTypeToString(lt).c_str(),
              DataTypeToString(rt).c_str()));
        }
        result_type_ = DataType::kBool;
      } else {  // LIKE
        auto check = [&](DataType t) {
          return t == DataType::kString || t == DataType::kNull;
        };
        if (!check(lt) || !check(rt)) {
          return Status::BindError("LIKE requires VARCHAR operands");
        }
        result_type_ = DataType::kBool;
      }
      break;
    }
  }
  bound_ = true;
  return Status::OK();
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Expr::Eval(const std::vector<Value>& row) const {
  if (!bound_) return Status::Internal("Eval on unbound expression: " + ToString());
  switch (kind_) {
    case ExprKind::kAggregate:
      return Status::Internal("aggregate expression evaluated outside a group");
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kColumnRef:
      if (column_index_ >= row.size()) {
        return Status::Internal(
            StrFormat("column index %zu out of range for row of %zu values",
                      column_index_, row.size()));
      }
      return row[column_index_];
    case ExprKind::kUnary: {
      PCQE_ASSIGN_OR_RETURN(Value v, left_->Eval(row));
      switch (unary_op_) {
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
        case UnaryOp::kNot: {
          if (v.is_null()) return Value::Null();
          PCQE_ASSIGN_OR_RETURN(bool b, v.AsBool());
          return Value::Bool(!b);
        }
        case UnaryOp::kNegate: {
          if (v.is_null()) return Value::Null();
          if (v.type() == DataType::kInt64) return Value::Int(-*v.AsInt());
          PCQE_ASSIGN_OR_RETURN(double d, v.AsDouble());
          return Value::Double(-d);
        }
      }
      return Status::Internal("unreachable unary op");
    }
    case ExprKind::kBinary: {
      // Kleene AND/OR must inspect NULLs themselves; evaluate lazily.
      if (binary_op_ == BinaryOp::kAnd || binary_op_ == BinaryOp::kOr) {
        PCQE_ASSIGN_OR_RETURN(Value lv, left_->Eval(row));
        PCQE_ASSIGN_OR_RETURN(Value rv, right_->Eval(row));
        auto truth = [](const Value& v) -> int {
          if (v.is_null()) return -1;  // unknown
          return *v.AsBool() ? 1 : 0;
        };
        int a = truth(lv), b = truth(rv);
        if (binary_op_ == BinaryOp::kAnd) {
          if (a == 0 || b == 0) return Value::Bool(false);
          if (a == -1 || b == -1) return Value::Null();
          return Value::Bool(true);
        }
        if (a == 1 || b == 1) return Value::Bool(true);
        if (a == -1 || b == -1) return Value::Null();
        return Value::Bool(false);
      }

      PCQE_ASSIGN_OR_RETURN(Value lv, left_->Eval(row));
      PCQE_ASSIGN_OR_RETURN(Value rv, right_->Eval(row));
      if (lv.is_null() || rv.is_null()) return Value::Null();

      if (IsComparison(binary_op_)) {
        int c = lv.Compare(rv);
        switch (binary_op_) {
          case BinaryOp::kEq:
            return Value::Bool(c == 0);
          case BinaryOp::kNe:
            return Value::Bool(c != 0);
          case BinaryOp::kLt:
            return Value::Bool(c < 0);
          case BinaryOp::kLe:
            return Value::Bool(c <= 0);
          case BinaryOp::kGt:
            return Value::Bool(c > 0);
          case BinaryOp::kGe:
            return Value::Bool(c >= 0);
          default:
            break;
        }
      }
      if (IsArithmetic(binary_op_)) {
        bool both_int = lv.type() == DataType::kInt64 && rv.type() == DataType::kInt64 &&
                        binary_op_ != BinaryOp::kDiv;
        PCQE_ASSIGN_OR_RETURN(double a, lv.AsDouble());
        PCQE_ASSIGN_OR_RETURN(double b, rv.AsDouble());
        double out = 0.0;
        switch (binary_op_) {
          case BinaryOp::kAdd:
            out = a + b;
            break;
          case BinaryOp::kSub:
            out = a - b;
            break;
          case BinaryOp::kMul:
            out = a * b;
            break;
          case BinaryOp::kDiv:
            if (b == 0.0) return Status::InvalidArgument("division by zero");
            out = a / b;
            break;
          default:
            break;
        }
        if (both_int) return Value::Int(static_cast<int64_t>(out));
        return Value::Double(out);
      }
      // LIKE
      PCQE_ASSIGN_OR_RETURN(std::string text, lv.AsString());
      PCQE_ASSIGN_OR_RETURN(std::string pattern, rv.AsString());
      return Value::Bool(LikeMatch(text, pattern));
    }
  }
  return Status::Internal("unreachable expression kind");
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->kind_ = kind_;
  e->literal_ = literal_;
  e->column_name_ = column_name_;
  e->column_index_ = column_index_;
  e->unary_op_ = unary_op_;
  e->binary_op_ = binary_op_;
  e->agg_func_ = agg_func_;
  e->result_type_ = result_type_;
  e->bound_ = bound_;
  if (left_) e->left_ = left_->Clone();
  if (right_) e->right_ = right_->Clone();
  return e;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kAggregate:
      return StrCat({AggFuncToString(agg_func_), "(", left_ ? left_->ToString() : "*", ")"});
    case ExprKind::kLiteral:
      return literal_.type() == DataType::kString ? StrCat({"'", literal_.ToString(), "'"})
                                                  : literal_.ToString();
    case ExprKind::kColumnRef:
      return column_name_;
    case ExprKind::kUnary:
      switch (unary_op_) {
        case UnaryOp::kNot:
          return StrCat({"(NOT ", left_->ToString(), ")"});
        case UnaryOp::kNegate:
          return StrCat({"(-", left_->ToString(), ")"});
        case UnaryOp::kIsNull:
          return StrCat({"(", left_->ToString(), " IS NULL)"});
        case UnaryOp::kIsNotNull:
          return StrCat({"(", left_->ToString(), " IS NOT NULL)"});
      }
      return "?";
    case ExprKind::kBinary:
      return StrCat({"(", left_->ToString(), " ", BinaryOpToString(binary_op_), " ",
                     right_->ToString(), ")"});
  }
  return "?";
}

}  // namespace pcqe
