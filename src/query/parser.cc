#include "query/parser.h"

#include <cstdlib>

#include "common/string_util.h"
#include "query/lexer.h"

namespace pcqe {

namespace {

/// Token-stream cursor with SQL-flavored error reporting.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<SelectStatement>> ParseStatement() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt, ParseSetChain());
    // ORDER BY / LIMIT attach to the outermost statement.
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      PCQE_RETURN_NOT_OK(Expect("BY"));
      while (true) {
        OrderByItem item;
        PCQE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Peek().IsKeyword("ASC")) {
          Advance();
        } else if (Peek().IsKeyword("DESC")) {
          Advance();
          item.ascending = false;
        }
        stmt->order_by.push_back(std::move(item));
        if (!Peek().IsOperator(",")) break;
        Advance();
      }
    }
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      if (Peek().type != TokenType::kInteger) {
        return Error("expected integer after LIMIT");
      }
      stmt->limit = std::strtoll(Peek().text.c_str(), nullptr, 10);
      if (stmt->limit < 0) return Error("LIMIT must be non-negative");
      Advance();
    }
    if (Peek().IsOperator(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseStandaloneExpr() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    std::string got = t.type == TokenType::kEnd ? "end of input" : "'" + t.text + "'";
    return Status::ParseError(
        StrFormat("%s (got %s at offset %zu)", msg.c_str(), got.c_str(), t.offset));
  }

  Status Expect(const std::string& keyword) {
    if (!Peek().IsKeyword(keyword)) return Error("expected " + keyword);
    Advance();
    return Status::OK();
  }

  Status ExpectOperator(const std::string& op) {
    if (!Peek().IsOperator(op)) return Error("expected '" + op + "'");
    Advance();
    return Status::OK();
  }

  // core (set_op core)*
  Result<std::unique_ptr<SelectStatement>> ParseSetChain() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt, ParseCore());
    SelectStatement* tail = stmt.get();
    while (true) {
      SetOpKind op = SetOpKind::kNone;
      if (Peek().IsKeyword("UNION")) {
        Advance();
        op = SetOpKind::kUnion;
        if (Peek().IsKeyword("ALL")) {
          Advance();
          op = SetOpKind::kUnionAll;
        }
      } else if (Peek().IsKeyword("EXCEPT")) {
        Advance();
        op = SetOpKind::kExcept;
      } else if (Peek().IsKeyword("INTERSECT")) {
        Advance();
        op = SetOpKind::kIntersect;
      } else {
        break;
      }
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> rhs, ParseCore());
      tail->set_op = op;
      tail->set_rhs = std::move(rhs);
      tail = tail->set_rhs.get();
    }
    return stmt;
  }

  // SELECT [DISTINCT] items FROM refs [WHERE expr]
  Result<std::unique_ptr<SelectStatement>> ParseCore() {
    PCQE_RETURN_NOT_OK(Expect("SELECT"));
    auto stmt = std::make_unique<SelectStatement>();
    if (Peek().IsKeyword("DISTINCT")) {
      Advance();
      stmt->distinct = true;
    } else if (Peek().IsKeyword("ALL")) {
      Advance();
    }

    // Select list.
    while (true) {
      SelectItem item;
      if (Peek().IsOperator("*")) {
        Advance();
        item.is_star = true;
      } else {
        PCQE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Peek().IsKeyword("AS")) {
          Advance();
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected alias identifier after AS");
          }
          item.alias = Peek().text;
          Advance();
        } else if (Peek().type == TokenType::kIdentifier) {
          // Bare alias: SELECT a b
          item.alias = Peek().text;
          Advance();
        }
      }
      stmt->select_list.push_back(std::move(item));
      if (!Peek().IsOperator(",")) break;
      Advance();
    }

    PCQE_RETURN_NOT_OK(Expect("FROM"));
    PCQE_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    stmt->from.push_back(std::move(first));
    while (true) {
      if (Peek().IsOperator(",")) {
        Advance();
        PCQE_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        continue;
      }
      if (Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER")) {
        if (Peek().IsKeyword("INNER")) Advance();
        PCQE_RETURN_NOT_OK(Expect("JOIN"));
        JoinClause join;
        PCQE_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        PCQE_RETURN_NOT_OK(Expect("ON"));
        PCQE_ASSIGN_OR_RETURN(join.condition, ParseExpr());
        stmt->joins.push_back(std::move(join));
        continue;
      }
      break;
    }

    if (Peek().IsKeyword("WHERE")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      PCQE_RETURN_NOT_OK(Expect("BY"));
      while (true) {
        PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> key, ParseExpr());
        stmt->group_by.push_back(std::move(key));
        if (!Peek().IsOperator(",")) break;
        Advance();
      }
    }
    if (Peek().IsKeyword("HAVING")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Peek().IsOperator("(")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(ref.subquery, ParseSetChain());
      PCQE_RETURN_NOT_OK(ExpectOperator(")"));
      // Alias mandatory for derived tables.
      if (Peek().IsKeyword("AS")) Advance();
      if (Peek().type != TokenType::kIdentifier) {
        return Error("derived table requires an alias");
      }
      ref.alias = Peek().text;
      Advance();
      return ref;
    }
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected table name");
    }
    ref.table_name = Peek().text;
    Advance();
    if (Peek().IsKeyword("AS")) {
      Advance();
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected alias identifier after AS");
      }
      ref.alias = Peek().text;
      Advance();
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Peek().text;
      Advance();
    }
    return ref;
  }

  // Expression precedence (loosest to tightest):
  //   OR < AND < NOT < comparison/LIKE/IS < + - < * / < unary - < primary
  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAnd());
    while (Peek().IsKeyword("OR")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAnd());
      left = Expr::Binary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseNot());
    while (Peek().IsKeyword("AND")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseNot());
      left = Expr::Binary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAdditive());
    // IS [NOT] NULL
    if (Peek().IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (Peek().IsKeyword("NOT")) {
        Advance();
        negated = true;
      }
      PCQE_RETURN_NOT_OK(Expect("NULL"));
      return Expr::Unary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                         std::move(left));
    }
    // [NOT] LIKE / IN / BETWEEN.
    bool negated = false;
    if (Peek().IsKeyword("NOT") && (Peek(1).IsKeyword("LIKE") || Peek(1).IsKeyword("IN") ||
                                    Peek(1).IsKeyword("BETWEEN"))) {
      Advance();
      negated = true;
    }
    if (Peek().IsKeyword("LIKE")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> pattern, ParseAdditive());
      std::unique_ptr<Expr> like =
          Expr::Binary(BinaryOp::kLike, std::move(left), std::move(pattern));
      return negated ? Expr::Unary(UnaryOp::kNot, std::move(like)) : std::move(like);
    }
    if (Peek().IsKeyword("IN")) {
      // x IN (a, b, c) desugars to (x = a OR x = b OR x = c).
      Advance();
      PCQE_RETURN_NOT_OK(ExpectOperator("("));
      std::unique_ptr<Expr> disjunction;
      while (true) {
        PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> item, ParseExpr());
        std::unique_ptr<Expr> eq =
            Expr::Binary(BinaryOp::kEq, left->Clone(), std::move(item));
        disjunction = disjunction ? Expr::Binary(BinaryOp::kOr, std::move(disjunction),
                                                 std::move(eq))
                                  : std::move(eq);
        if (!Peek().IsOperator(",")) break;
        Advance();
      }
      PCQE_RETURN_NOT_OK(ExpectOperator(")"));
      return negated ? Expr::Unary(UnaryOp::kNot, std::move(disjunction))
                     : std::move(disjunction);
    }
    if (Peek().IsKeyword("BETWEEN")) {
      // x BETWEEN lo AND hi desugars to (x >= lo AND x <= hi).
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lo, ParseAdditive());
      PCQE_RETURN_NOT_OK(Expect("AND"));
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> hi, ParseAdditive());
      // Clone before moving `left`: argument evaluation order is
      // unspecified, so `left->Clone()` and `std::move(left)` must not
      // share one full-expression.
      std::unique_ptr<Expr> left_copy = left->Clone();
      std::unique_ptr<Expr> range = Expr::Binary(
          BinaryOp::kAnd, Expr::Binary(BinaryOp::kGe, std::move(left_copy), std::move(lo)),
          Expr::Binary(BinaryOp::kLe, std::move(left), std::move(hi)));
      return negated ? Expr::Unary(UnaryOp::kNot, std::move(range)) : std::move(range);
    }
    if (negated) return Error("expected LIKE, IN or BETWEEN after NOT");
    static const struct {
      const char* text;
      BinaryOp op;
    } kComparisons[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                        {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const auto& c : kComparisons) {
      if (Peek().IsOperator(c.text)) {
        Advance();
        PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAdditive());
        return Expr::Binary(c.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseMultiplicative());
    while (Peek().IsOperator("+") || Peek().IsOperator("-")) {
      BinaryOp op = Peek().IsOperator("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseMultiplicative());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseUnary());
    while (Peek().IsOperator("*") || Peek().IsOperator("/")) {
      BinaryOp op = Peek().IsOperator("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseUnary());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Peek().IsOperator("-")) {
      Advance();
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseUnary());
      // Fold `-<numeric literal>` into a literal, computed exactly as
      // evaluating the negation would, so `x >= -20` is the plain
      // column-versus-literal comparison the vectorized filter kernels match.
      // Other operands (columns, NULL, non-numeric literals that must fail
      // to bind) stay a negation.
      if (operand->kind() == ExprKind::kLiteral) {
        const Value& v = operand->literal();
        if (v.type() == DataType::kInt64) return Expr::Literal(Value::Int(-*v.AsInt()));
        if (v.type() == DataType::kDouble) {
          return Expr::Literal(Value::Double(-*v.AsDouble()));
        }
      }
      return Expr::Unary(UnaryOp::kNegate, std::move(operand));
    }
    if (Peek().IsOperator("+")) {
      Advance();
      return ParseUnary();
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        int64_t v = std::strtoll(t.text.c_str(), nullptr, 10);
        Advance();
        return Expr::Literal(Value::Int(v));
      }
      case TokenType::kFloat: {
        double v = std::strtod(t.text.c_str(), nullptr);
        Advance();
        return Expr::Literal(Value::Double(v));
      }
      case TokenType::kString: {
        std::string v = t.text;
        Advance();
        return Expr::Literal(Value::String(std::move(v)));
      }
      case TokenType::kKeyword: {
        // Aggregate calls: COUNT(*|expr), SUM/AVG/MIN/MAX(expr).
        static const struct {
          const char* name;
          AggFunc func;
        } kAggs[] = {{"COUNT", AggFunc::kCount},
                     {"SUM", AggFunc::kSum},
                     {"AVG", AggFunc::kAvg},
                     {"MIN", AggFunc::kMin},
                     {"MAX", AggFunc::kMax}};
        for (const auto& agg : kAggs) {
          if (!t.IsKeyword(agg.name)) continue;
          Advance();
          PCQE_RETURN_NOT_OK(ExpectOperator("("));
          if (Peek().IsOperator("*")) {
            if (agg.func != AggFunc::kCount) {
              return Error("'*' argument is only valid for COUNT");
            }
            Advance();
            PCQE_RETURN_NOT_OK(ExpectOperator(")"));
            return Expr::Aggregate(AggFunc::kCount, nullptr);
          }
          PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
          PCQE_RETURN_NOT_OK(ExpectOperator(")"));
          return Expr::Aggregate(agg.func, std::move(arg));
        }
        if (t.IsKeyword("TRUE")) {
          Advance();
          return Expr::Literal(Value::Bool(true));
        }
        if (t.IsKeyword("FALSE")) {
          Advance();
          return Expr::Literal(Value::Bool(false));
        }
        if (t.IsKeyword("NULL")) {
          Advance();
          return Expr::Literal(Value::Null());
        }
        return Error("unexpected keyword in expression");
      }
      case TokenType::kIdentifier: {
        std::string name = t.text;
        Advance();
        if (Peek().IsOperator(".")) {
          Advance();
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected column name after '.'");
          }
          name += "." + Peek().text;
          Advance();
        }
        return Expr::ColumnRef(std::move(name));
      }
      case TokenType::kOperator:
        if (t.IsOperator("(")) {
          Advance();
          PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr());
          PCQE_RETURN_NOT_OK(ExpectOperator(")"));
          return inner;
        }
        return Error("unexpected operator in expression");
      case TokenType::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<SelectStatement>> ParseSelect(const std::string& sql) {
  PCQE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::unique_ptr<Expr>> ParseExpression(const std::string& text) {
  PCQE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpr();
}

}  // namespace pcqe
