// Unit tests for the SQL lexer and parser.

#include "query/parser.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/lexer.h"

namespace pcqe {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = *Tokenize("SELECT a, 42 FROM t WHERE x <= 3.5");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, NumbersIntegerAndFloat) {
  auto tokens = *Tokenize("1 2.5 1e6 3.25e-2 7");
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_EQ(tokens[2].type, TokenType::kFloat);
  EXPECT_EQ(tokens[3].type, TokenType::kFloat);
  EXPECT_EQ(tokens[4].type, TokenType::kInteger);
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = *Tokenize("'it''s fine'");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "it's fine");
  EXPECT_TRUE(Tokenize("'unterminated").status().IsParseError());
}

TEST(LexerTest, OperatorsAndComments) {
  auto tokens = *Tokenize("a <> b -- trailing comment\n != <=");
  EXPECT_TRUE(tokens[1].IsOperator("<>"));
  EXPECT_TRUE(tokens[3].IsOperator("<>"));  // != normalizes to <>
  EXPECT_TRUE(tokens[4].IsOperator("<="));
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_TRUE(Tokenize("select @x").status().IsParseError());
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = *Tokenize("select Select SELECT");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(tokens[static_cast<size_t>(i)].IsKeyword("SELECT"));
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = *ParseSelect("SELECT * FROM t");
  EXPECT_EQ(stmt->select_list.size(), 1u);
  EXPECT_TRUE(stmt->select_list[0].is_star);
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table_name, "t");
  EXPECT_FALSE(stmt->distinct);
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_EQ(stmt->limit, -1);
}

TEST(ParserTest, SelectListWithAliases) {
  auto stmt = *ParseSelect("SELECT a AS x, b y, c FROM t");
  ASSERT_EQ(stmt->select_list.size(), 3u);
  EXPECT_EQ(stmt->select_list[0].alias, "x");
  EXPECT_EQ(stmt->select_list[1].alias, "y");
  EXPECT_TRUE(stmt->select_list[2].alias.empty());
}

TEST(ParserTest, DistinctAndWhere) {
  auto stmt = *ParseSelect("SELECT DISTINCT company FROM proposal WHERE funding < 1000000");
  EXPECT_TRUE(stmt->distinct);
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->ToString(), "(funding < 1000000)");
}

TEST(ParserTest, JoinWithOn) {
  auto stmt = *ParseSelect(
      "SELECT * FROM a JOIN b ON a.id = b.id INNER JOIN c ON b.id = c.id");
  EXPECT_EQ(stmt->from.size(), 1u);
  ASSERT_EQ(stmt->joins.size(), 2u);
  EXPECT_EQ(stmt->joins[0].table.table_name, "b");
  EXPECT_EQ(stmt->joins[1].table.table_name, "c");
}

TEST(ParserTest, CommaJoinAndAliases) {
  auto stmt = *ParseSelect("SELECT * FROM a AS x, b y");
  ASSERT_EQ(stmt->from.size(), 2u);
  EXPECT_EQ(stmt->from[0].alias, "x");
  EXPECT_EQ(stmt->from[1].alias, "y");
  EXPECT_EQ(stmt->from[1].EffectiveName(), "y");
}

TEST(ParserTest, DerivedTableRequiresAlias) {
  EXPECT_TRUE(ParseSelect("SELECT * FROM (SELECT * FROM t)").status().IsParseError());
  auto stmt = *ParseSelect("SELECT * FROM (SELECT * FROM t) AS sub");
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_NE(stmt->from[0].subquery, nullptr);
  EXPECT_EQ(stmt->from[0].alias, "sub");
}

TEST(ParserTest, SetOperationsChain) {
  auto stmt = *ParseSelect("SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM v");
  EXPECT_EQ(stmt->set_op, SetOpKind::kUnion);
  ASSERT_NE(stmt->set_rhs, nullptr);
  EXPECT_EQ(stmt->set_rhs->set_op, SetOpKind::kExcept);
  auto all = *ParseSelect("SELECT a FROM t UNION ALL SELECT a FROM u");
  EXPECT_EQ(all->set_op, SetOpKind::kUnionAll);
  auto inter = *ParseSelect("SELECT a FROM t INTERSECT SELECT a FROM u");
  EXPECT_EQ(inter->set_op, SetOpKind::kIntersect);
}

TEST(ParserTest, OrderByAndLimit) {
  auto stmt = *ParseSelect("SELECT a FROM t ORDER BY a DESC, b LIMIT 10;");
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, ErrorsAreParseErrors) {
  EXPECT_TRUE(ParseSelect("SELEC * FROM t").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT FROM t").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT * FROM").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT * FROM t WHERE").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT * FROM t LIMIT x").status().IsParseError());
  // "FROM t garbage" is a bare alias, so force trailing junk after WHERE.
  EXPECT_TRUE(ParseSelect("SELECT * FROM t WHERE x = 1 garbage").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT a b c FROM t").status().IsParseError());
  EXPECT_TRUE(ParseSelect("").status().IsParseError());
}

TEST(ParserTest, ErrorMentionsOffset) {
  Status s = ParseSelect("SELECT * FROM t WHERE +").status();
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("offset"), std::string::npos);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = *ParseExpression("a OR b AND NOT c = 1");
  // OR(a, AND(b, NOT(c = 1)))
  EXPECT_EQ(e->ToString(), "(a OR (b AND (NOT (c = 1))))");
  auto arith = *ParseExpression("1 + 2 * 3 - 4 / 2");
  EXPECT_EQ(arith->ToString(), "((1 + (2 * 3)) - (4 / 2))");
}

TEST(ParserTest, NegatedNumericLiteralsFold) {
  // `-<numeric literal>` parses as the literal itself, computed as evaluating
  // the negation would: comparisons against it are plain column-versus-
  // literal shapes (the vectorized filter kernels' input).
  auto five = *ParseExpression("- 5");
  ASSERT_EQ(five->kind(), ExprKind::kLiteral);
  EXPECT_EQ(five->literal().type(), DataType::kInt64);
  EXPECT_EQ(*five->literal().AsInt(), -5);
  auto twice = *ParseExpression("- -5");
  ASSERT_EQ(twice->kind(), ExprKind::kLiteral);
  EXPECT_EQ(*twice->literal().AsInt(), 5);
  auto widest = *ParseExpression("-9223372036854775807");
  ASSERT_EQ(widest->kind(), ExprKind::kLiteral);
  EXPECT_EQ(*widest->literal().AsInt(), -9223372036854775807LL);
  auto real = *ParseExpression("-2.5");
  ASSERT_EQ(real->kind(), ExprKind::kLiteral);
  EXPECT_EQ(real->literal().type(), DataType::kDouble);
  EXPECT_EQ(*real->literal().AsDouble(), -2.5);
  auto compare = *ParseExpression("calib >= -20");
  ASSERT_EQ(compare->right()->kind(), ExprKind::kLiteral);
  EXPECT_EQ(compare->ToString(), "(calib >= -20)");

  // Anything else stays a negation: columns, NULL, and non-numeric literals
  // (which must still fail to bind).
  auto column = *ParseExpression("-amount");
  ASSERT_EQ(column->kind(), ExprKind::kUnary);
  EXPECT_EQ(column->unary_op(), UnaryOp::kNegate);
  EXPECT_EQ(column->ToString(), "(-amount)");
  EXPECT_EQ((*ParseExpression("-NULL"))->kind(), ExprKind::kUnary);
  auto text = *ParseExpression("-'abc'");
  ASSERT_EQ(text->kind(), ExprKind::kUnary);
  EXPECT_TRUE(text->Bind(Schema()).IsBindError());
}

TEST(ParserTest, InDesugarsToDisjunction) {
  auto e = *ParseExpression("x IN (1, 2, 3)");
  EXPECT_EQ(e->ToString(), "(((x = 1) OR (x = 2)) OR (x = 3))");
  auto single = *ParseExpression("x IN (7)");
  EXPECT_EQ(single->ToString(), "(x = 7)");
  auto negated = *ParseExpression("x NOT IN (1, 2)");
  EXPECT_EQ(negated->ToString(), "(NOT ((x = 1) OR (x = 2)))");
  EXPECT_TRUE(ParseExpression("x IN ()").status().IsParseError());
  EXPECT_TRUE(ParseExpression("x IN 1, 2").status().IsParseError());
}

TEST(ParserTest, BetweenDesugarsToRange) {
  auto e = *ParseExpression("x BETWEEN 1 AND 10");
  EXPECT_EQ(e->ToString(), "((x >= 1) AND (x <= 10))");
  auto negated = *ParseExpression("x NOT BETWEEN 1 AND 10");
  EXPECT_EQ(negated->ToString(), "(NOT ((x >= 1) AND (x <= 10)))");
  // BETWEEN binds tighter than a following AND.
  auto chained = *ParseExpression("x BETWEEN 1 AND 10 AND y = 2");
  EXPECT_EQ(chained->ToString(), "(((x >= 1) AND (x <= 10)) AND (y = 2))");
  EXPECT_TRUE(ParseExpression("x BETWEEN 1").status().IsParseError());
  EXPECT_TRUE(ParseExpression("x NOT 5").status().IsParseError());
}

TEST(ParserTest, StandaloneExpressionRejectsTrailing) {
  EXPECT_TRUE(ParseExpression("a = 1 extra junk +").status().IsParseError());
}

TEST(ParserTest, QualifiedColumnNames) {
  auto e = *ParseExpression("t.col = u.col");
  EXPECT_EQ(e->left()->column_name(), "t.col");
  EXPECT_EQ(e->right()->column_name(), "u.col");
}

// Robustness: random token soup must produce a clean ParseError (or a valid
// statement), never a crash or hang. Seeds sweep a few hundred garbled
// inputs assembled from realistic SQL fragments.
class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  static const char* kFragments[] = {
      "SELECT", "FROM",  "WHERE", "JOIN",   "ON",     "GROUP", "BY",     "HAVING",
      "ORDER",  "LIMIT", "UNION", "EXCEPT", "(",      ")",     ",",      "*",
      "=",      "<",     ">=",    "+",      "-",      "/",     "AND",    "OR",
      "NOT",    "LIKE",  "IS",    "NULL",   "'text'", "42",    "3.14",   "t",
      "a",      "b.c",   "AS",    "x",      "COUNT",  "SUM",   "DISTINCT", ";"};
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::string sql;
    int len = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < len; ++i) {
      sql += kFragments[rng.UniformInt(0, std::size(kFragments) - 1)];
      sql += ' ';
    }
    auto result = ParseSelect(sql);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsParseError()) << sql << " -> "
                                                  << result.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range<uint64_t>(1, 6));

TEST(ParserTest, RunningExampleQueryParses) {
  // The paper's Candidate query as SQL.
  auto stmt = ParseSelect(
      "SELECT ci.company, ci.income "
      "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
      "JOIN companyinfo AS ci ON c.company = ci.company");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->select_list.size(), 2u);
  EXPECT_EQ((*stmt)->joins.size(), 1u);
}

}  // namespace
}  // namespace pcqe
