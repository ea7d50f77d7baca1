// Tests for GROUP BY / HAVING / aggregate functions with lineage.

#include <gtest/gtest.h>

#include "query/parser.h"
#include "query/planner.h"
#include "query/query_engine.h"
#include "relational/catalog.h"

namespace pcqe {
namespace {

/// The planner's EXPLAIN rendering of `sql`: the plan `RunQuery` executes.
std::string PlanText(const Catalog& catalog, const std::string& sql) {
  return (*PlanQuery(catalog, **ParseSelect(sql)))->ToString();
}

class AggregateDb : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* orders = *catalog_.CreateTable(
        "orders", Schema({{"customer", DataType::kString, ""},
                          {"item", DataType::kString, ""},
                          {"qty", DataType::kInt64, ""},
                          {"price", DataType::kDouble, ""}}));
    auto add = [&](const char* cust, const char* item, int64_t qty, double price,
                   double conf) {
      ASSERT_TRUE(orders
                      ->Insert({Value::String(cust), Value::String(item),
                                Value::Int(qty), Value::Double(price)},
                               conf)
                      .ok());
    };
    add("ann", "bolt", 4, 2.5, 0.9);
    add("ann", "gear", 1, 10.0, 0.8);
    add("bob", "bolt", 2, 2.5, 0.7);
    add("bob", "gear", 3, 10.0, 0.6);
    add("bob", "belt", 5, 4.0, 0.5);

    Table* with_nulls = *catalog_.CreateTable(
        "readings", Schema({{"site", DataType::kString, ""},
                            {"value", DataType::kDouble, ""}}));
    ASSERT_TRUE(
        with_nulls->Insert({Value::String("a"), Value::Double(1.0)}, 0.9).ok());
    ASSERT_TRUE(with_nulls->Insert({Value::String("a"), Value::Null()}, 0.9).ok());
    ASSERT_TRUE(
        with_nulls->Insert({Value::String("b"), Value::Null()}, 0.9).ok());
  }

  Catalog catalog_;
};

TEST_F(AggregateDb, GlobalCountStar) {
  QueryResult r = *RunQuery(catalog_, "SELECT COUNT(*) FROM orders");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0], Value::Int(5));
  EXPECT_EQ(r.schema.column(0).name, "COUNT(*)");
}

TEST_F(AggregateDb, GroupByWithCountAndSum) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT customer, COUNT(*) AS n, SUM(qty) AS total FROM orders "
      "GROUP BY customer ORDER BY customer");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[0], Value::String("ann"));
  EXPECT_EQ(r.rows[0].values[1], Value::Int(2));
  EXPECT_EQ(r.rows[0].values[2], Value::Int(5));
  EXPECT_EQ(r.rows[1].values[0], Value::String("bob"));
  EXPECT_EQ(r.rows[1].values[1], Value::Int(3));
  EXPECT_EQ(r.rows[1].values[2], Value::Int(10));
}

TEST_F(AggregateDb, GroupLineageIsConjunction) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT customer, COUNT(*) FROM orders GROUP BY customer "
                "ORDER BY customer");
  ASSERT_EQ(r.rows.size(), 2u);
  // ann group: confidences 0.9 * 0.8; bob: 0.7 * 0.6 * 0.5.
  EXPECT_NEAR(r.rows[0].confidence, 0.72, 1e-12);
  EXPECT_NEAR(r.rows[1].confidence, 0.21, 1e-12);
}

TEST_F(AggregateDb, AvgMinMax) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT AVG(price) AS a, MIN(qty) AS lo, MAX(qty) AS hi, MIN(item) AS first "
      "FROM orders");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_NEAR(*r.rows[0].values[0].AsDouble(), (2.5 + 10 + 2.5 + 10 + 4) / 5.0, 1e-12);
  EXPECT_EQ(r.rows[0].values[1], Value::Int(1));
  EXPECT_EQ(r.rows[0].values[2], Value::Int(5));
  EXPECT_EQ(r.rows[0].values[3], Value::String("belt"));
}

TEST_F(AggregateDb, SumOfDoublesIsDouble) {
  QueryResult r = *RunQuery(catalog_, "SELECT SUM(price * qty) FROM orders");
  EXPECT_NEAR(*r.rows[0].values[0].AsDouble(), 10.0 + 10.0 + 5.0 + 30.0 + 20.0, 1e-12);
  EXPECT_EQ(r.schema.column(0).type, DataType::kDouble);
}

TEST_F(AggregateDb, CountColumnSkipsNulls) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT site, COUNT(value) AS n, COUNT(*) AS rows_ FROM readings "
                "GROUP BY site ORDER BY site");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[1], Value::Int(1));  // a: one non-null
  EXPECT_EQ(r.rows[0].values[2], Value::Int(2));
  EXPECT_EQ(r.rows[1].values[1], Value::Int(0));  // b: all null
  EXPECT_EQ(r.rows[1].values[2], Value::Int(1));
}

TEST_F(AggregateDb, AggregatesOverAllNullsAreNull) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT SUM(value), AVG(value), MIN(value) FROM readings WHERE site = 'b'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0].values[0].is_null());
  EXPECT_TRUE(r.rows[0].values[1].is_null());
  EXPECT_TRUE(r.rows[0].values[2].is_null());
}

TEST_F(AggregateDb, GlobalAggregateOverEmptyInput) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT COUNT(*), SUM(qty) FROM orders WHERE customer = 'nobody'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0], Value::Int(0));
  EXPECT_TRUE(r.rows[0].values[1].is_null());
  // Vacuous aggregation is certain.
  EXPECT_DOUBLE_EQ(r.rows[0].confidence, 1.0);
}

TEST_F(AggregateDb, GroupByEmptyInputProducesNoRows) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT customer, COUNT(*) FROM orders WHERE qty > 100 GROUP BY customer");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(AggregateDb, HavingFiltersGroups) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT customer, SUM(qty) AS total FROM orders GROUP BY customer "
      "HAVING SUM(qty) > 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0], Value::String("bob"));
}

TEST_F(AggregateDb, HavingWithoutGroupBy) {
  QueryResult none =
      *RunQuery(catalog_, "SELECT COUNT(*) FROM orders HAVING COUNT(*) > 10");
  EXPECT_TRUE(none.rows.empty());
  QueryResult one =
      *RunQuery(catalog_, "SELECT COUNT(*) FROM orders HAVING COUNT(*) > 2");
  EXPECT_EQ(one.rows.size(), 1u);
}

TEST_F(AggregateDb, ExpressionsOverAggregates) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT customer, SUM(price * qty) / SUM(qty) AS unit FROM orders "
      "GROUP BY customer ORDER BY customer");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_NEAR(*r.rows[0].values[1].AsDouble(), 20.0 / 5.0, 1e-12);   // ann
  EXPECT_NEAR(*r.rows[1].values[1].AsDouble(), 55.0 / 10.0, 1e-12);  // bob
}

TEST_F(AggregateDb, GroupByExpressionKey) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT qty * 0 + 1 AS bucket, COUNT(*) FROM orders GROUP BY qty * 0 + 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[1], Value::Int(5));
}

TEST_F(AggregateDb, MultiKeyGroupBy) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT customer, item, COUNT(*) FROM orders GROUP BY customer, item");
  EXPECT_EQ(r.rows.size(), 5u);  // all pairs are distinct here
}

TEST_F(AggregateDb, ErrorsAreBindErrors) {
  // Non-key column in SELECT.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT item, COUNT(*) FROM orders GROUP BY customer")
                  .status()
                  .IsBindError());
  // Star with aggregation.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT * FROM orders GROUP BY customer")
                  .status()
                  .IsBindError());
  // Aggregate in WHERE.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT customer FROM orders WHERE SUM(qty) > 3 "
                                 "GROUP BY customer")
                  .status()
                  .IsBindError());
  // Nested aggregate.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT SUM(COUNT(*)) FROM orders")
                  .status()
                  .IsBindError());
  // SUM over strings.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT SUM(item) FROM orders").status().IsBindError());
  // Aggregate in GROUP BY.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT COUNT(*) FROM orders GROUP BY COUNT(*)")
                  .status()
                  .IsBindError());
  // Non-key column in HAVING.
  EXPECT_TRUE(RunQuery(catalog_, "SELECT customer FROM orders GROUP BY customer "
                                 "HAVING qty > 1")
                  .status()
                  .IsBindError());
}

TEST_F(AggregateDb, ParserRejectsStarInNonCount) {
  EXPECT_TRUE(RunQuery(catalog_, "SELECT SUM(*) FROM orders").status().IsParseError());
}

TEST_F(AggregateDb, OrderByAggregateAlias) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT customer, SUM(qty) AS total FROM orders GROUP BY customer "
                "ORDER BY total DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[0], Value::String("bob"));
}

TEST_F(AggregateDb, DistinctAfterAggregation) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT DISTINCT COUNT(*) FROM orders GROUP BY customer");
  // Counts are 2 and 3: distinct keeps both.
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(AggregateDb, AggregatePlanRendered) {
  const std::string sql = "SELECT customer, COUNT(*) FROM orders GROUP BY customer";
  ASSERT_TRUE(RunQuery(catalog_, sql).ok());
  std::string plan_text = PlanText(catalog_, sql);
  EXPECT_NE(plan_text.find("Aggregate"), std::string::npos);
  EXPECT_NE(plan_text.find("COUNT(*)"), std::string::npos);
}

}  // namespace
}  // namespace pcqe
