// End-to-end query tests: planner + executor + lineage propagation.

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

/// Builds the paper's §3.1 venture-capital database (Tables 1 and 2).
/// Proposal tuples 02/03 are BlueSky proposals under one million dollars
/// with confidences 0.3 / 0.4; CompanyInfo tuple 13 is BlueSky's income
/// with confidence 0.1.
class VentureCapitalDb : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* proposal = *catalog_.CreateTable(
        "Proposal", Schema({{"company", DataType::kString, ""},
                            {"proposal", DataType::kString, ""},
                            {"funding", DataType::kDouble, ""}}));
    id01_ = *proposal->Insert(
        {Value::String("AlphaTech"), Value::String("expansion"), Value::Double(2e6)},
        0.5);
    id02_ = *proposal->Insert(
        {Value::String("BlueSky"), Value::String("marketing"), Value::Double(8e5)}, 0.3);
    id03_ = *proposal->Insert(
        {Value::String("BlueSky"), Value::String("research"), Value::Double(5e5)}, 0.4);
    id04_ = *proposal->Insert(
        {Value::String("Cyclone"), Value::String("tooling"), Value::Double(1.5e6)}, 0.7);

    Table* info = *catalog_.CreateTable(
        "CompanyInfo",
        Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
    id11_ = *info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8);
    id12_ = *info->Insert({Value::String("Cyclone"), Value::Double(1.5e5)}, 0.9);
    id13_ = *info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1);
  }

  Catalog catalog_;
  BaseTupleId id01_, id02_, id03_, id04_, id11_, id12_, id13_;
};

TEST_F(VentureCapitalDb, ScanComputesPerTupleConfidence) {
  QueryResult r = *RunQuery(catalog_, "SELECT * FROM proposal");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_NEAR(r.rows[0].confidence, 0.5, 1e-12);
  EXPECT_NEAR(r.rows[1].confidence, 0.3, 1e-12);
  EXPECT_EQ(r.schema.num_columns(), 3u);
}

TEST_F(VentureCapitalDb, FilterKeepsMatchingRowsOnly) {
  QueryResult r =
      *RunQuery(catalog_, "SELECT company FROM proposal WHERE funding < 1000000");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.ValuesOfRow(0)[0], Value::String("BlueSky"));
  EXPECT_EQ(r.ValuesOfRow(1)[0], Value::String("BlueSky"));
}

TEST_F(VentureCapitalDb, DistinctMergesLineageWithOr) {
  // Π_company σ_{funding<1M}(Proposal): the two BlueSky derivations merge,
  // p25 = 0.3 + 0.4 - 0.3·0.4 = 0.58 (paper's tuple 25).
  QueryResult r = *RunQuery(
      catalog_, "SELECT DISTINCT company FROM proposal WHERE funding < 1000000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.ValuesOfRow(0)[0], Value::String("BlueSky"));
  EXPECT_NEAR(r.rows[0].confidence, 0.58, 1e-12);
}

TEST_F(VentureCapitalDb, RunningExampleJoinConfidence) {
  // Candidate = (Π_company σ(Proposal)) ⋈ CompanyInfo: p38 = 0.58 · 0.1.
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT ci.company, ci.income "
      "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
      "JOIN companyinfo AS ci ON c.company = ci.company");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.ValuesOfRow(0)[0], Value::String("BlueSky"));
  EXPECT_EQ(r.ValuesOfRow(0)[1], Value::Double(1.2e5));
  EXPECT_NEAR(r.rows[0].confidence, 0.058, 1e-12);
  // Lineage is exactly (t02 | t03) & t13.
  std::vector<LineageVarId> vars = r.arena->Variables(r.rows[0].lineage);
  EXPECT_EQ(vars.size(), 3u);
}

TEST_F(VentureCapitalDb, RecomputeAfterImprovement) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT ci.company FROM (SELECT DISTINCT company FROM proposal WHERE funding < "
      "1000000) AS c JOIN companyinfo AS ci ON c.company = ci.company");
  ASSERT_EQ(r.rows.size(), 1u);
  // Raise tuple 03 from 0.4 to 0.5 (the paper's cheap alternative).
  ASSERT_TRUE(catalog_.SetConfidence(id03_, 0.5).ok());
  ConfidenceMap fresh = *SnapshotConfidences(catalog_, r);
  r.RecomputeConfidences(fresh);
  EXPECT_NEAR(r.rows[0].confidence, 0.065, 1e-12);
}

TEST_F(VentureCapitalDb, ProjectionExpressions) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT company, funding / 1000000 AS millions FROM proposal "
                "WHERE company = 'AlphaTech'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.schema.column(1).name, "millions");
  EXPECT_EQ(r.ValuesOfRow(0)[1], Value::Double(2.0));
}

TEST_F(VentureCapitalDb, CrossJoinProducesProductWithAndLineage) {
  QueryResult r = *RunQuery(catalog_, "SELECT * FROM proposal, companyinfo");
  r.MaterializeLineage();
  EXPECT_EQ(r.rows.size(), 12u);
  // Every row's confidence is the product of its two base confidences.
  for (const auto& row : r.rows) {
    EXPECT_EQ(r.arena->Variables(row.lineage).size(), 2u);
  }
}

TEST_F(VentureCapitalDb, ThetaJoinFallsBackToNestedLoop) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT p.company FROM proposal AS p JOIN companyinfo AS ci "
      "ON p.funding > ci.income AND p.company = ci.company");
  // AlphaTech: 2e6 > 3e5 yes; BlueSky 8e5/5e5 > 1.2e5 yes (x2); Cyclone yes.
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(VentureCapitalDb, OrderByAndLimit) {
  QueryResult r = *RunQuery(
      catalog_, "SELECT company, funding FROM proposal ORDER BY funding DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.ValuesOfRow(0)[0], Value::String("AlphaTech"));
  EXPECT_EQ(r.ValuesOfRow(1)[0], Value::String("Cyclone"));
}

TEST_F(VentureCapitalDb, OrderByAscendingIsDefault) {
  QueryResult r =
      *RunQuery(catalog_, "SELECT funding FROM proposal ORDER BY funding");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.ValuesOfRow(0)[0], Value::Double(5e5));
  EXPECT_EQ(r.ValuesOfRow(3)[0], Value::Double(2e6));
}

TEST_F(VentureCapitalDb, UnionMergesDuplicatesAcrossInputs) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT company FROM proposal WHERE funding < 600000 "
      "UNION SELECT company FROM companyinfo WHERE company = 'BlueSky'");
  ASSERT_EQ(r.rows.size(), 1u);
  // OR(t03, t13) = 0.4 + 0.1 - 0.04 = 0.46.
  EXPECT_NEAR(r.rows[0].confidence, 0.46, 1e-12);
}

TEST_F(VentureCapitalDb, UnionAllKeepsDuplicates) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT company FROM proposal WHERE funding < 600000 "
      "UNION ALL SELECT company FROM companyinfo WHERE company = 'BlueSky'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(VentureCapitalDb, ExceptNegatesSubtrahendLineage) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT company FROM proposal EXCEPT SELECT company FROM companyinfo "
      "WHERE income > 200000");
  // Left distinct: AlphaTech(0.5), BlueSky(0.58), Cyclone(0.7).
  // Right: AlphaTech (0.8). AlphaTech survives with p = 0.5 * (1-0.8) = 0.1.
  ASSERT_EQ(r.rows.size(), 3u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    if (r.ValuesOfRow(i)[0] == Value::String("AlphaTech")) {
      EXPECT_NEAR(r.rows[i].confidence, 0.1, 1e-12);
    }
    if (r.ValuesOfRow(i)[0] == Value::String("Cyclone")) {
      EXPECT_NEAR(r.rows[i].confidence, 0.7, 1e-12);
    }
  }
}

TEST_F(VentureCapitalDb, IntersectConjoinsLineage) {
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT company FROM proposal INTERSECT SELECT company FROM companyinfo");
  ASSERT_EQ(r.rows.size(), 3u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    if (r.ValuesOfRow(i)[0] == Value::String("BlueSky")) {
      EXPECT_NEAR(r.rows[i].confidence, 0.58 * 0.1, 1e-12);
    }
  }
}

TEST_F(VentureCapitalDb, SetOpArityMismatchIsBindError) {
  EXPECT_TRUE(RunQuery(catalog_,
                       "SELECT company FROM proposal UNION SELECT company, income "
                       "FROM companyinfo")
                  .status()
                  .IsBindError());
}

TEST_F(VentureCapitalDb, UnknownTableAndColumnAreBindErrors) {
  EXPECT_TRUE(RunQuery(catalog_, "SELECT * FROM ghost").status().IsBindError());
  EXPECT_TRUE(RunQuery(catalog_, "SELECT ghost FROM proposal").status().IsBindError());
  EXPECT_TRUE(RunQuery(catalog_, "SELECT funding FROM proposal WHERE company")
                  .status()
                  .IsBindError());
}

TEST_F(VentureCapitalDb, AmbiguousColumnIsBindError) {
  EXPECT_TRUE(RunQuery(catalog_,
                       "SELECT company FROM proposal, companyinfo")
                  .status()
                  .IsBindError());
}

TEST_F(VentureCapitalDb, NullJoinKeysNeverMatch) {
  Table* t = *catalog_.CreateTable(
      "WithNull",
      Schema({{"company", DataType::kString, ""}, {"x", DataType::kInt64, ""}}));
  ASSERT_TRUE(t->Insert({Value::Null(), Value::Int(1)}, 0.5).ok());
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT * FROM withnull AS w JOIN withnull AS v ON w.company = v.company");
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(VentureCapitalDb, LimitZeroAndOversized) {
  EXPECT_EQ((*RunQuery(catalog_, "SELECT * FROM proposal LIMIT 0")).rows.size(), 0u);
  EXPECT_EQ((*RunQuery(catalog_, "SELECT * FROM proposal LIMIT 100")).rows.size(), 4u);
}

TEST_F(VentureCapitalDb, PredicatePushdownPlacesFiltersBelowJoins) {
  const std::string sql =
      "SELECT p.company FROM proposal AS p JOIN companyinfo AS ci "
      "ON p.company = ci.company WHERE p.funding < 1000000 AND ci.income > 100000";
  QueryResult r = *RunQuery(catalog_, sql);
  std::string plan_text = PlanText(catalog_, sql);
  // Both single-table conjuncts sit below the join; the equi conjunct stays
  // as the join predicate.
  size_t join_pos = plan_text.find("Join");
  ASSERT_NE(join_pos, std::string::npos);
  size_t funding_filter = plan_text.find("funding < 1000000");
  size_t income_filter = plan_text.find("income > 100000");
  ASSERT_NE(funding_filter, std::string::npos);
  ASSERT_NE(income_filter, std::string::npos);
  EXPECT_GT(funding_filter, join_pos);  // rendered under (after) the join line
  EXPECT_GT(income_filter, join_pos);
  EXPECT_NE(plan_text.find("Join (p.company = ci.company)"), std::string::npos);
  // Semantics unchanged: both BlueSky proposals join the BlueSky info row.
  ASSERT_EQ(r.rows.size(), 2u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.ValuesOfRow(i)[0], Value::String("BlueSky"));
  }
  EXPECT_NEAR(r.rows[0].confidence, 0.3 * 0.1, 1e-12);
  EXPECT_NEAR(r.rows[1].confidence, 0.4 * 0.1, 1e-12);
}

TEST_F(VentureCapitalDb, CrossTableOrPredicateStaysAtJoinLevel) {
  // An OR spanning both tables cannot be pushed below the join.
  const std::string sql =
      "SELECT p.company FROM proposal AS p, companyinfo AS ci "
      "WHERE p.funding < 600000 OR ci.income > 250000";
  QueryResult r = *RunQuery(catalog_, sql);
  // Plan: the disjunction is the join predicate (first bindable level).
  EXPECT_NE(PlanText(catalog_, sql).find("OR"), std::string::npos);
  // Semantics: 4 proposals x 3 infos = 12 pairs; funding<6e5 matches 1
  // proposal (x3 infos), income>2.5e5 matches 1 info (x4 proposals),
  // minus the 1 overlap = 3 + 4 - 1 = 6.
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(VentureCapitalDb, PushdownPreservesAmbiguityErrors) {
  // "company" exists in both tables: must stay a bind error even though it
  // would bind cleanly against either source alone.
  EXPECT_TRUE(RunQuery(catalog_,
                       "SELECT p.company FROM proposal AS p, companyinfo AS ci "
                       "WHERE company = 'BlueSky'")
                  .status()
                  .IsBindError());
}

TEST_F(VentureCapitalDb, InAndBetweenEvaluate) {
  QueryResult in_query = *RunQuery(
      catalog_, "SELECT company FROM proposal WHERE company IN ('BlueSky', 'Cyclone')");
  EXPECT_EQ(in_query.rows.size(), 3u);
  QueryResult between = *RunQuery(
      catalog_,
      "SELECT company FROM proposal WHERE funding BETWEEN 500000 AND 1500000");
  EXPECT_EQ(between.rows.size(), 3u);  // 8e5, 5e5, 1.5e6
  QueryResult not_in = *RunQuery(
      catalog_, "SELECT company FROM proposal WHERE company NOT IN ('BlueSky')");
  EXPECT_EQ(not_in.rows.size(), 2u);
}

TEST_F(VentureCapitalDb, PlanTextRendersTree) {
  const std::string sql = "SELECT company FROM proposal WHERE funding < 1000000";
  ASSERT_TRUE(RunQuery(catalog_, sql).ok());
  std::string plan_text = PlanText(catalog_, sql);
  EXPECT_NE(plan_text.find("Scan Proposal"), std::string::npos);
  EXPECT_NE(plan_text.find("Filter"), std::string::npos);
  EXPECT_NE(plan_text.find("Project"), std::string::npos);
}

TEST_F(VentureCapitalDb, ToTableRendersHeaderAndRows) {
  QueryResult r = *RunQuery(catalog_, "SELECT company FROM proposal LIMIT 1");
  std::string table = r.ToTable();
  EXPECT_NE(table.find("company"), std::string::npos);
  EXPECT_NE(table.find("confidence"), std::string::npos);
  EXPECT_NE(table.find("AlphaTech"), std::string::npos);
}

TEST_F(VentureCapitalDb, SelfJoinDuplicatesLineageVariableOnce) {
  // Self-join of the same tuple: lineage t AND t simplifies to t, so the
  // confidence is p, not p².
  QueryResult r = *RunQuery(
      catalog_,
      "SELECT p.company FROM proposal AS p JOIN proposal AS q "
      "ON p.company = q.company AND p.proposal = q.proposal "
      "WHERE p.company = 'AlphaTech'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_NEAR(r.rows[0].confidence, 0.5, 1e-12);
}

}  // namespace
}  // namespace pcqe
