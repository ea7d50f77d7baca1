// Tests for the data-quality improvement component.

#include "improve/improver.h"

#include <gtest/gtest.h>

#include "improve/lead_time.h"

namespace pcqe {
namespace {

class ImproverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t = *catalog_.CreateTable("t", Schema({{"x", DataType::kInt64, ""}}));
    id_a_ = *t->Insert({Value::Int(1)}, 0.3, *MakeLinearCost(100.0));
    id_b_ = *t->Insert({Value::Int(2)}, 0.4, *MakeLinearCost(100.0), /*max=*/0.8);
  }

  Catalog catalog_;
  BaseTupleId id_a_ = 0, id_b_ = 0;
};

TEST_F(ImproverTest, AppliesAndTotalsCost) {
  QualityImprover improver(&catalog_);
  ASSERT_TRUE(improver.Apply({{id_a_, 0.3, 0.5, 0.0}}).ok());
  EXPECT_DOUBLE_EQ(catalog_.FindTuple(id_a_)->confidence(), 0.5);
  EXPECT_NEAR(improver.total_cost_spent(), 20.0, 1e-9);  // linear a=100
}

TEST_F(ImproverTest, RejectsUnknownTuple) {
  QualityImprover improver(&catalog_);
  EXPECT_TRUE(improver.Apply({{(99ULL << 32), 0.1, 0.5, 0.0}}).IsNotFound());
  EXPECT_DOUBLE_EQ(improver.total_cost_spent(), 0.0);
}

TEST_F(ImproverTest, RejectsNonIncrease) {
  QualityImprover improver(&catalog_);
  EXPECT_TRUE(improver.Apply({{id_a_, 0.3, 0.3, 0.0}}).IsInvalidArgument());
  EXPECT_TRUE(improver.Apply({{id_a_, 0.3, 0.2, 0.0}}).IsInvalidArgument());
}

TEST_F(ImproverTest, RejectsAboveCeiling) {
  QualityImprover improver(&catalog_);
  EXPECT_TRUE(improver.Apply({{id_b_, 0.4, 0.9, 0.0}}).IsInvalidArgument());
  EXPECT_TRUE(improver.Apply({{id_b_, 0.4, 0.8, 0.0}}).ok());
}

TEST_F(ImproverTest, AllOrNothing) {
  QualityImprover improver(&catalog_);
  // Second action invalid: the first must not have been applied.
  Status s = improver.Apply({{id_a_, 0.3, 0.5, 0.0}, {id_b_, 0.4, 0.95, 0.0}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_DOUBLE_EQ(catalog_.FindTuple(id_a_)->confidence(), 0.3);
  EXPECT_DOUBLE_EQ(improver.total_cost_spent(), 0.0);
}

TEST_F(ImproverTest, CostUsesActualStoredState) {
  QualityImprover improver(&catalog_);
  // The committed cost comes from the tuple's own cost function and its
  // confidence at apply time, not from the caller-supplied fields.
  ASSERT_TRUE(improver.Apply({{id_a_, 0.0, 0.4, 12345.0}}).ok());
  EXPECT_DOUBLE_EQ(catalog_.FindTuple(id_a_)->confidence(), 0.4);
  EXPECT_NEAR(improver.total_cost_spent(), 10.0, 1e-9);  // 0.3 -> 0.4 at a=100
}

TEST_F(ImproverTest, SequentialImprovementsAccumulate) {
  QualityImprover improver(&catalog_);
  ASSERT_TRUE(improver.Apply({{id_a_, 0.3, 0.4, 0.0}}).ok());
  ASSERT_TRUE(improver.Apply({{id_a_, 0.4, 0.6, 0.0}}).ok());
  EXPECT_DOUBLE_EQ(catalog_.FindTuple(id_a_)->confidence(), 0.6);
  EXPECT_NEAR(improver.total_cost_spent(), 30.0, 1e-9);
}

TEST(LeadTimeTest, DurationModel) {
  AcquisitionTimeModel m{60.0, 600.0};  // 1 min setup + 10 min per unit
  EXPECT_DOUBLE_EQ(m.Duration(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.Duration(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(m.Duration(0.1), 120.0);
  EXPECT_DOUBLE_EQ(m.Duration(1.0), 660.0);
}

TEST(LeadTimeTest, PerTupleOverrides) {
  LeadTimeEstimator est({10.0, 100.0});
  est.SetModel(7, {1000.0, 0.0});
  EXPECT_DOUBLE_EQ(est.ActionSeconds({1, 0.2, 0.4, 0.0}), 30.0);    // default
  EXPECT_DOUBLE_EQ(est.ActionSeconds({7, 0.2, 0.4, 0.0}), 1000.0);  // override
}

TEST(LeadTimeTest, SequentialIsSum) {
  LeadTimeEstimator est({0.0, 100.0});
  std::vector<IncrementAction> plan = {{1, 0.1, 0.3, 0.0}, {2, 0.2, 0.5, 0.0}};
  EXPECT_NEAR(*est.EstimateSeconds(plan, 1), 20.0 + 30.0, 1e-9);
}

TEST(LeadTimeTest, ParallelUsesLptMakespan) {
  LeadTimeEstimator est({0.0, 100.0});
  // Durations 50, 30, 20, 20: LPT on 2 workers -> {50, 20} vs {30, 20} -> 70.
  std::vector<IncrementAction> plan = {{1, 0.0, 0.5, 0.0},
                                       {2, 0.0, 0.3, 0.0},
                                       {3, 0.0, 0.2, 0.0},
                                       {4, 0.0, 0.2, 0.0}};
  EXPECT_NEAR(*est.EstimateSeconds(plan, 2), 70.0, 1e-9);
  // Enough workers: makespan = longest single action.
  EXPECT_NEAR(*est.EstimateSeconds(plan, 8), 50.0, 1e-9);
}

TEST(LeadTimeTest, ZeroWorkersRejected) {
  LeadTimeEstimator est;
  EXPECT_TRUE(est.EstimateSeconds({}, 0).status().IsInvalidArgument());
}

TEST(LeadTimeTest, EmptyPlanIsInstant) {
  LeadTimeEstimator est({100.0, 100.0});
  EXPECT_DOUBLE_EQ(*est.EstimateSeconds({}, 1), 0.0);
  EXPECT_DOUBLE_EQ(*est.EstimateSeconds({}, 4), 0.0);
}

TEST(LeadTimeTest, ParallelNeverBeatsCriticalPathNorSequential) {
  LeadTimeEstimator est({5.0, 50.0});
  std::vector<IncrementAction> plan;
  for (int i = 0; i < 9; ++i) {
    plan.push_back({static_cast<BaseTupleId>(i), 0.0, 0.1 * (i + 1), 0.0});
  }
  double seq = *est.EstimateSeconds(plan, 1);
  double longest = est.ActionSeconds(plan.back());
  for (size_t w : {2u, 3u, 5u, 16u}) {
    double t = *est.EstimateSeconds(plan, w);
    EXPECT_LE(t, seq + 1e-9);
    EXPECT_GE(t, longest - 1e-9);
  }
}

}  // namespace
}  // namespace pcqe
