// Unit tests for the lineage arena and confidence evaluation.

#include <gtest/gtest.h>

#include "common/random.h"
#include "lineage/evaluate.h"
#include "lineage/lineage.h"
#include "lineage/sensitivity.h"

namespace pcqe {
namespace {

TEST(LineageArenaTest, ConstantsAreInterned) {
  LineageArena a;
  EXPECT_EQ(a.False(), a.False());
  EXPECT_EQ(a.True(), a.True());
  EXPECT_EQ(a.op(a.False()), LineageOp::kFalse);
  EXPECT_EQ(a.op(a.True()), LineageOp::kTrue);
}

TEST(LineageArenaTest, VariablesAreInterned) {
  LineageArena a;
  LineageRef v1 = a.Var(42);
  LineageRef v2 = a.Var(42);
  LineageRef v3 = a.Var(43);
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, v3);
  EXPECT_EQ(a.var(v1), 42u);
}

TEST(LineageArenaTest, AndNormalization) {
  LineageArena a;
  LineageRef x = a.Var(1), y = a.Var(2);
  // Identity / absorbing elements.
  EXPECT_EQ(a.And(x, a.True()), x);
  EXPECT_EQ(a.And(x, a.False()), a.False());
  EXPECT_EQ(a.And(std::vector<LineageRef>{}), a.True());
  // Flattening: (x & y) & x == x & y (dedup + flatten).
  LineageRef xy = a.And(x, y);
  EXPECT_EQ(a.And(xy, x), xy);
  // Single child collapses.
  EXPECT_EQ(a.And(std::vector<LineageRef>{x}), x);
}

TEST(LineageArenaTest, OrNormalization) {
  LineageArena a;
  LineageRef x = a.Var(1), y = a.Var(2);
  EXPECT_EQ(a.Or(x, a.False()), x);
  EXPECT_EQ(a.Or(x, a.True()), a.True());
  EXPECT_EQ(a.Or(std::vector<LineageRef>{}), a.False());
  LineageRef xy = a.Or(x, y);
  EXPECT_EQ(a.Or(xy, y), xy);
}

TEST(LineageArenaTest, NotNormalization) {
  LineageArena a;
  LineageRef x = a.Var(1);
  EXPECT_EQ(a.Not(a.True()), a.False());
  EXPECT_EQ(a.Not(a.False()), a.True());
  EXPECT_EQ(a.Not(a.Not(x)), x);
  EXPECT_EQ(a.op(a.Not(x)), LineageOp::kNot);
}

TEST(LineageArenaTest, VariablesListsDistinctIds) {
  LineageArena a;
  LineageRef f = a.And(a.Or(a.Var(2), a.Var(3)), a.Var(13));
  std::vector<LineageVarId> vars = a.Variables(f);
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_TRUE(a.IsReadOnce(f));
  EXPECT_TRUE(a.SharedVariables(f).empty());
}

TEST(LineageArenaTest, SharedVariablesDetected) {
  LineageArena a;
  // x appears under both AND children.
  LineageRef f = a.And(a.Or(a.Var(1), a.Var(2)), a.Or(a.Var(1), a.Var(3)));
  std::vector<LineageVarId> shared = a.SharedVariables(f);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0], 1u);
  EXPECT_FALSE(a.IsReadOnce(f));
}

TEST(LineageArenaTest, DagSharingCountsAsMultipleOccurrences) {
  LineageArena a;
  LineageRef sub = a.Or(a.Var(1), a.Var(2));
  LineageRef f = a.And(std::vector<LineageRef>{sub, a.Or(std::vector<LineageRef>{sub, a.Var(3)})});
  // sub appears twice as a DAG child; its variables are shared.
  std::vector<LineageVarId> shared = a.SharedVariables(f);
  EXPECT_EQ(shared.size(), 2u);
}

// Variables and SharedVariables visit only the nodes `ref` reaches, yet list
// ids in first-creation order (not child order), through shared subformulas
// and past unrelated nodes interned in between.
TEST(LineageArenaTest, VariablesKeepFirstCreationOrderOnSharedDag) {
  LineageArena a;
  LineageRef v30 = a.Var(30);
  LineageRef v99 = a.Var(99);
  LineageRef unrelated = a.And(v99, a.Var(98));
  LineageRef v10 = a.Var(10);
  LineageRef v20 = a.Var(20);
  LineageRef shared = a.Or(v20, v10);  // child order differs from creation order
  LineageRef left = a.And(shared, v30);
  LineageRef v5 = a.Var(5);
  LineageRef right = a.And(shared, v5);
  LineageRef f = a.Or(left, right);
  EXPECT_EQ(a.Variables(f), (std::vector<LineageVarId>{30, 10, 20, 5}));
  EXPECT_EQ(a.Variables(shared), (std::vector<LineageVarId>{10, 20}));
  EXPECT_EQ(a.Variables(v20), (std::vector<LineageVarId>{20}));
  EXPECT_EQ(a.Variables(unrelated), (std::vector<LineageVarId>{99, 98}));
  EXPECT_EQ(a.SharedVariables(f), (std::vector<LineageVarId>{10, 20}));
  EXPECT_TRUE(a.SharedVariables(left).empty());
  EXPECT_TRUE(a.Variables(a.True()).empty());
}

TEST(LineageArenaTest, ToStringRendersStructure) {
  LineageArena a;
  LineageRef f = a.And(a.Or(a.Var(2), a.Var(3)), a.Var(13));
  EXPECT_EQ(a.ToString(f), "((t2 | t3) & t13)");
  EXPECT_EQ(a.ToString(a.Not(a.Var(1))), "!t1");
  EXPECT_EQ(a.ToString(a.True()), "true");
}

TEST(EvaluateTest, RunningExampleConfidences) {
  // Paper §3.1: p25 = p02 + p03 - p02*p03 = 0.58; p38 = p25 * p13 = 0.058.
  LineageArena a;
  LineageRef p25 = a.Or(a.Var(2), a.Var(3));
  LineageRef p38 = a.And(p25, a.Var(13));
  ConfidenceMap probs;
  probs.Set(2, 0.3);
  probs.Set(3, 0.4);
  probs.Set(13, 0.1);
  EXPECT_NEAR(EvaluateIndependent(a, p25, probs), 0.58, 1e-12);
  EXPECT_NEAR(EvaluateIndependent(a, p38, probs), 0.058, 1e-12);
  // Raising tuple 03 to 0.5 gives p25 = 0.65, p38 = 0.065 (the cheap fix).
  probs.Set(3, 0.5);
  EXPECT_NEAR(EvaluateIndependent(a, p38, probs), 0.065, 1e-12);
  // Raising tuple 02 to 0.4 instead gives 0.064 (the expensive fix).
  probs.Set(3, 0.4);
  probs.Set(2, 0.4);
  EXPECT_NEAR(EvaluateIndependent(a, p38, probs), 0.064, 1e-12);
}

TEST(EvaluateTest, ConstantsAndNot) {
  LineageArena a;
  ConfidenceMap probs;
  probs.Set(1, 0.3);
  EXPECT_DOUBLE_EQ(EvaluateIndependent(a, a.True(), probs), 1.0);
  EXPECT_DOUBLE_EQ(EvaluateIndependent(a, a.False(), probs), 0.0);
  EXPECT_NEAR(EvaluateIndependent(a, a.Not(a.Var(1)), probs), 0.7, 1e-12);
}

TEST(EvaluateTest, ConfidenceMapFallback) {
  ConfidenceMap probs(0.25);
  EXPECT_DOUBLE_EQ(probs.Get(99), 0.25);
  probs.Set(99, 0.5);
  EXPECT_DOUBLE_EQ(probs.Get(99), 0.5);
  EXPECT_EQ(probs.size(), 1u);
}

TEST(EvaluateTest, ExactEqualsIndependentOnReadOnce) {
  LineageArena a;
  LineageRef f = a.And(a.Or(a.Var(1), a.Var(2)), a.Or(a.Var(3), a.Var(4)));
  ConfidenceMap probs;
  probs.Set(1, 0.2);
  probs.Set(2, 0.5);
  probs.Set(3, 0.7);
  probs.Set(4, 0.1);
  double indep = EvaluateIndependent(a, f, probs);
  double exact = *EvaluateExact(a, f, probs);
  EXPECT_NEAR(indep, exact, 1e-12);
}

TEST(EvaluateTest, ExactHandlesSharedVariables) {
  LineageArena a;
  // f = x OR (x AND y): truth-equivalent to x, so P(f) must equal P(x).
  LineageRef x = a.Var(1), y = a.Var(2);
  LineageRef f = a.Or(x, a.And(x, y));
  ConfidenceMap probs;
  probs.Set(1, 0.3);
  probs.Set(2, 0.6);
  EXPECT_NEAR(*EvaluateExact(a, f, probs), 0.3, 1e-12);
  // The independence approximation overestimates here.
  EXPECT_GT(EvaluateIndependent(a, f, probs), 0.3);
}

TEST(EvaluateTest, ExactIdempotentConjunction) {
  LineageArena a;
  // x AND x simplifies at build time to x; exact and independent agree.
  LineageRef f = a.And(a.Var(1), a.Var(1));
  ConfidenceMap probs;
  probs.Set(1, 0.4);
  EXPECT_NEAR(*EvaluateExact(a, f, probs), 0.4, 1e-12);
  EXPECT_NEAR(EvaluateIndependent(a, f, probs), 0.4, 1e-12);
}

TEST(EvaluateTest, ExactContradictionIsZero) {
  LineageArena a;
  // x AND NOT x is unsatisfiable.
  LineageRef f = a.And(a.Var(1), a.Not(a.Var(1)));
  ConfidenceMap probs;
  probs.Set(1, 0.5);
  EXPECT_NEAR(*EvaluateExact(a, f, probs), 0.0, 1e-12);
  // Independent evaluation wrongly reports 0.25 — the documented gap.
  EXPECT_NEAR(EvaluateIndependent(a, f, probs), 0.25, 1e-12);
}

TEST(EvaluateTest, ExactBudgetIsEnforced) {
  LineageArena a;
  // Build a formula with many shared variables.
  std::vector<LineageRef> left, right;
  for (LineageVarId i = 0; i < 25; ++i) {
    left.push_back(a.Var(i));
    right.push_back(a.Var(i));
  }
  LineageRef f = a.And(a.Or(left), a.And(right));
  ConfidenceMap probs(0.5);
  ExactEvalOptions options;
  options.max_shared_variables = 10;
  EXPECT_TRUE(EvaluateExact(a, f, probs, options).status().IsResourceExhausted());
}

TEST(EvaluateTest, CopyFromPreservesSemantics) {
  LineageArena src;
  LineageRef f = src.And(src.Or(src.Var(2), src.Var(3)), src.Not(src.Var(13)));
  LineageArena dst;
  dst.Var(999);  // pre-existing content must not interfere
  LineageRef copy = dst.CopyFrom(src, f);
  ConfidenceMap probs;
  probs.Set(2, 0.3);
  probs.Set(3, 0.4);
  probs.Set(13, 0.1);
  EXPECT_NEAR(EvaluateIndependent(src, f, probs),
              EvaluateIndependent(dst, copy, probs), 1e-12);
  EXPECT_EQ(src.ToString(f), dst.ToString(copy));
}

TEST(SensitivityTest, RunningExampleDerivatives) {
  // p38 = (p02 + p03 − p02·p03) · p13 at (0.3, 0.4, 0.1).
  LineageArena a;
  LineageRef f = a.And(a.Or(a.Var(2), a.Var(3)), a.Var(13));
  ConfidenceMap probs;
  probs.Set(2, 0.3);
  probs.Set(3, 0.4);
  probs.Set(13, 0.1);
  // ∂/∂p02 = (1 − p03)·p13 = 0.06; ∂/∂p03 = (1 − p02)·p13 = 0.07;
  // ∂/∂p13 = p02 + p03 − p02·p03 = 0.58.
  EXPECT_NEAR(Sensitivity(a, f, probs, 2), 0.06, 1e-12);
  EXPECT_NEAR(Sensitivity(a, f, probs, 3), 0.07, 1e-12);
  EXPECT_NEAR(Sensitivity(a, f, probs, 13), 0.58, 1e-12);
}

TEST(SensitivityTest, NegatedVariableHasNegativeSensitivity) {
  LineageArena a;
  LineageRef f = a.And(a.Var(1), a.Not(a.Var(2)));
  ConfidenceMap probs;
  probs.Set(1, 0.5);
  probs.Set(2, 0.3);
  EXPECT_NEAR(Sensitivity(a, f, probs, 1), 0.7, 1e-12);
  EXPECT_NEAR(Sensitivity(a, f, probs, 2), -0.5, 1e-12);
}

TEST(SensitivityTest, RankInfluenceOrdersByPotential) {
  // t13 dominates: sensitivity 0.58 with headroom 0.9 (potential 0.522).
  LineageArena a;
  LineageRef f = a.And(a.Or(a.Var(2), a.Var(3)), a.Var(13));
  ConfidenceMap probs;
  probs.Set(2, 0.3);
  probs.Set(3, 0.4);
  probs.Set(13, 0.1);
  std::vector<InfluenceEntry> ranking = RankInfluence(a, f, probs);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].var, 13u);
  EXPECT_NEAR(ranking[0].potential(), 0.58 * 0.9, 1e-12);
  // top_k truncation.
  EXPECT_EQ(RankInfluence(a, f, probs, 1).size(), 1u);
}

TEST(SensitivityTest, MatchesFiniteDifferenceOnReadOnce) {
  // For read-once formulas P is multilinear: P(p + h) − P(p) = h · ∂P/∂p.
  LineageArena a;
  LineageRef f = a.Or(a.And(a.Var(1), a.Var(2)), a.And(a.Var(3), a.Var(4)));
  ConfidenceMap probs;
  probs.Set(1, 0.2);
  probs.Set(2, 0.7);
  probs.Set(3, 0.4);
  probs.Set(4, 0.5);
  for (LineageVarId v : {1u, 2u, 3u, 4u}) {
    double base = EvaluateIndependent(a, f, probs);
    ConfidenceMap bumped = probs;
    bumped.Set(v, probs.Get(v) + 0.05);
    double delta = EvaluateIndependent(a, f, bumped) - base;
    EXPECT_NEAR(delta / 0.05, Sensitivity(a, f, probs, v), 1e-9);
  }
}

// Property: on random read-once formulas, exact == independent; and Monte
// Carlo sampling agrees with the exact evaluation on shared formulas.
class LineageRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LineageRandomTest, ExactMatchesBruteForceTruthTable) {
  Rng rng(GetParam());
  LineageArena a;
  // Random formula over 6 variables with possible sharing.
  const size_t kVars = 6;
  std::vector<LineageRef> pool;
  for (LineageVarId v = 0; v < kVars; ++v) pool.push_back(a.Var(v));
  for (int step = 0; step < 6; ++step) {
    LineageRef x = pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    LineageRef y = pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    switch (rng.UniformInt(0, 2)) {
      case 0:
        pool.push_back(a.And(x, y));
        break;
      case 1:
        pool.push_back(a.Or(x, y));
        break;
      default:
        pool.push_back(a.Not(x));
    }
  }
  LineageRef f = pool.back();
  ConfidenceMap probs;
  std::vector<double> p(kVars);
  for (LineageVarId v = 0; v < kVars; ++v) {
    p[v] = rng.Uniform(0.05, 0.95);
    probs.Set(v, p[v]);
  }

  // Ground truth: full 2^6 truth-table expectation.
  double truth = 0.0;
  for (size_t mask = 0; mask < (1u << kVars); ++mask) {
    double weight = 1.0;
    ConfidenceMap assignment;
    for (LineageVarId v = 0; v < kVars; ++v) {
      bool on = (mask >> v) & 1;
      weight *= on ? p[v] : 1.0 - p[v];
      assignment.Set(v, on ? 1.0 : 0.0);
    }
    truth += weight * EvaluateIndependent(a, f, assignment);
  }
  EXPECT_NEAR(*EvaluateExact(a, f, probs), truth, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineageRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace pcqe
