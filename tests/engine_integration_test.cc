// Integration tests: the full PCQE pipeline on the paper's running example
// (§3.1, Tables 1-3, policies P1/P2) and the multi-query extension.

#include <gtest/gtest.h>

#include "engine/pcqe_engine.h"

namespace pcqe {
namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

/// Full venture-capital setup: data, roles (Secretary, Manager), policies
/// P1 = <Secretary, analysis, 0.05> and P2 = <Manager, investment, 0.06>.
class PcqeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* proposal = *catalog_.CreateTable(
        "Proposal", Schema({{"company", DataType::kString, ""},
                            {"proposal", DataType::kString, ""},
                            {"funding", DataType::kDouble, ""}}));
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("AlphaTech"), Value::String("expansion"),
                              Value::Double(2e6)},
                             0.5)
                    .ok());
    id02_ = *proposal->Insert(
        {Value::String("BlueSky"), Value::String("marketing"), Value::Double(8e5)}, 0.3,
        *MakeLinearCost(1000.0));  // +0.1 costs 100
    id03_ = *proposal->Insert(
        {Value::String("BlueSky"), Value::String("research"), Value::Double(5e5)}, 0.4,
        *MakeLinearCost(100.0));  // +0.1 costs 10
    Table* info = *catalog_.CreateTable(
        "CompanyInfo",
        Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
    ASSERT_TRUE(
        info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8).ok());
    id13_ = *info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1,
                          *MakeLinearCost(10000.0));  // +0.1 costs 1000

    RoleGraph roles;
    ASSERT_TRUE(roles.AddRole("Secretary").ok());
    ASSERT_TRUE(roles.AddRole("Manager").ok());
    ASSERT_TRUE(roles.AddUser("sam").ok());
    ASSERT_TRUE(roles.AddUser("mary").ok());
    ASSERT_TRUE(roles.AssignRole("sam", "Secretary").ok());
    ASSERT_TRUE(roles.AssignRole("mary", "Manager").ok());
    PolicyStore policies;
    ASSERT_TRUE(policies.AddPolicy(roles, {"Secretary", "analysis", 0.05}).ok());
    ASSERT_TRUE(policies.AddPolicy(roles, {"Manager", "investment", 0.06}).ok());
    engine_ = std::make_unique<PcqeEngine>(&catalog_, std::move(roles),
                                           std::move(policies));
  }

  Catalog catalog_;
  std::unique_ptr<PcqeEngine> engine_;
  BaseTupleId id02_ = 0, id03_ = 0, id13_ = 0;
};

TEST_F(PcqeEngineTest, SecretaryUnderP1SeesTheResult) {
  // p38 = 0.058 > 0.05: released, no strategy needed.
  QueryOutcome outcome =
      *engine_->Submit({kCandidateQuery, "sam", "analysis", 1.0});
  EXPECT_DOUBLE_EQ(outcome.policy.threshold, 0.05);
  ASSERT_EQ(outcome.intermediate.rows.size(), 1u);
  EXPECT_EQ(outcome.released.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.released_fraction, 1.0);
  EXPECT_FALSE(outcome.proposal.needed);
  EXPECT_NE(outcome.ReleasedTable().find("BlueSky"), std::string::npos);
}

TEST_F(PcqeEngineTest, ManagerUnderP2IsBlockedWithCheapestProposal) {
  // p38 = 0.058 < 0.06: blocked; the optimal fix raises tuple 03 (cost 10),
  // not tuple 02 (cost 100) — exactly the paper's §3.1 reasoning.
  QueryOutcome outcome =
      *engine_->Submit({kCandidateQuery, "mary", "investment", 1.0});
  EXPECT_DOUBLE_EQ(outcome.policy.threshold, 0.06);
  EXPECT_TRUE(outcome.released.empty());
  EXPECT_DOUBLE_EQ(outcome.released_fraction, 0.0);
  ASSERT_TRUE(outcome.proposal.needed);
  EXPECT_TRUE(outcome.proposal.feasible);
  EXPECT_NEAR(outcome.proposal.total_cost, 10.0, 1e-9);
  ASSERT_EQ(outcome.proposal.actions.size(), 1u);
  EXPECT_EQ(outcome.proposal.actions[0].base_tuple, id03_);
  EXPECT_NEAR(outcome.proposal.actions[0].to, 0.5, 1e-9);
  EXPECT_EQ(outcome.proposal.algorithm, "heuristic");  // 3 tuples -> exact
}

TEST_F(PcqeEngineTest, AcceptProposalThenRequeryReleases) {
  QueryRequest request{kCandidateQuery, "mary", "investment", 1.0};
  QueryOutcome blocked = *engine_->Submit(request);
  ASSERT_TRUE(blocked.proposal.needed);
  ASSERT_TRUE(engine_->AcceptProposal(blocked.proposal).ok());
  // Tuple 03 now holds 0.5 in the database; p38 = 0.065 > 0.06.
  EXPECT_DOUBLE_EQ(catalog_.FindTuple(id03_)->confidence(), 0.5);
  QueryOutcome after = *engine_->Submit(request);
  ASSERT_EQ(after.released.size(), 1u);
  EXPECT_NEAR(after.intermediate.rows[0].confidence, 0.065, 1e-12);
  EXPECT_FALSE(after.proposal.needed);
  EXPECT_NEAR(engine_->improver().total_cost_spent(), 10.0, 1e-9);
}

TEST_F(PcqeEngineTest, RequiredFractionGatesStrategyFinding) {
  // Needing 0% means the block is acceptable: no proposal.
  QueryOutcome outcome =
      *engine_->Submit({kCandidateQuery, "mary", "investment", 0.0});
  EXPECT_TRUE(outcome.released.empty());
  EXPECT_FALSE(outcome.proposal.needed);
}

TEST_F(PcqeEngineTest, UserWithoutPolicySeesEverything) {
  RoleGraph* roles = engine_->roles();
  ASSERT_TRUE(roles->AddUser("root").ok());
  ASSERT_TRUE(roles->AddRole("Admin").ok());
  ASSERT_TRUE(roles->AssignRole("root", "Admin").ok());
  QueryOutcome outcome = *engine_->Submit({kCandidateQuery, "root", "anything", 1.0});
  EXPECT_DOUBLE_EQ(outcome.policy.threshold, 0.0);
  EXPECT_EQ(outcome.released.size(), 1u);
}

TEST_F(PcqeEngineTest, UnknownUserFails) {
  EXPECT_TRUE(
      engine_->Submit({kCandidateQuery, "ghost", "analysis", 1.0}).status().IsNotFound());
}

TEST_F(PcqeEngineTest, BadSqlPropagatesParseError) {
  EXPECT_TRUE(
      engine_->Submit({"SELEC oops", "sam", "analysis", 1.0}).status().IsParseError());
}

TEST_F(PcqeEngineTest, BadFractionRejected) {
  EXPECT_TRUE(engine_->Submit({kCandidateQuery, "sam", "analysis", 1.5})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PcqeEngineTest, ExplicitSolverSelection) {
  for (SolverKind kind : {SolverKind::kHeuristic, SolverKind::kGreedy, SolverKind::kDnc,
                          SolverKind::kBruteForce}) {
    QueryRequest request{kCandidateQuery, "mary", "investment", 1.0, kind};
    QueryOutcome outcome = *engine_->Submit(request);
    ASSERT_TRUE(outcome.proposal.needed);
    EXPECT_TRUE(outcome.proposal.feasible);
    // All solvers find the optimum on this tiny instance.
    EXPECT_NEAR(outcome.proposal.total_cost, 10.0, 1e-9);
  }
}

TEST_F(PcqeEngineTest, EmptyResultNeedsNoStrategy) {
  QueryOutcome outcome = *engine_->Submit(
      {"SELECT * FROM proposal WHERE company = 'Nobody'", "mary", "investment", 1.0});
  EXPECT_TRUE(outcome.intermediate.rows.empty());
  EXPECT_DOUBLE_EQ(outcome.released_fraction, 1.0);
  EXPECT_FALSE(outcome.proposal.needed);
}

TEST_F(PcqeEngineTest, AcceptingEmptyProposalFails) {
  StrategyProposal empty;
  EXPECT_TRUE(engine_->AcceptProposal(empty).IsInvalidArgument());
}

TEST_F(PcqeEngineTest, MultiQueryBatchSharesOneStrategy) {
  // Two investment queries from the manager; both blocked initially. The
  // combined problem must satisfy both with one improvement plan.
  QueryRequest q1{kCandidateQuery, "mary", "investment", 1.0};
  QueryRequest q2{
      "SELECT c.company FROM (SELECT DISTINCT company FROM proposal WHERE funding < "
      "900000) AS c JOIN companyinfo AS ci ON c.company = ci.company",
      "mary", "investment", 1.0};
  std::vector<QueryOutcome> outcomes = *engine_->SubmitBatch({q1, q2});
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].proposal.needed);
  EXPECT_TRUE(outcomes[0].proposal.feasible);
  EXPECT_FALSE(outcomes[1].proposal.needed);  // shared plan rides on the first

  ASSERT_TRUE(engine_->AcceptProposal(outcomes[0].proposal).ok());
  std::vector<QueryOutcome> after = *engine_->SubmitBatch({q1, q2});
  EXPECT_EQ(after[0].released.size(), 1u);
  EXPECT_EQ(after[1].released.size(), 1u);
  EXPECT_FALSE(after[0].proposal.needed);
}

TEST_F(PcqeEngineTest, BatchWithMixedThresholdsRejected) {
  QueryRequest manager{kCandidateQuery, "mary", "investment", 1.0};
  // Secretary's analysis threshold is 0.05; with required_fraction = 1.0 and
  // a row at 0.058 the secretary is satisfied, so only the manager needs
  // improvement -> fine. Force a conflict with a stricter secretary query.
  RoleGraph* roles = engine_->roles();
  PolicyStore* policies = engine_->policies();
  ASSERT_TRUE(policies->AddPolicy(*roles, {"Secretary", "audit", 0.5}).ok());
  QueryRequest secretary{kCandidateQuery, "sam", "audit", 1.0};
  EXPECT_TRUE(
      engine_->SubmitBatch({manager, secretary}).status().IsInvalidArgument());
}

TEST_F(PcqeEngineTest, EmptyBatchRejected) {
  EXPECT_TRUE(engine_->SubmitBatch({}).status().IsInvalidArgument());
}

TEST_F(PcqeEngineTest, MixedThresholdsRejectedOnlyWhenBothNeedImprovement) {
  // Same-user pair at one threshold is fine; adding a second user is fine as
  // long as at most one distinct threshold actually needs improvement. A
  // satisfied secretary query (fraction 0) rides along a blocked manager
  // query without tripping the mixed-threshold guard.
  QueryRequest manager{kCandidateQuery, "mary", "investment", 1.0};
  QueryRequest secretary{kCandidateQuery, "sam", "analysis", 0.0};
  auto outcomes = engine_->SubmitBatch({manager, secretary});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_TRUE((*outcomes)[0].proposal.needed);
  EXPECT_FALSE((*outcomes)[1].proposal.needed);

  // But when both thresholds demand improvement the batch must reject:
  // one confidence increment cannot target two cutoffs soundly.
  RoleGraph* roles = engine_->roles();
  PolicyStore* policies = engine_->policies();
  ASSERT_TRUE(policies->AddPolicy(*roles, {"Secretary", "audit", 0.9}).ok());
  QueryRequest audit{kCandidateQuery, "sam", "audit", 1.0};
  Status mixed = engine_->SubmitBatch({manager, audit}).status();
  EXPECT_TRUE(mixed.IsInvalidArgument()) << mixed.ToString();
  EXPECT_NE(mixed.message().find("threshold"), std::string::npos);
}

TEST_F(PcqeEngineTest, ZeroRowQueryInBatchCountsAsFullyReleased) {
  // A query with an empty result set is vacuously compliant: its
  // released_fraction is 1.0 by convention and it contributes nothing to the
  // shared improvement problem, even when a sibling query is blocked.
  QueryRequest blocked{kCandidateQuery, "mary", "investment", 1.0};
  QueryRequest empty{"SELECT * FROM proposal WHERE company = 'Nobody'", "mary",
                     "investment", 1.0};
  std::vector<QueryOutcome> outcomes = *engine_->SubmitBatch({blocked, empty});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].proposal.needed);
  EXPECT_TRUE(outcomes[1].intermediate.rows.empty());
  EXPECT_DOUBLE_EQ(outcomes[1].released_fraction, 1.0);
  EXPECT_FALSE(outcomes[1].proposal.needed);
}

TEST_F(PcqeEngineTest, SubmitIsCallableThroughConstEngine) {
  // Submission is read-only by contract: a const engine reference suffices.
  // This is what lets QueryService run Submit concurrently from many worker
  // threads while serializing only AcceptProposal.
  const PcqeEngine& engine = *engine_;
  QueryOutcome outcome =
      *engine.Submit({kCandidateQuery, "sam", "analysis", 1.0});
  EXPECT_DOUBLE_EQ(outcome.released_fraction, 1.0);
  EXPECT_EQ(engine.catalog().confidence_version(), 0u);

  std::vector<QueryOutcome> batch = *engine.SubmitBatch(
      {{kCandidateQuery, "sam", "analysis", 1.0},
       {kCandidateQuery, "mary", "investment", 0.0}});
  EXPECT_EQ(batch.size(), 2u);
}

TEST_F(PcqeEngineTest, TableScopedPolicyGatesOnlyMatchingQueries) {
  // A strict policy scoped to CompanyInfo: the Candidate query touches it
  // (via the join), a Proposal-only query does not.
  ASSERT_TRUE(engine_->policies()
                  ->AddPolicy(*engine_->roles(),
                              {"Secretary", "analysis", 0.9, "companyinfo"})
                  .ok());
  QueryOutcome joined = *engine_->Submit({kCandidateQuery, "sam", "analysis", 0.0});
  EXPECT_DOUBLE_EQ(joined.policy.threshold, 0.9);
  EXPECT_TRUE(joined.released.empty());

  QueryOutcome proposal_only = *engine_->Submit(
      {"SELECT company FROM proposal WHERE funding < 1000000", "sam", "analysis", 0.0});
  EXPECT_DOUBLE_EQ(proposal_only.policy.threshold, 0.05);  // P1 only
  EXPECT_EQ(proposal_only.released.size(), 2u);
  EXPECT_EQ(proposal_only.intermediate.tables,
            (std::vector<std::string>{"Proposal"}));
}

TEST_F(PcqeEngineTest, NonMonotoneExceptQueryStillGetsAProposal) {
  // EXCEPT introduces negated lineage; the exact B&B refuses non-monotone
  // problems, so SolverKind::kAuto must route to the greedy-based path and
  // still produce a valid plan.
  //
  // "Companies with a sub-million proposal that are NOT high earners":
  // BlueSky (income 120K < 2e5 threshold is in the subtrahend? income >
  // 200000 excludes AlphaTech only), so BlueSky survives with lineage
  // (t02|t03) AND NOT(...) — here the subtrahend has no BlueSky row, but we
  // force a negation by subtracting low earners from proposal companies.
  const char* except_query =
      "SELECT company FROM proposal WHERE funding < 1000000 "
      "EXCEPT SELECT company FROM companyinfo WHERE income > 1000000";
  QueryOutcome outcome =
      *engine_->Submit({except_query, "mary", "investment", 1.0});
  ASSERT_EQ(outcome.intermediate.rows.size(), 1u);
  // p = 0.58 > 0.06: released without improvement (sanity).
  EXPECT_EQ(outcome.released.size(), 1u);

  // Now a variant whose subtrahend genuinely matches, introducing NOT into
  // the lineage: BlueSky survives with (t02|t03) & t13 & ¬t13 under the
  // independence semantics, confidence 0.58 · 0.1 · 0.9 = 0.0522 < 0.06.
  const char* blocked_query =
      "SELECT ci.company FROM "
      "(SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
      "JOIN companyinfo AS ci ON c.company = ci.company "
      "EXCEPT SELECT company FROM companyinfo WHERE income < 130000";
  QueryOutcome blocked = *engine_->Submit({blocked_query, "mary", "investment", 1.0});
  ASSERT_EQ(blocked.intermediate.rows.size(), 1u);
  EXPECT_NEAR(blocked.intermediate.rows[0].confidence, 0.58 * 0.1 * 0.9, 1e-12);
  EXPECT_TRUE(blocked.released.empty());  // 0.0522 < 0.06
  ASSERT_TRUE(blocked.proposal.needed);
  EXPECT_TRUE(blocked.proposal.feasible);
  // The greedy-family algorithms handled it (no exact B&B on non-monotone).
  EXPECT_NE(blocked.proposal.algorithm, "heuristic");

  ASSERT_TRUE(engine_->AcceptProposal(blocked.proposal).ok());
  QueryOutcome after = *engine_->Submit({blocked_query, "mary", "investment", 1.0});
  EXPECT_EQ(after.released.size(), 1u);
}

TEST_F(PcqeEngineTest, AggregateQueryThroughPolicyPipeline) {
  // COUNT over the low-confidence join: group lineage is the conjunction of
  // member lineages, so the aggregate confidence is low and policy-gated.
  const char* agg_query =
      "SELECT c.company, COUNT(*) AS n FROM "
      "(SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
      "JOIN companyinfo AS ci ON c.company = ci.company GROUP BY c.company";
  QueryOutcome outcome = *engine_->Submit({agg_query, "mary", "investment", 1.0});
  ASSERT_EQ(outcome.intermediate.rows.size(), 1u);
  EXPECT_NEAR(outcome.intermediate.rows[0].confidence, 0.058, 1e-12);
  EXPECT_TRUE(outcome.released.empty());
  ASSERT_TRUE(outcome.proposal.needed);
  ASSERT_TRUE(engine_->AcceptProposal(outcome.proposal).ok());
  QueryOutcome after = *engine_->Submit({agg_query, "mary", "investment", 1.0});
  EXPECT_EQ(after.released.size(), 1u);
}

}  // namespace
}  // namespace pcqe
