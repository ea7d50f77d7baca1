// Unit tests for RBAC and confidence policies.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/string_util.h"
#include "policy/confidence_policy.h"
#include "policy/policy_io.h"
#include "policy/rbac.h"

namespace pcqe {
namespace {

RoleGraph VentureCapitalRoles() {
  RoleGraph g;
  EXPECT_TRUE(g.AddRole("Secretary").ok());
  EXPECT_TRUE(g.AddRole("Manager").ok());
  EXPECT_TRUE(g.AddUser("sam").ok());
  EXPECT_TRUE(g.AddUser("mary").ok());
  EXPECT_TRUE(g.AssignRole("sam", "Secretary").ok());
  EXPECT_TRUE(g.AssignRole("mary", "Manager").ok());
  return g;
}

TEST(RoleGraphTest, AddAndLookup) {
  RoleGraph g;
  EXPECT_TRUE(g.AddRole("A").ok());
  EXPECT_TRUE(g.AddRole("A").IsAlreadyExists());
  EXPECT_TRUE(g.AddRole("").IsInvalidArgument());
  EXPECT_TRUE(g.HasRole("A"));
  EXPECT_FALSE(g.HasRole("B"));
  EXPECT_TRUE(g.AddUser("u").ok());
  EXPECT_TRUE(g.AddUser("u").IsAlreadyExists());
  EXPECT_TRUE(g.HasUser("u"));
}

TEST(RoleGraphTest, AssignRequiresExistingEntities) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("A").ok());
  ASSERT_TRUE(g.AddUser("u").ok());
  EXPECT_TRUE(g.AssignRole("ghost", "A").IsNotFound());
  EXPECT_TRUE(g.AssignRole("u", "Ghost").IsNotFound());
  EXPECT_TRUE(g.AssignRole("u", "A").ok());
  EXPECT_TRUE(g.AssignRole("u", "A").ok());  // idempotent
  EXPECT_EQ((*g.DirectRoles("u")).size(), 1u);
}

TEST(RoleGraphTest, ActiveRolesCloseOverJuniors) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("Employee").ok());
  ASSERT_TRUE(g.AddRole("Manager").ok());
  ASSERT_TRUE(g.AddRole("Director").ok());
  ASSERT_TRUE(g.AddInheritance("Manager", "Employee").ok());
  ASSERT_TRUE(g.AddInheritance("Director", "Manager").ok());
  ASSERT_TRUE(g.AddUser("d").ok());
  ASSERT_TRUE(g.AssignRole("d", "Director").ok());
  std::vector<std::string> roles = *g.ActiveRoles("d");
  EXPECT_EQ(roles, (std::vector<std::string>{"Director", "Employee", "Manager"}));
}

TEST(RoleGraphTest, InheritanceRejectsCycles) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("A").ok());
  ASSERT_TRUE(g.AddRole("B").ok());
  ASSERT_TRUE(g.AddRole("C").ok());
  ASSERT_TRUE(g.AddInheritance("A", "B").ok());
  ASSERT_TRUE(g.AddInheritance("B", "C").ok());
  EXPECT_TRUE(g.AddInheritance("C", "A").IsInvalidArgument());
  EXPECT_TRUE(g.AddInheritance("A", "A").IsInvalidArgument());
  EXPECT_TRUE(g.AddInheritance("A", "Ghost").IsNotFound());
}

TEST(RoleGraphTest, UnknownUserIsNotFound) {
  RoleGraph g;
  EXPECT_TRUE(g.DirectRoles("ghost").status().IsNotFound());
  EXPECT_TRUE(g.ActiveRoles("ghost").status().IsNotFound());
}

TEST(PolicyTest, AddValidates) {
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  EXPECT_TRUE(store.AddPolicy(g, {"Ghost", "analysis", 0.05}).IsNotFound());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "", 0.05}).IsInvalidArgument());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", -0.1}).IsInvalidArgument());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", 1.1}).IsInvalidArgument());
  // A NaN β would match, never bind and release everything.
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", std::nan("")}).IsInvalidArgument());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", 0.3}).ok());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", 0.4}).IsAlreadyExists());
  EXPECT_EQ(store.policies().size(), 1u);
}

TEST(PolicyTest, PaperPoliciesResolvePerRole) {
  // P1 = <Secretary, analysis, 0.05>, P2 = <Manager, investment, 0.06>.
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Secretary", "analysis", 0.05}).ok());
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "investment", 0.06}).ok());

  PolicyDecision sam = *store.Resolve(g, "sam", "analysis");
  EXPECT_DOUBLE_EQ(sam.threshold, 0.05);
  ASSERT_EQ(sam.matched.size(), 1u);
  EXPECT_EQ(sam.matched[0].ToString(), "<Secretary, analysis, 0.05>");
  // The query result p38 = 0.058 passes P1 but fails P2.
  EXPECT_TRUE(sam.Allows(0.058));

  PolicyDecision mary = *store.Resolve(g, "mary", "investment");
  EXPECT_DOUBLE_EQ(mary.threshold, 0.06);
  EXPECT_FALSE(mary.Allows(0.058));
  EXPECT_TRUE(mary.Allows(0.065));
  EXPECT_FALSE(mary.Allows(0.06));  // strictly higher than beta
}

TEST(PolicyTest, NoMatchingPolicyMeansUnrestricted) {
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "investment", 0.06}).ok());
  PolicyDecision d = *store.Resolve(g, "sam", "investment");
  EXPECT_DOUBLE_EQ(d.threshold, 0.0);
  EXPECT_TRUE(d.matched.empty());
  EXPECT_TRUE(d.Allows(0.001));
  EXPECT_FALSE(d.Allows(0.0));  // still strictly greater than 0
}

TEST(PolicyTest, WildcardPurposeApplies) {
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", kAnyPurpose, 0.5}).ok());
  EXPECT_DOUBLE_EQ((*store.Resolve(g, "mary", "anything")).threshold, 0.5);
  EXPECT_DOUBLE_EQ((*store.Resolve(g, "sam", "anything")).threshold, 0.0);
}

TEST(PolicyTest, MostRestrictiveOfMultipleMatchesWins) {
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", kAnyPurpose, 0.3}).ok());
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "investment", 0.06}).ok());
  PolicyDecision d = *store.Resolve(g, "mary", "investment");
  EXPECT_DOUBLE_EQ(d.threshold, 0.3);
  ASSERT_EQ(d.matched.size(), 2u);
  // Sorted most restrictive first.
  EXPECT_DOUBLE_EQ(d.matched[0].threshold, 0.3);
}

TEST(PolicyTest, InheritedRolesCarryPolicies) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("Employee").ok());
  ASSERT_TRUE(g.AddRole("Manager").ok());
  ASSERT_TRUE(g.AddInheritance("Manager", "Employee").ok());
  ASSERT_TRUE(g.AddUser("m").ok());
  ASSERT_TRUE(g.AssignRole("m", "Manager").ok());
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Employee", "reporting", 0.2}).ok());
  // The manager inherits the employee restriction.
  EXPECT_DOUBLE_EQ((*store.Resolve(g, "m", "reporting")).threshold, 0.2);
}

TEST(PolicyTest, ResolveUnknownUserFails) {
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  EXPECT_TRUE(store.Resolve(g, "ghost", "x").status().IsNotFound());
}

TEST(PolicyTest, TableScopedPoliciesApplyOnlyToThatData) {
  // §3.2: the policy is selected by role, purpose *and the data accessed*.
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "investment", 0.06, "proposal"}).ok());
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "investment", 0.3, "payroll"}).ok());

  // Touching proposal only: beta = 0.06.
  PolicyDecision d1 = *store.Resolve(g, "mary", "investment", {"Proposal"});
  EXPECT_DOUBLE_EQ(d1.threshold, 0.06);
  ASSERT_EQ(d1.matched.size(), 1u);
  EXPECT_EQ(d1.matched[0].ToString(), "<Manager, investment, 0.06 @ proposal>");

  // Touching both: the most restrictive applicable policy wins.
  PolicyDecision d2 = *store.Resolve(g, "mary", "investment", {"proposal", "payroll"});
  EXPECT_DOUBLE_EQ(d2.threshold, 0.3);
  EXPECT_EQ(d2.matched.size(), 2u);

  // Touching neither: unrestricted.
  PolicyDecision d3 = *store.Resolve(g, "mary", "investment", {"other"});
  EXPECT_DOUBLE_EQ(d3.threshold, 0.0);

  // Without table context only unscoped policies match.
  PolicyDecision d4 = *store.Resolve(g, "mary", "investment");
  EXPECT_DOUBLE_EQ(d4.threshold, 0.0);
}

TEST(PolicyTest, DuplicateDetectionIsPerTableScope) {
  RoleGraph g = VentureCapitalRoles();
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "x", 0.1}).ok());
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "x", 0.2, "t"}).ok());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", 0.3, "T"}).IsAlreadyExists());
  EXPECT_TRUE(store.AddPolicy(g, {"Manager", "x", 0.3}).IsAlreadyExists());
}

TEST(PolicyIoTest, TableScopedPoliciesRoundTrip) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("R").ok());
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"R", "p", 0.25, "orders"}).ok());
  std::string text = *SerializeAccessConfig(g, store);
  EXPECT_NE(text.find("policy R p 0.25 orders"), std::string::npos);
  RoleGraph g2;
  PolicyStore store2;
  ASSERT_TRUE(ParseAccessConfig(text, &g2, &store2).ok());
  ASSERT_EQ(store2.policies().size(), 1u);
  EXPECT_EQ(store2.policies()[0].table, "orders");
}

TEST(RoleGraphTest, EnumerationAccessors) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("B").ok());
  ASSERT_TRUE(g.AddRole("A").ok());
  ASSERT_TRUE(g.AddInheritance("B", "A").ok());
  ASSERT_TRUE(g.AddUser("u").ok());
  ASSERT_TRUE(g.AssignRole("u", "B").ok());
  EXPECT_EQ(g.Roles(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(g.Users(), (std::vector<std::string>{"u"}));
  auto edges = g.Inheritances();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (std::pair<std::string, std::string>{"B", "A"}));
}

TEST(PolicyIoTest, RoundTripsFullConfiguration) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("Employee").ok());
  ASSERT_TRUE(g.AddRole("Manager").ok());
  ASSERT_TRUE(g.AddInheritance("Manager", "Employee").ok());
  ASSERT_TRUE(g.AddUser("mary").ok());
  ASSERT_TRUE(g.AssignRole("mary", "Manager").ok());
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"Manager", "investment", 0.06}).ok());
  ASSERT_TRUE(store.AddPolicy(g, {"Employee", "*", 0.01}).ok());

  std::string text = *SerializeAccessConfig(g, store);
  RoleGraph g2;
  PolicyStore store2;
  ASSERT_TRUE(ParseAccessConfig(text, &g2, &store2).ok());

  EXPECT_EQ(g2.Roles(), g.Roles());
  EXPECT_EQ(g2.Users(), g.Users());
  EXPECT_EQ(g2.Inheritances(), g.Inheritances());
  ASSERT_EQ(store2.policies().size(), 2u);
  PolicyDecision d = *store2.Resolve(g2, "mary", "investment");
  EXPECT_DOUBLE_EQ(d.threshold, 0.06);
  // The inherited wildcard policy also matched.
  EXPECT_EQ(d.matched.size(), 2u);
}

TEST(PolicyIoTest, CommentsAndBlankLinesIgnored) {
  RoleGraph g;
  PolicyStore store;
  ASSERT_TRUE(ParseAccessConfig("# header\n\nrole A\n  # indented comment\nuser u\n",
                                &g, &store)
                  .ok());
  EXPECT_TRUE(g.HasRole("A"));
  EXPECT_TRUE(g.HasUser("u"));
}

TEST(PolicyIoTest, ParseErrorsCarryLineNumbers) {
  RoleGraph g;
  PolicyStore store;
  Status s = ParseAccessConfig("role A\nbogus directive x\n", &g, &store);
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);

  RoleGraph g2;
  PolicyStore store2;
  // Forward reference: assigning before declaring the user.
  Status s2 = ParseAccessConfig("role A\nassign u A\n", &g2, &store2);
  EXPECT_TRUE(s2.IsNotFound());
  EXPECT_NE(s2.message().find("line 2"), std::string::npos);

  RoleGraph g3;
  PolicyStore store3;
  EXPECT_TRUE(ParseAccessConfig("role A\npolicy A p high\n", &g3, &store3).IsParseError());
  // A β must be a whole number in [0, 1]: 1e-400 underflows (it loaded as a
  // β = 0 policy), and NaN would match, never bind and release everything.
  for (const char* beta : {"0.x5", "1e-400", "nan"}) {
    SCOPED_TRACE(beta);
    RoleGraph roles;
    PolicyStore policies;
    Status parsed =
        ParseAccessConfig(StrCat({"role A\npolicy A p ", beta, "\n"}), &roles, &policies);
    EXPECT_EQ(parsed.code(), beta == std::string("nan") ? StatusCode::kInvalidArgument
                                                        : StatusCode::kParseError)
        << parsed.ToString();
    EXPECT_TRUE(policies.policies().empty());
  }
  RoleGraph g4;
  PolicyStore store4;
  EXPECT_TRUE(
      ParseAccessConfig("role A extra-token\n", &g4, &store4).IsParseError());
}

TEST(PolicyIoTest, WhitespaceNamesRejectedOnSerialize) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("Has Space").ok());
  PolicyStore store;
  EXPECT_TRUE(SerializeAccessConfig(g, store).status().IsInvalidArgument());
}

TEST(PolicyIoTest, FileRoundTrip) {
  RoleGraph g;
  ASSERT_TRUE(g.AddRole("R").ok());
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(g, {"R", "p", 0.42}).ok());
  std::string path = ::testing::TempDir() + "/pcqe_access.conf";
  ASSERT_TRUE(SaveAccessConfig(g, store, path).ok());
  RoleGraph g2;
  PolicyStore store2;
  ASSERT_TRUE(LoadAccessConfig(path, &g2, &store2).ok());
  EXPECT_DOUBLE_EQ(store2.policies()[0].threshold, 0.42);
  EXPECT_TRUE(LoadAccessConfig("/nonexistent/x.conf", &g2, &store2).IsNotFound());
}

}  // namespace
}  // namespace pcqe
