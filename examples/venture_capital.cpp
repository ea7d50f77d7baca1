// The paper's §3.1 running example as a guided walk-through.
//
// A venture-capital firm keeps Proposal and CompanyInfo relations with
// per-tuple confidence values. The "Candidate" query joins companies asking
// for under one million dollars with their financial information:
//
//   Candidate = (Π_company σ_{Funding<1M}(Proposal)) ⋈ CompanyInfo
//
// Duplicate elimination merges the two BlueSky proposals into one derivation
// with confidence p25 = p02 + p03 − p02·p03 = 0.58, and the join gives the
// final tuple confidence p38 = p25 · p13 = 0.058.
//
// Policy P1 <Secretary, analysis, 0.05> admits the result; policy
// P2 <Manager, investment, 0.06> blocks it. The strategy-finding component
// then compares raising tuple 02 (cost 100 per 0.1) against raising tuple 03
// (cost 10 per 0.1) and proposes the cheap alternative.

#include <cstdio>

#include "engine/pcqe_engine.h"

using namespace pcqe;

namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

void Banner(const char* text) { std::printf("\n--- %s ---\n", text); }

}  // namespace

int main() {
  Banner("Tables 1 and 2: base data with confidence values");
  Catalog catalog;
  Table* proposal = *catalog.CreateTable(
      "Proposal", Schema({{"company", DataType::kString, ""},
                          {"proposal", DataType::kString, ""},
                          {"funding", DataType::kDouble, ""}}));
  // Tuple ids mirror the paper's numbering in spirit: 01..04 in Proposal.
  (void)*proposal->Insert(
      {Value::String("AlphaTech"), Value::String("expansion"), Value::Double(2e6)}, 0.5);
  BaseTupleId id02 = *proposal->Insert(
      {Value::String("BlueSky"), Value::String("marketing"), Value::Double(8e5)}, 0.3,
      *MakeLinearCost(1000.0));  // raising by 0.1 costs 100
  BaseTupleId id03 = *proposal->Insert(
      {Value::String("BlueSky"), Value::String("research"), Value::Double(5e5)}, 0.4,
      *MakeLinearCost(100.0));  // raising by 0.1 costs 10
  (void)*proposal->Insert(
      {Value::String("Cyclone"), Value::String("tooling"), Value::Double(1.5e6)}, 0.7);

  Table* info = *catalog.CreateTable(
      "CompanyInfo",
      Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
  (void)*info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8);
  (void)*info->Insert({Value::String("Cyclone"), Value::Double(1.5e5)}, 0.9);
  BaseTupleId id13 = *info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1,
                                   *MakeLinearCost(10000.0));

  for (size_t row = 0; row < proposal->num_tuples(); ++row) {
    std::printf("Proposal    %s\n", proposal->tuple(row).ToString().c_str());
  }
  for (size_t row = 0; row < info->num_tuples(); ++row) {
    std::printf("CompanyInfo %s\n", info->tuple(row).ToString().c_str());
  }

  Banner("Policies P1 and P2");
  RoleGraph roles;
  (void)roles.AddRole("Secretary");
  (void)roles.AddRole("Manager");
  (void)roles.AddUser("sam");
  (void)roles.AddUser("mary");
  (void)roles.AssignRole("sam", "Secretary");
  (void)roles.AssignRole("mary", "Manager");
  PolicyStore policies;
  (void)policies.AddPolicy(roles, {"Secretary", "analysis", 0.05});
  (void)policies.AddPolicy(roles, {"Manager", "investment", 0.06});
  for (const ConfidencePolicy& p : policies.policies()) {
    std::printf("%s\n", p.ToString().c_str());
  }

  PcqeEngine engine(&catalog, std::move(roles), std::move(policies));

  Banner("The Candidate query and its lineage-computed confidence");
  QueryOutcome sam = *engine.Submit({kCandidateQuery, "sam", "analysis", 1.0});
  std::printf("%s", sam.intermediate.ToTable().c_str());
  std::printf("lineage: %s\n",
              sam.intermediate.arena->ToString(sam.intermediate.rows[0].lineage).c_str());
  std::printf("secretary sam (P1, beta=0.05): released %zu/%zu -> 0.058 > 0.05\n",
              sam.released.size(), sam.intermediate.rows.size());

  Banner("The manager is blocked and gets a costed proposal");
  QueryOutcome mary = *engine.Submit({kCandidateQuery, "mary", "investment", 1.0});
  std::printf("manager mary (P2, beta=0.06): released %zu/%zu -> 0.058 < 0.06\n",
              mary.released.size(), mary.intermediate.rows.size());
  std::printf("alternatives the paper weighs:\n");
  std::printf("  tuple %llu (p=0.3, +0.1 costs 100) -> p38 = 0.064\n",
              static_cast<unsigned long long>(id02));
  std::printf("  tuple %llu (p=0.4, +0.1 costs  10) -> p38 = 0.065  <= cheaper\n",
              static_cast<unsigned long long>(id03));
  std::printf("  tuple %llu (p=0.1, +0.1 costs 1000) -> p38 = 0.116\n",
              static_cast<unsigned long long>(id13));
  std::printf("engine proposal (%s): cost %.1f\n", mary.proposal.algorithm.c_str(),
              mary.proposal.total_cost);
  for (const IncrementAction& a : mary.proposal.actions) {
    std::printf("  raise tuple %llu: %.2f -> %.2f (cost %.1f)\n",
                static_cast<unsigned long long>(a.base_tuple), a.from, a.to, a.cost);
  }

  Banner("Accept, improve data quality, and re-query");
  if (Status s = engine.AcceptProposal(mary.proposal); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  QueryOutcome after = *engine.Submit({kCandidateQuery, "mary", "investment", 1.0});
  std::printf("released %zu row(s):\n%s", after.released.size(),
              after.ReleasedTable().c_str());
  std::printf("accepted %zu change(s), total spend %.1f\n", mary.proposal.actions.size(),
              engine.improver().total_cost_spent());
  return 0;
}
