// Tables 1-3 and the §3.1 walk-through: the venture-capital running example,
// reproduced end-to-end through the engine.
//
// Prints the Proposal / CompanyInfo tables with confidences (Tables 1-2),
// the Candidate query result with its computed confidence (Table 3's
// tuple 38, p = 0.058), both policies P1/P2, the two increment alternatives
// the paper discusses (tuple 02 at cost 100 vs tuple 03 at cost 10), the
// engine's chosen strategy, and the post-improvement re-query.

#include <cstdio>

#include "bench_common.h"
#include "engine/pcqe_engine.h"

namespace pcqe {
namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

int Run() {
  using namespace bench;
  PrintHeader("Tables 1-3 + §3.1", "the venture-capital running example, end to end");

  Catalog catalog;
  Table* proposal = *catalog.CreateTable(
      "Proposal", Schema({{"company", DataType::kString, ""},
                          {"proposal", DataType::kString, ""},
                          {"funding", DataType::kDouble, ""}}));
  (void)*proposal->Insert(
      {Value::String("AlphaTech"), Value::String("expansion"), Value::Double(2e6)}, 0.5);
  BaseTupleId id02 = *proposal->Insert(
      {Value::String("BlueSky"), Value::String("marketing"), Value::Double(8e5)}, 0.3,
      *MakeLinearCost(1000.0));
  BaseTupleId id03 = *proposal->Insert(
      {Value::String("BlueSky"), Value::String("research"), Value::Double(5e5)}, 0.4,
      *MakeLinearCost(100.0));
  Table* info = *catalog.CreateTable(
      "CompanyInfo",
      Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
  (void)*info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8);
  BaseTupleId id13 = *info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1,
                                   *MakeLinearCost(10000.0));

  std::printf("\nTable 1 (Proposal):\n");
  for (size_t row = 0; row < proposal->num_tuples(); ++row) {
    std::printf("  %s\n", proposal->tuple(row).ToString().c_str());
  }
  std::printf("Table 2 (CompanyInfo):\n");
  for (size_t row = 0; row < info->num_tuples(); ++row) {
    std::printf("  %s\n", info->tuple(row).ToString().c_str());
  }

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
  std::printf("\nPolicies:\n  P1 = %s\n  P2 = %s\n",
              policies.policies()[0].ToString().c_str(),
              policies.policies()[1].ToString().c_str());

  PcqeEngine engine(&catalog, std::move(roles), std::move(policies));

  // Table 3 / tuple 38: the Candidate query with its confidence.
  auto secretary = engine.Submit({kCandidateQuery, "sam", "analysis", 1.0});
  if (!secretary.ok()) {
    std::fprintf(stderr, "%s\n", secretary.status().ToString().c_str());
    return 1;
  }
  std::printf("\nCandidate query (Table 3), intermediate result:\n%s",
              secretary->intermediate.ToTable().c_str());
  std::printf("Secretary under P1 (beta=0.05): %zu of %zu released (0.058 > 0.05)\n",
              secretary->released.size(), secretary->intermediate.rows.size());

  auto manager = engine.Submit({kCandidateQuery, "mary", "investment", 1.0});
  if (!manager.ok()) return 1;
  std::printf("Manager under P2 (beta=0.06): %zu of %zu released (0.058 < 0.06)\n",
              manager->released.size(), manager->intermediate.rows.size());

  // The two alternatives §3.1 weighs.
  Tuple t02 = *catalog.FindTuple(id02);
  Tuple t03 = *catalog.FindTuple(id03);
  (void)id13;
  std::printf("\nIncrement alternatives for the blocked result:\n");
  std::printf("  raise tuple 02: 0.3 -> 0.4 gives p38 = 0.064, cost %s\n",
              FormatCost(t02.cost_function()->Increment(0.3, 0.4)).c_str());
  std::printf("  raise tuple 03: 0.4 -> 0.5 gives p38 = 0.065, cost %s\n",
              FormatCost(t03.cost_function()->Increment(0.4, 0.5)).c_str());

  std::printf("\nStrategy-finding component proposes (%s, %.4fs):\n",
              manager->proposal.algorithm.c_str(), manager->proposal.solve_seconds);
  for (const IncrementAction& a : manager->proposal.actions) {
    std::printf("  tuple %llu: %.2f -> %.2f (cost %s)\n",
                static_cast<unsigned long long>(a.base_tuple), a.from, a.to,
                FormatCost(a.cost).c_str());
  }
  std::printf("  total cost: %s (paper's optimum: 10)\n",
              FormatCost(manager->proposal.total_cost).c_str());

  if (!engine.AcceptProposal(manager->proposal).ok()) return 1;
  auto after = engine.Submit({kCandidateQuery, "mary", "investment", 1.0});
  if (!after.ok()) return 1;
  std::printf("\nAfter improvement, manager re-query releases %zu row(s):\n%s",
              after->released.size(), after->ReleasedTable().c_str());
  return 0;
}

}  // namespace
}  // namespace pcqe

int main() { return pcqe::Run(); }
