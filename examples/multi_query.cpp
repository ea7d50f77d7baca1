// Multi-query strategy finding (the §4 extension): several queries issued
// within a short period share one improvement plan.
//
// Two analysts' dashboards hit overlapping base data. Improving a shared
// supplier record once can unblock results of *both* queries, so solving the
// combined problem is cheaper than improving per query. The engine's
// SubmitBatch poses one increment problem whose feasibility constraint is
// per query ("check whether a solution is found for all queries").

#include <cstdio>

#include "engine/pcqe_engine.h"

using namespace pcqe;

int main() {
  Catalog catalog;
  Table* suppliers = *catalog.CreateTable(
      "suppliers", Schema({{"supplier", DataType::kString, ""},
                           {"rating", DataType::kInt64, ""}}));
  Table* shipments = *catalog.CreateTable(
      "shipments", Schema({{"supplier", DataType::kString, ""},
                           {"item", DataType::kString, ""},
                           {"late", DataType::kInt64, ""}}));

  // The shared, low-confidence supplier master data (expensive-ish to fix).
  (void)*suppliers->Insert({Value::String("acme"), Value::Int(4)}, 0.3,
                           *MakeLinearCost(60.0));
  (void)*suppliers->Insert({Value::String("borg"), Value::Int(2)}, 0.35,
                           *MakeLinearCost(60.0));
  // Per-shipment rows, individually cheap but numerous.
  const char* items[] = {"bolts", "nuts", "gears", "belts"};
  for (int i = 0; i < 4; ++i) {
    (void)*shipments->Insert(
        {Value::String("acme"), Value::String(items[i]), Value::Int(i % 2)}, 0.5,
        *MakeLinearCost(25.0));
    (void)*shipments->Insert(
        {Value::String("borg"), Value::String(items[i]), Value::Int((i + 1) % 2)}, 0.5,
        *MakeLinearCost(25.0));
  }

  RoleGraph roles;
  (void)roles.AddRole("Procurement");
  (void)roles.AddUser("pia");
  (void)roles.AssignRole("pia", "Procurement");
  PolicyStore policies;
  (void)policies.AddPolicy(roles, {"Procurement", "vendor_review", 0.3});
  PcqeEngine engine(&catalog, std::move(roles), std::move(policies));

  // Two queries whose lineages share the supplier tuples.
  QueryRequest q1;
  q1.sql =
      "SELECT s.supplier, sh.item FROM suppliers AS s JOIN shipments AS sh "
      "ON s.supplier = sh.supplier WHERE sh.late = 1";
  q1.user = "pia";
  q1.purpose = "vendor_review";
  q1.required_fraction = 0.75;

  QueryRequest q2 = q1;
  q2.sql =
      "SELECT s.supplier, s.rating, sh.item FROM suppliers AS s "
      "JOIN shipments AS sh ON s.supplier = sh.supplier WHERE s.rating < 5";

  std::printf("--- batched submission (shared improvement plan) ---\n");
  std::vector<QueryOutcome> outcomes = *engine.SubmitBatch({q1, q2});
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::printf("query %zu: released %zu of %zu (beta=%.2f)\n", i + 1,
                outcomes[i].released.size(), outcomes[i].intermediate.rows.size(),
                outcomes[i].policy.threshold);
  }

  const StrategyProposal& shared = outcomes[0].proposal;
  if (shared.needed) {
    std::printf("\nshared plan (%s): %zu increments, total cost %.1f\n",
                shared.algorithm.c_str(), shared.actions.size(), shared.total_cost);
    for (const IncrementAction& a : shared.actions) {
      Tuple t = *catalog.FindTuple(a.base_tuple);
      std::printf("  %-28s %.2f -> %.2f (cost %.1f)\n", t.ToString().c_str(), a.from,
                  a.to, a.cost);
    }

    // Compare against improving each query independently: re-solve each
    // query alone (nothing is applied yet) and sum the two plans.
    QueryOutcome alone1 = *engine.Submit(q1);
    QueryOutcome alone2 = *engine.Submit(q2);
    double separate_cost =
        (alone1.proposal.needed ? alone1.proposal.total_cost : 0.0) +
        (alone2.proposal.needed ? alone2.proposal.total_cost : 0.0);
    std::printf("\nsum of per-query plans: %.1f  vs  shared plan: %.1f\n", separate_cost,
                shared.total_cost);
    std::printf("(the shared plan never costs more: fixing a shared supplier row\n");
    std::printf(" counts toward both queries at once)\n");

    if (Status s = engine.AcceptProposal(shared); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\n--- after applying the shared plan ---\n");
    std::vector<QueryOutcome> after = *engine.SubmitBatch({q1, q2});
    for (size_t i = 0; i < after.size(); ++i) {
      std::printf("query %zu: released %zu of %zu\n", i + 1, after[i].released.size(),
                  after[i].intermediate.rows.size());
    }
  }
  return 0;
}
