// Confidence assignment from provenance + lead-time estimation.
//
// The paper assumes confidences exist (element 1 of its framework, citing
// Dai et al. 2008 for how to compute them) and leaves "how much time in
// advance must I query?" as future work. This example exercises both
// substrates:
//
//  1. Three market-data vendors report revenue figures for two companies;
//     one vendor disagrees wildly. The provenance trust model corroborates
//     the agreeing reports, erodes the outlier, and writes the resulting
//     confidences into the stored tuples.
//  2. An analyst's query is then policy-filtered; the engine proposes the
//     cheapest verification plan, and the lead-time estimator reports how
//     far in advance the query must be issued for one auditor vs a team.

#include <cstdio>

#include "assign/assigner.h"
#include "engine/pcqe_engine.h"
#include "improve/lead_time.h"

using namespace pcqe;

int main() {
  // --- The raw reports, stored with placeholder confidence 0. ------------
  Catalog catalog;
  Table* revenue = *catalog.CreateTable(
      "revenue", Schema({{"company", DataType::kString, ""},
                         {"vendor", DataType::kString, ""},
                         {"figure", DataType::kDouble, ""}}));

  struct Report {
    const char* company;
    const char* vendor;
    double figure;
  };
  const Report reports[] = {
      {"BlueSky", "alpha_data", 12.1}, {"BlueSky", "beta_feeds", 12.3},
      {"BlueSky", "gamma_wire", 29.0},  // the outlier
      {"Cyclone", "alpha_data", 7.5},  {"Cyclone", "beta_feeds", 7.4},
      {"Cyclone", "gamma_wire", 7.6},
  };

  // --- Provenance graph: vendors as sources, one relay hub. ---------------
  ProvenanceGraph graph;
  AgentId alpha = *graph.AddAgent({"alpha_data", 0.7, true});
  AgentId beta = *graph.AddAgent({"beta_feeds", 0.7, true});
  AgentId gamma = *graph.AddAgent({"gamma_wire", 0.7, true});
  AgentId hub = *graph.AddAgent({"aggregation_hub", 0.95, false});

  std::vector<TupleProvenance> mapping;
  for (const Report& r : reports) {
    BaseTupleId tuple = *revenue->Insert(
        {Value::String(r.company), Value::String(r.vendor), Value::Double(r.figure)},
        /*confidence=*/0.0, *MakeLinearCost(200.0));
    AgentId source = std::string(r.vendor) == "alpha_data"  ? alpha
                     : std::string(r.vendor) == "beta_feeds" ? beta
                                                             : gamma;
    ItemId item = *graph.AddItem({r.company, r.figure, source, {hub}});
    mapping.push_back({tuple, item});
  }

  // --- 1. Assign confidences from provenance. -----------------------------
  TrustModelOptions trust_options;
  trust_options.similarity_sigma = 2.0;  // figures within ~2 corroborate
  AssignmentReport assignment =
      *AssignConfidences(&catalog, graph, mapping, trust_options);
  std::printf("trust fixpoint converged after %zu iteration(s)\n",
              assignment.trust.iterations);
  std::printf("revised vendor trust: alpha=%.3f beta=%.3f gamma=%.3f\n",
              assignment.trust.agent_trust[alpha], assignment.trust.agent_trust[beta],
              assignment.trust.agent_trust[gamma]);
  for (size_t row = 0; row < revenue->num_tuples(); ++row) {
    std::printf("  %s\n", revenue->tuple(row).ToString().c_str());
  }
  std::printf("(the gamma_wire BlueSky outlier ends well below its peers)\n\n");

  // --- 2. Policy-compliant query + lead time. ------------------------------
  RoleGraph roles;
  (void)roles.AddRole("Analyst");
  (void)roles.AddUser("ana");
  (void)roles.AssignRole("ana", "Analyst");
  PolicyStore policies;
  (void)policies.AddPolicy(roles, {"Analyst", "valuation", 0.75});
  PcqeEngine engine(&catalog, std::move(roles), std::move(policies));

  QueryRequest request{"SELECT company, vendor, figure FROM revenue", "ana",
                       "valuation", 1.0};
  QueryOutcome outcome = *engine.Submit(request);
  std::printf("valuation query: %zu of %zu reports clear beta=0.75\n",
              outcome.released.size(), outcome.intermediate.rows.size());

  if (outcome.proposal.needed) {
    std::printf("verification plan (%s): %zu actions, cost %.1f\n",
                outcome.proposal.algorithm.c_str(), outcome.proposal.actions.size(),
                outcome.proposal.total_cost);

    // Each verification takes half a day of setup plus two days per unit
    // of confidence bought.
    LeadTimeEstimator estimator({/*fixed=*/0.5 * 86400, /*per unit=*/2.0 * 86400});
    double solo = *estimator.EstimateSeconds(outcome.proposal.actions, 1);
    double team = *estimator.EstimateSeconds(outcome.proposal.actions, 3);
    std::printf("lead time: %.1f days with one auditor, %.1f days with three\n",
                solo / 86400.0, team / 86400.0);
    std::printf("=> issue this query at least that far ahead of the decision\n");
  }
  return 0;
}
