// Healthcare scenario from the paper's introduction (after Malin et al.):
// cancer-registry and administrative data are cheap, patient/physician
// survey data cost more, and medical-record abstraction is the most
// expensive but most accurate source.
//
// Two tasks over the same data need different confidence levels:
//  - hypothesis generation ("identifying areas for further research")
//    tolerates medium confidence;
//  - treatment-effectiveness evaluation requires high confidence.
//
// This example builds a small oncology database from the three source
// tiers, declares per-purpose policies, and shows the researcher passing
// where the clinician is blocked — plus the cheapest acquisition plan that
// unblocks the clinician (which favors upgrading registry/survey records
// over pulling full medical records when possible).

#include <cstdio>

#include "engine/pcqe_engine.h"

using namespace pcqe;

namespace {

struct SourceTier {
  const char* name;
  double confidence;        // typical trust of the source
  CostFunctionPtr cost;     // price of further verification
};

void Banner(const char* text) { std::printf("\n=== %s ===\n", text); }

}  // namespace

int main() {
  // Acquisition economics per source tier: registry upgrades are cheap,
  // surveys moderate, medical-record abstraction steeply expensive.
  SourceTier registry{"registry", 0.45, *MakeLinearCost(40.0)};
  SourceTier survey{"survey", 0.55, *MakeLinearCost(120.0)};
  SourceTier records{"medical_records", 0.85, *MakeExponentialCost(80.0, 3.0)};

  Catalog catalog;
  Table* treatments = *catalog.CreateTable(
      "treatments", Schema({{"patient", DataType::kInt64, ""},
                            {"regimen", DataType::kString, ""},
                            {"source", DataType::kString, ""}}));
  Table* outcomes = *catalog.CreateTable(
      "outcomes", Schema({{"patient", DataType::kInt64, ""},
                          {"response", DataType::kString, ""},
                          {"source", DataType::kString, ""}}));

  // Twelve patients; treatment rows and outcome rows drawn from mixed
  // sources. (In a real deployment confidences come from a provenance-based
  // assignment component; here they are the tier defaults.)
  const SourceTier* tiers[] = {&registry, &survey, &records};
  for (int64_t patient = 0; patient < 12; ++patient) {
    const SourceTier& t_tier = *tiers[patient % 3];
    const SourceTier& o_tier = *tiers[(patient + 1) % 3];
    (void)*treatments->Insert(
        {Value::Int(patient), Value::String(patient % 2 ? "chemo-A" : "chemo-B"),
         Value::String(t_tier.name)},
        t_tier.confidence, t_tier.cost);
    (void)*outcomes->Insert(
        {Value::Int(patient), Value::String(patient % 4 ? "responded" : "progressed"),
         Value::String(o_tier.name)},
        o_tier.confidence, o_tier.cost);
  }

  RoleGraph roles;
  (void)roles.AddRole("Researcher");
  (void)roles.AddRole("Oncologist");
  (void)roles.AddUser("rhea");
  (void)roles.AddUser("omar");
  (void)roles.AssignRole("rhea", "Researcher");
  (void)roles.AssignRole("omar", "Oncologist");
  PolicyStore policies;
  // Hypothesis generation tolerates medium confidence...
  (void)policies.AddPolicy(roles, {"Researcher", "hypothesis_generation", 0.2});
  // ...treatment evaluation needs to be sure of the joined evidence.
  (void)policies.AddPolicy(roles, {"Oncologist", "treatment_evaluation", 0.45});

  PcqeEngine engine(&catalog, std::move(roles), std::move(policies));

  const char* kEvidenceQuery =
      "SELECT t.patient, t.regimen, o.response "
      "FROM treatments AS t JOIN outcomes AS o ON t.patient = o.patient";

  Banner("Researcher: hypothesis generation (beta = 0.2)");
  QueryOutcome research =
      *engine.Submit({kEvidenceQuery, "rhea", "hypothesis_generation", 0.8});
  std::printf("released %zu of %zu treatment-outcome pairs\n", research.released.size(),
              research.intermediate.rows.size());
  std::printf("%s", research.ReleasedTable(6).c_str());
  if (!research.proposal.needed) {
    std::printf("=> medium-confidence data suffices; no acquisition needed\n");
  }

  Banner("Oncologist: treatment evaluation (beta = 0.45)");
  QueryOutcome clinical =
      *engine.Submit({kEvidenceQuery, "omar", "treatment_evaluation", 0.75});
  std::printf("released %zu of %zu pairs; needs 75%%\n", clinical.released.size(),
              clinical.intermediate.rows.size());
  if (clinical.proposal.needed) {
    std::printf("acquisition plan (%s): %zu upgrades, total cost %.1f\n",
                clinical.proposal.algorithm.c_str(), clinical.proposal.actions.size(),
                clinical.proposal.total_cost);
    // Which tiers does the optimizer choose to upgrade?
    double registry_spend = 0, survey_spend = 0, records_spend = 0;
    for (const IncrementAction& a : clinical.proposal.actions) {
      Tuple t = *catalog.FindTuple(a.base_tuple);
      std::string source = *t.value(t.num_values() - 1).AsString();
      if (source == "registry") registry_spend += a.cost;
      if (source == "survey") survey_spend += a.cost;
      if (source == "medical_records") records_spend += a.cost;
    }
    std::printf("  spend by source: registry %.1f, survey %.1f, medical records %.1f\n",
                registry_spend, survey_spend, records_spend);
    std::printf("  (cheap tiers absorb the spend; record abstraction is a last resort)\n");

    if (Status s = engine.AcceptProposal(clinical.proposal); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    QueryOutcome after =
        *engine.Submit({kEvidenceQuery, "omar", "treatment_evaluation", 0.75});
    std::printf("after acquisition: released %zu of %zu pairs\n", after.released.size(),
                after.intermediate.rows.size());
  }
  return 0;
}
