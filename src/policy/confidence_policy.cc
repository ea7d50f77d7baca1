#include "policy/confidence_policy.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/string_util.h"

namespace pcqe {

std::string ConfidencePolicy::ToString() const {
  if (table.empty()) {
    return StrFormat("<%s, %s, %s>", role.c_str(), purpose.c_str(),
                     FormatDouble(threshold).c_str());
  }
  return StrFormat("<%s, %s, %s @ %s>", role.c_str(), purpose.c_str(),
                   FormatDouble(threshold).c_str(), table.c_str());
}

bool PolicyDecision::Allows(double p) const {
  // Strictly greater than beta, with epsilon slack so a value computed as
  // beta + 1e-12 by a different evaluation order is not accidentally blocked
  // while true equality stays blocked.
  return p > threshold + kEpsilon;
}

Status PolicyStore::AddPolicy(const RoleGraph& roles, ConfidencePolicy policy) {
  if (!roles.HasRole(policy.role)) {
    return Status::NotFound(StrFormat("policy role '%s' not found", policy.role.c_str()));
  }
  if (policy.purpose.empty()) {
    return Status::InvalidArgument("policy purpose must be non-empty (use \"*\" for any)");
  }
  if (!(0.0 <= policy.threshold && policy.threshold <= 1.0)) {  // NaN too
    return Status::InvalidArgument(
        StrFormat("policy threshold %g outside [0, 1]", policy.threshold));
  }
  for (const ConfidencePolicy& existing : policies_) {
    if (existing.role == policy.role && existing.purpose == policy.purpose &&
        EqualsIgnoreCaseAscii(existing.table, policy.table)) {
      return Status::AlreadyExists(
          StrFormat("policy for (%s, %s, %s) already exists with threshold %g",
                    policy.role.c_str(), policy.purpose.c_str(),
                    policy.table.empty() ? "*" : policy.table.c_str(),
                    existing.threshold));
    }
  }
  policies_.push_back(std::move(policy));
  return Status::OK();
}

Result<PolicyDecision> PolicyStore::Resolve(const RoleGraph& roles,
                                            const std::string& user,
                                            const std::string& purpose,
                                            const std::vector<std::string>& tables) const {
  PCQE_ASSIGN_OR_RETURN(std::vector<std::string> active, roles.ActiveRoles(user));
  PolicyDecision decision;
  for (const ConfidencePolicy& p : policies_) {
    bool role_matches =
        std::find(active.begin(), active.end(), p.role) != active.end();
    bool purpose_matches = p.purpose == kAnyPurpose || p.purpose == purpose;
    bool table_matches = p.table.empty();
    for (const std::string& t : tables) {
      if (table_matches) break;
      table_matches = EqualsIgnoreCaseAscii(p.table, t);
    }
    if (role_matches && purpose_matches && table_matches) {
      decision.matched.push_back(p);
      decision.threshold = std::max(decision.threshold, p.threshold);
    }
  }
  std::sort(decision.matched.begin(), decision.matched.end(),
            [](const ConfidencePolicy& a, const ConfidencePolicy& b) {
              return a.threshold > b.threshold;
            });
  return decision;
}

}  // namespace pcqe
