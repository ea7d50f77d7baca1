#include "policy/policy_io.h"

#include <cctype>
#include <sstream>

#include "common/string_util.h"
#include "common/text_io.h"

namespace pcqe {

namespace {

bool HasWhitespace(const std::string& s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) return true;
  }
  return s.empty();
}

Status CheckName(const std::string& kind, const std::string& name) {
  if (HasWhitespace(name)) {
    return Status::InvalidArgument(
        StrFormat("%s name '%s' cannot be serialized (empty or contains "
                  "whitespace)",
                  kind.c_str(), name.c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeAccessConfig(const RoleGraph& roles,
                                          const PolicyStore& policies) {
  std::string out = "# pcqe access configuration\n";
  for (const std::string& role : roles.Roles()) {
    PCQE_RETURN_NOT_OK(CheckName("role", role));
    out += "role " + role + "\n";
  }
  for (const auto& [senior, junior] : roles.Inheritances()) {
    out += "inherit " + senior + " " + junior + "\n";
  }
  for (const std::string& user : roles.Users()) {
    PCQE_RETURN_NOT_OK(CheckName("user", user));
    out += "user " + user + "\n";
  }
  for (const std::string& user : roles.Users()) {
    PCQE_ASSIGN_OR_RETURN(std::vector<std::string> direct, roles.DirectRoles(user));
    for (const std::string& role : direct) {
      out += "assign " + user + " " + role + "\n";
    }
  }
  for (const ConfidencePolicy& p : policies.policies()) {
    PCQE_RETURN_NOT_OK(CheckName("purpose", p.purpose));
    out += StrFormat("policy %s %s %.17g", p.role.c_str(), p.purpose.c_str(),
                     p.threshold);
    if (!p.table.empty()) {
      PCQE_RETURN_NOT_OK(CheckName("table", p.table));
      out += " " + p.table;
    }
    out += "\n";
  }
  return out;
}

Status ParseAccessConfig(const std::string& text, RoleGraph* roles,
                         PolicyStore* policies) {
  std::istringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    std::string trimmed(TrimAscii(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream words(trimmed);
    std::string directive;
    words >> directive;
    auto context = [&](Status s) {
      return s.WithContext(StrFormat("access config line %zu", line_no));
    };
    if (directive == "role") {
      std::string name;
      if (!(words >> name)) return context(Status::ParseError("role needs a name"));
      PCQE_RETURN_NOT_OK(context(roles->AddRole(name)));
    } else if (directive == "inherit") {
      std::string senior, junior;
      if (!(words >> senior >> junior)) {
        return context(Status::ParseError("inherit needs <senior> <junior>"));
      }
      PCQE_RETURN_NOT_OK(context(roles->AddInheritance(senior, junior)));
    } else if (directive == "user") {
      std::string name;
      if (!(words >> name)) return context(Status::ParseError("user needs a name"));
      PCQE_RETURN_NOT_OK(context(roles->AddUser(name)));
    } else if (directive == "assign") {
      std::string user, role;
      if (!(words >> user >> role)) {
        return context(Status::ParseError("assign needs <user> <role>"));
      }
      PCQE_RETURN_NOT_OK(context(roles->AssignRole(user, role)));
    } else if (directive == "policy") {
      std::string role, purpose, beta_text;
      if (!(words >> role >> purpose >> beta_text)) {
        return context(
            Status::ParseError("policy needs <role> <purpose> <beta> [table]"));
      }
      std::optional<double> beta = ParseDouble(beta_text);
      if (!beta) {
        return context(
            Status::ParseError(StrFormat("beta '%s' is not numeric", beta_text.c_str())));
      }
      std::string table;
      words >> table;  // optional scope
      PCQE_RETURN_NOT_OK(
          context(policies->AddPolicy(*roles, {role, purpose, *beta, table})));
    } else {
      return context(
          Status::ParseError(StrFormat("unknown directive '%s'", directive.c_str())));
    }
    // Trailing junk on the line is a config mistake worth surfacing.
    std::string extra;
    if (words >> extra) {
      return context(
          Status::ParseError(StrFormat("unexpected trailing token '%s'", extra.c_str())));
    }
  }
  return Status::OK();
}

Status SaveAccessConfig(const RoleGraph& roles, const PolicyStore& policies,
                        const std::string& path) {
  PCQE_ASSIGN_OR_RETURN(std::string text, SerializeAccessConfig(roles, policies));
  return WriteFile(path, text);
}

Status LoadAccessConfig(const std::string& path, RoleGraph* roles,
                        PolicyStore* policies) {
  PCQE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseAccessConfig(text, roles, policies);
}

}  // namespace pcqe
