#include "query/plan.h"

#include "common/string_util.h"

namespace pcqe {

std::string PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kUnionAll:
      return "UnionAll";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kExcept:
      return "Except";
    case PlanKind::kIntersect:
      return "Intersect";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kConfidencePrune:
      return "ConfidencePrune";
  }
  return "?";
}

std::string PlanNode::Summary() const {
  std::string line = PlanKindToString(kind);
  switch (kind) {
    case PlanKind::kScan:
      line += StrFormat(" %s", table->name().c_str());
      break;
    case PlanKind::kFilter:
    case PlanKind::kJoin:
      if (predicate) {
        line += ' ';
        line += predicate->ToString();
      }
      break;
    case PlanKind::kProject: {
      std::vector<std::string> parts;
      parts.reserve(projections.size());
      for (const auto& e : projections) parts.push_back(e->ToString());
      line += " [" + JoinStrings(parts, ", ") + "]";
      break;
    }
    case PlanKind::kSort: {
      std::vector<std::string> parts;
      parts.reserve(sort_keys.size());
      for (const auto& k : sort_keys) {
        parts.push_back(k.expr->ToString() + (k.ascending ? " ASC" : " DESC"));
      }
      line += " [" + JoinStrings(parts, ", ") + "]";
      break;
    }
    case PlanKind::kLimit:
      line += StrFormat(" %lld", static_cast<long long>(limit));
      break;
    case PlanKind::kConfidencePrune:
      line += StrFormat(" beta=%s", FormatDouble(prune_beta, 6).c_str());
      break;
    case PlanKind::kAggregate: {
      std::vector<std::string> parts;
      for (const auto& k : group_keys) parts.push_back(k->ToString());
      std::vector<std::string> aggs;
      for (const AggregateSpec& a : aggregates) {
        aggs.push_back(AggFuncToString(a.func) + "(" +
                       (a.arg ? a.arg->ToString() : "*") + ")");
      }
      line += " keys=[" + JoinStrings(parts, ", ") + "] aggs=[" +
              JoinStrings(aggs, ", ") + "]";
      break;
    }
    default:
      break;
  }
  return line;
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + Summary() + " -> " + output_schema.ToString();
  for (const PlanNode* child : {left.get(), right.get()}) {
    if (child == nullptr) continue;
    out += '\n';
    out += child->ToString(indent + 1);
  }
  return out;
}

}  // namespace pcqe
