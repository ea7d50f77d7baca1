#include "relational/tuple.h"

#include "common/string_util.h"

namespace pcqe {

std::vector<Value> Tuple::values() const {
  std::vector<Value> out;
  out.reserve(num_values());
  for (size_t c = 0; c < num_values(); ++c) out.push_back(value(c));
  return out;
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(num_values());
  for (size_t c = 0; c < num_values(); ++c) parts.push_back(value(c).ToString());
  return StrFormat("(%s) @ p=%s", JoinStrings(parts, ", ").c_str(),
                   FormatDouble(confidence(), 6).c_str());
}

}  // namespace pcqe
