// pcqe-lint-fixture-path: src/relational/cell_reader.cc
// Decodes through the shared parser. Comments and strings may still name
// strtod( and std::stoi(, and std::stop_token is not a number parser.

#include <optional>
#include <stop_token>
#include <string>

#include "common/text_io.h"

namespace pcqe {

std::optional<double> ReadCell(const std::string& field) {
  const char* hint = "strtod(x) is not used here";
  (void)hint;
  return ParseDouble(field);
}

bool Stopped(std::stop_token token) { return token.stop_requested(); }

}  // namespace pcqe
