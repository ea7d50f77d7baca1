// pcqe-lint-fixture-path: src/relational/cell_reader.cc
// A cell decoder of its own: unchecked strtod turns "0.x5" into 0.

#include <cstdlib>
#include <string>

namespace pcqe {

double ReadCell(const std::string& field) {
  return std::strtod(field.c_str(), nullptr);
}

}  // namespace pcqe
