// pcqe-lint-fixture-path: src/common/text_io.cc
// The shared decoder lives under src/common/ and may wrap the C library.

#include <cstdlib>

namespace pcqe {

double Wrapped(const char* text, char** end) { return std::strtod(text, end); }

}  // namespace pcqe
