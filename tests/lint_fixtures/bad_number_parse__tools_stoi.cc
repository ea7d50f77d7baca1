// pcqe-lint-fixture-path: tools/worker_flag.cc
// A shell argument parsed with std::stoi: it throws on "abc" and reads "5s"
// as 5.

#include <string>

namespace pcqe {

int Workers(const std::string& arg) { return std::stoi(arg); }

}  // namespace pcqe
