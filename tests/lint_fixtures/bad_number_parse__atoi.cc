// pcqe-lint-fixture-path: src/storage/lsn_reader.cc
// atoi cannot report a bad field at all.

#include <cstdlib>

namespace pcqe {

long long Lsn(const char* text) { return ::atoll(text); }

}  // namespace pcqe
