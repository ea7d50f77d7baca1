// pcqe-lint-fixture-path: src/service/reference_path.cc
// Serving code that includes the row interpreter: the oracle leaks back into
// a serving path.

#include "query/executor.h"

namespace pcqe {

size_t CountRows(const PlanNode& plan, LineageArena* arena) {
  Executor executor(arena);
  return executor.Run(plan)->size();
}

}  // namespace pcqe
