// pcqe-lint-fixture-path: src/query/query_engine.cc
// The query-evaluation entry point may include the row interpreter and
// dispatch to it: this is where `RunQuery(..., ExecutionMode::kRow)` lands.

#include "query/executor.h"

namespace pcqe {

bool IsOracle(ExecutionMode mode) { return mode == ExecutionMode::kRow; }

}  // namespace pcqe
