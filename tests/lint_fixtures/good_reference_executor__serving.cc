// pcqe-lint-fixture-path: tools/serve_command.cc
// Serving code names the vectorized interpreter or none at all; a comment
// may still mention ExecutionMode::kRow.

#include "query/query_engine.h"

namespace pcqe {

Result<QueryResult> RunServed(const Catalog& catalog, const std::string& sql) {
  return RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
}

}  // namespace pcqe
