// pcqe-lint-fixture-path: tools/row_command.cc
// A tool that runs queries in the row interpreter: the oracle serves again.

#include "query/query_engine.h"

namespace pcqe {

Result<QueryResult> RunRow(const Catalog& catalog, const std::string& sql) {
  return RunQuery(catalog, sql, nullptr, ExecutionMode::kRow);
}

}  // namespace pcqe
