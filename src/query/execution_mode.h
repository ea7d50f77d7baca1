// Copyright (c) PCQE contributors.
// Which plan interpreter runs a query: the vectorized core that serves, or
// the row-at-a-time oracle it is checked against.

#ifndef PCQE_QUERY_EXECUTION_MODE_H_
#define PCQE_QUERY_EXECUTION_MODE_H_

#include <cstdint>
#include <string>

namespace pcqe {

/// \brief Which plan interpreter executes a query.
///
/// Both engines produce bit-identical results (values, row order, released
/// sets, confidences, solver costs). The vectorized core is the only one
/// that serves; `kRow` is reachable only through `RunQuery`, as the
/// differential oracle the vectorized core is continuously checked against
/// (see tests/vectorized_test.cc).
enum class ExecutionMode : uint8_t {
  kRow = 0,         ///< tuple-at-a-time interpreter (query/executor.h)
  kVectorized = 1,  ///< column-chunk interpreter (query/vec_executor.h)
};

/// Canonical lowercase name ("row" / "vectorized").
inline std::string ExecutionModeToString(ExecutionMode mode) {
  return mode == ExecutionMode::kRow ? "row" : "vectorized";
}

/// \brief Counters the vectorized interpreter reports per query.
///
/// Exposed on `QueryResult` and aggregated into engine telemetry so
/// operators can observe chunk/batch behavior without tracing.
struct VecExecStats {
  /// Column chunks touched by scans.
  uint64_t chunks_scanned = 0;
  /// Base rows produced by scans.
  uint64_t rows_scanned = 0;
  /// Factorized join groups (probe keys with at least one match): lineage
  /// composition work scales with groups, not with group × member rows.
  uint64_t join_groups = 0;
  /// Largest single join group (rows sharing one key), i.e. the widest batch
  /// the factorized representation avoided materializing eagerly.
  uint64_t max_group_rows = 0;
  /// Rows that fell back to tuple-at-a-time expression evaluation inside a
  /// vectorized operator (non-kernelizable predicates/projections).
  uint64_t fallback_rows = 0;
  /// Whole column chunks skipped by β pushdown's zone-map test (their max
  /// confidence could not clear β; vectorized engine only).
  uint64_t pruned_chunks = 0;
  /// Base rows dropped by β pushdown before reaching the operators above
  /// (both engines report this; the row engine fills only this field).
  uint64_t pruned_rows = 0;
};

}  // namespace pcqe

#endif  // PCQE_QUERY_EXECUTION_MODE_H_
