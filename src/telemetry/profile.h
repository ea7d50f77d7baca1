// Copyright (c) PCQE contributors.
// Operator-level query profiling (`EXPLAIN ANALYZE`).
//
// An `OperatorProfile` is a pre-order plan tree annotated with per-operator
// execution statistics: rows in/out, column chunks scanned, row-at-a-time
// fallback rows, factors kept deferred vs. materialized, lineage-arena nodes
// interned, and inclusive wall time. Both executors collect into the same
// structure (the row engine simply leaves the chunk/factor columns at zero),
// so an `EXPLAIN ANALYZE` differential across `ExecutionMode`s compares
// per-operator row counts directly.
//
// Collection protocol: the executor wraps its dispatch with an
// `OperatorProfiler`, a TraceBuilder-style parent-stack collector. A null
// profiler (the serving default) costs one pointer test per operator and
// allocates nothing — profiling is strictly pay-for-what-you-use
// (`bench/micro_query` pins the overhead).
//
// This header knows nothing about plans or executors: operators arrive as
// pre-rendered label strings, so the telemetry library stays below the query
// layer in the dependency order.

#ifndef PCQE_TELEMETRY_PROFILE_H_
#define PCQE_TELEMETRY_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pcqe {

/// \brief A profiled plan tree, one node per executed operator in pre-order
/// (a node's children follow it and point back via `parent`).
struct OperatorProfile {
  struct Node {
    std::string label;      ///< operator summary, e.g. `Scan orders`
    int32_t parent = -1;    ///< index of the enclosing operator, -1 for the root
    uint64_t rows_in = 0;   ///< sum of the children's `rows_out` (own rows for leaves)
    uint64_t rows_out = 0;  ///< rows (or factorized row count) this operator produced
    uint64_t chunks = 0;    ///< column chunks this operator itself scanned
    uint64_t fallback_rows = 0;   ///< rows routed through the row-at-a-time fallback
    uint64_t scan_factors = 0;    ///< result factors with deferred lineage (scan or group)
    uint64_t mat_factors = 0;     ///< result factors with materialized lineage
    uint64_t arena_nodes = 0;     ///< lineage nodes interned while this operator ran
    uint64_t pruned_chunks = 0;   ///< chunks skipped whole by β pushdown's zone map
    uint64_t pruned_rows = 0;     ///< base rows dropped by β pushdown
    uint64_t wall_ns = 0;         ///< inclusive wall time (children included)
  };

  std::string mode;  ///< `row` or `vectorized`
  std::vector<Node> nodes;

  /// Annotated plan tree for the shell's `.explain analyze`: one line per
  /// operator with rows, selectivity, chunk/factor/arena counts and time.
  std::string RenderText() const;

  /// One-line JSON: `{"mode":"...","operators":[{...}]}` with labels escaped.
  std::string RenderJson() const;
};

/// \brief Parent-stack collector used by one executor at a time.
///
/// Null-tolerant: every method is a no-op single branch when constructed over
/// a null profile, so the executors call it unconditionally on their hot path.
class OperatorProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Counters accumulated between the matching `Begin` and `End` (inclusive
  /// deltas — executors snapshot their cumulative stats at `Begin`). `End`
  /// attributes them exclusively: it subtracts what the descendants already
  /// recorded, so e.g. chunk counts land on the scans, not on the join above.
  struct Extra {
    uint64_t chunks = 0;
    uint64_t fallback_rows = 0;
    uint64_t scan_factors = 0;
    uint64_t mat_factors = 0;
    uint64_t arena_nodes = 0;
    uint64_t pruned_chunks = 0;
    uint64_t pruned_rows = 0;
  };

  explicit OperatorProfiler(OperatorProfile* profile) : profile_(profile) {}
  OperatorProfiler(const OperatorProfiler&) = delete;
  OperatorProfiler& operator=(const OperatorProfiler&) = delete;

  bool enabled() const { return profile_ != nullptr; }

  /// Opens an operator node as a child of the innermost open one and returns
  /// its index. Returns 0 when disabled (ignored by `End`).
  size_t Begin(std::string label);

  /// Closes the innermost open node (must be `index`), recording its row
  /// count and counters and computing `rows_in` from the children.
  void End(size_t index, uint64_t rows_out, const Extra& extra);

 private:
  OperatorProfile* profile_;
  std::vector<size_t> open_;                  // parent stack of node indices
  std::vector<Clock::time_point> start_;      // parallel to open_
};

}  // namespace pcqe

#endif  // PCQE_TELEMETRY_PROFILE_H_
