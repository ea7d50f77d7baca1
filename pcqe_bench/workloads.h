// Copyright (c) PCQE contributors.
// The benchmark's three workloads and the pieces they share: subjects and
// their policies, the single-thread layer replay of `QueryService::Execute`,
// and the layer metrics derived from counters and from the replay.

#ifndef PCQE_BENCH_WORKLOADS_H_
#define PCQE_BENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/pcqe_engine.h"
#include "service/result_cache.h"

namespace pcqe::bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of each measured service pass.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory inside the checkout for durable storage; removed
  /// after the run.
  std::string work_dir;
  /// Directory the traced run writes its span files to.
  std::string trace_dir;
  /// improve_accept: the recorded `plan_cost` of this seed, when known.
  std::optional<double> expected_plan_cost;
};

/// Set-up is repeated this many times per run and its median reported, so
/// work moved into set-up shows without one slow repetition deciding it.
inline constexpr int kSetupRepeats = 5;

Report RunColdMix(const RunConfig& config);
Report RunWarmSessions(const RunConfig& config);
Report RunImproveAccept(const RunConfig& config);

/// One querying subject: a user holding one role whose policy sets β.
struct Subject {
  std::string user;
  std::string role;
  std::string purpose;
  double beta = 0.0;
};

/// An engine over `catalog` with one role, user and ⟨role, purpose, β⟩
/// policy per subject.
std::unique_ptr<PcqeEngine> MakeEngine(Catalog* catalog,
                                       const std::vector<Subject>& subjects);

/// Current value of a registry counter (0 when never registered).
uint64_t CounterValue(TelemetryRegistry* registry, const char* name);

/// Spans and counts of the single-thread layer replay.
struct ReplayStats {
  SpanLog spans{true};
  std::vector<double> parse_us;
  std::vector<double> plan_us;
  /// Arena nodes of each evaluation after `MaterializeLineage`.
  std::vector<double> arena_nodes;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  /// Per request: the summed duration of its layer spans.
  std::vector<double> layer_us;
};

/// Runs one request through the public functions `QueryService::Execute`
/// calls, in its order — NormalizeSql, ResolvePushdownBeta, cache Lookup,
/// and on a miss Evaluate, MaterializeLineage and Insert, then Complete —
/// recording one span per call. `ParseSelect` and `PlanQuery` are timed on
/// the same text beside them. The caller holds the catalog lock.
Result<QueryOutcome> ReplayRequest(const PcqeEngine& engine, ConfidenceResultCache* cache,
                                   const QueryRequest& request, uint64_t id,
                                   ReplayStats* stats);

double Ratio(double num, double den);

/// Registry counters read around a measured window.
struct Counters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fallback_rows = 0;
  uint64_t chunks = 0;
  uint64_t chunks_pruned = 0;
  uint64_t released = 0;
  uint64_t blocked = 0;

  static Counters Read(TelemetryRegistry* registry);
  /// The counts between `before` and `after`.
  static Counters Window(const Counters& before, const Counters& after);

  double HitRatio() const;
};

/// Appends the counter-derived layer metrics of a window (cache hit ratio,
/// fallback rows per miss, chunks pruned, released ratio).
void AddCounterLayers(const Counters& window, std::vector<Metric>* layers);

/// Appends the replay-derived layer metrics (cache lookup/insert, resolve,
/// evaluate, complete, parse, plan, lineage, rows scanned per row returned).
void AddReplayLayers(const ReplayStats& replay, std::vector<Metric>* layers);

}  // namespace pcqe::bench

#endif  // PCQE_BENCH_WORKLOADS_H_
