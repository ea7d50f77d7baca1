#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "query/parser.h"
#include "query/planner.h"
#include "workloads.h"

namespace pcqe::bench {

std::unique_ptr<PcqeEngine> MakeEngine(Catalog* catalog,
                                       const std::vector<Subject>& subjects) {
  RoleGraph roles;
  PolicyStore policies;
  for (const Subject& s : subjects) {
    PCQE_CHECK(roles.AddRole(s.role).ok());
    PCQE_CHECK(roles.AddUser(s.user).ok());
    PCQE_CHECK(roles.AssignRole(s.user, s.role).ok());
    PCQE_CHECK(policies.AddPolicy(roles, {s.role, s.purpose, s.beta}).ok());
  }
  return std::make_unique<PcqeEngine>(catalog, std::move(roles), std::move(policies));
}

uint64_t CounterValue(TelemetryRegistry* registry, const char* name) {
  return registry->GetCounter(name)->value();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

Counters Counters::Read(TelemetryRegistry* registry) {
  Counters c;
  c.hits = CounterValue(registry, "pcqe_cache_hits_total");
  c.misses = CounterValue(registry, "pcqe_cache_misses_total");
  c.fallback_rows = CounterValue(registry, "pcqe_engine_vec_fallback_rows_total");
  c.chunks = CounterValue(registry, "pcqe_engine_vec_chunks_total");
  c.chunks_pruned = CounterValue(registry, "pcqe_engine_pushdown_chunks_pruned_total");
  c.released = CounterValue(registry, "pcqe_engine_rows_released_total");
  c.blocked = CounterValue(registry, "pcqe_engine_rows_blocked_total");
  return c;
}

Counters Counters::Window(const Counters& before, const Counters& after) {
  Counters w;
  w.hits = after.hits - before.hits;
  w.misses = after.misses - before.misses;
  w.fallback_rows = after.fallback_rows - before.fallback_rows;
  w.chunks = after.chunks - before.chunks;
  w.chunks_pruned = after.chunks_pruned - before.chunks_pruned;
  w.released = after.released - before.released;
  w.blocked = after.blocked - before.blocked;
  return w;
}

double Counters::HitRatio() const {
  return Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

void AddCounterLayers(const Counters& w, std::vector<Metric>* layers) {
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  layers->insert(
      layers->end(),
      {{"service.cache.hit_ratio", w.HitRatio(), "ratio"},
       {"query.fallback_rows_per_miss", Ratio(d(w.fallback_rows), d(w.misses)), "count"},
       {"query.chunks_pruned_ratio", Ratio(d(w.chunks_pruned), d(w.chunks)), "ratio"},
       {"policy.released_ratio", Ratio(d(w.released), d(w.released + w.blocked)), "ratio"}});
}

Result<QueryOutcome> ReplayRequest(const PcqeEngine& engine, ConfidenceResultCache* cache,
                                   const QueryRequest& request, uint64_t id,
                                   ReplayStats* stats) {
  SpanLog& log = stats->spans;
  int32_t root = log.Open(id, -1, "replay-request");
  double layer_s = 0.0;
  auto timed = [&](const char* name, auto&& call) {
    int32_t span = log.Open(id, root, name);
    call();
    layer_s += log.Close(span);
  };

  uint64_t version = engine.catalog().confidence_version();
  std::string key;
  timed("normalize", [&] { key = NormalizeSql(request.sql); });
  std::optional<double> push_beta;
  timed("resolve-pushdown", [&] { push_beta = engine.ResolvePushdownBeta(request); });
  // The same key fork `QueryService::Execute` applies.
  if (push_beta.has_value()) key += StrFormat("|pd=%.17g", *push_beta);
  std::shared_ptr<const QueryResult> evaluated;
  timed("cache-lookup", [&] { evaluated = cache->Lookup(key, version); });
  if (evaluated == nullptr) {
    Result<QueryResult> fresh = Status::Internal("not evaluated");
    timed("evaluate",
          [&] { fresh = engine.Evaluate(request.sql, nullptr, nullptr, push_beta); });
    if (!fresh.ok()) {
      log.Close(root);
      return fresh.status();
    }
    stats->rows_scanned += fresh->vec_stats.rows_scanned;
    stats->rows_returned += fresh->rows.size();
    timed("materialize-lineage", [&] { fresh->MaterializeLineage(); });
    stats->arena_nodes.push_back(
        fresh->arena != nullptr ? static_cast<double>(fresh->arena->size()) : 0.0);
    timed("cache-insert",
          [&] { evaluated = cache->Insert(key, version, std::move(*fresh)); });
  }
  Result<QueryOutcome> outcome = Status::Internal("not completed");
  timed("complete", [&] { outcome = engine.Complete(request, *evaluated); });
  log.Close(root);
  stats->layer_us.push_back(layer_s * 1e6);

  Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<SelectStatement>> stmt = ParseSelect(request.sql);
  Clock::time_point t1 = Clock::now();
  stats->parse_us.push_back(SecondsBetween(t0, t1) * 1e6);
  if (stmt.ok()) {
    Result<std::unique_ptr<PlanNode>> plan = PlanQuery(engine.catalog(), **stmt);
    stats->plan_us.push_back(SecondsSince(t1) * 1e6);
    if (!plan.ok()) return plan.status();
  }
  return outcome;
}

void AddReplayLayers(const ReplayStats& replay, std::vector<Metric>* layers) {
  const SpanLog& log = replay.spans;
  std::vector<double> evaluate_us = log.DurationsUs("evaluate");
  layers->insert(
      layers->end(),
      {{"service.cache.lookup_us.p50", Median(log.DurationsUs("cache-lookup")), "us"},
       {"service.cache.insert_us.p50", Median(log.DurationsUs("cache-insert")), "us"},
       {"engine.resolve_pushdown_us.p50", Median(log.DurationsUs("resolve-pushdown")), "us"},
       {"engine.evaluate_ms.p50", Percentile(evaluate_us, 0.5) / 1e3, "ms"},
       {"engine.evaluate_ms.p99", Percentile(evaluate_us, 0.99) / 1e3, "ms"},
       {"engine.complete_ms.p50", Median(log.DurationsUs("complete")) / 1e3, "ms"},
       {"query.parse_us.p50", Median(replay.parse_us), "us"},
       {"query.plan_us.p50", Median(replay.plan_us), "us"},
       {"query.rows_scanned_per_row_returned",
        Ratio(static_cast<double>(replay.rows_scanned), static_cast<double>(replay.rows_returned)),
        "ratio"},
       {"lineage.materialize_ms.p50", Median(log.DurationsUs("materialize-lineage")) / 1e3, "ms"},
       {"lineage.arena_nodes_per_miss", Mean(replay.arena_nodes), "count"}});
}

}  // namespace pcqe::bench
