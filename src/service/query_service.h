// Copyright (c) PCQE contributors.
// QueryService: the PCQE engine as a multi-client server-in-a-library.
//
// The paper's framework (Figure 1) is a serving architecture — subjects
// submit ⟨Q, pu, perc⟩ requests, the system evaluates, policy-filters and
// proposes increments. This module adds the serving substrate around the
// single-threaded `PcqeEngine`:
//
//   * a fixed-size pool of `std::jthread` workers over a bounded request
//     queue with admission control (`kResourceExhausted` on overflow),
//     optional overload shedding that trips before the queue overflows, a
//     bounded retry-with-backoff loop in the blocking `Submit`, and
//     per-request deadlines that propagate into the engine's solvers
//     (anytime partial results; see `QueryRequest::deadline`);
//   * sessions (session.h) that authenticate once and pin β;
//   * a shared `ConfidenceResultCache` (result_cache.h) so concurrent
//     sessions reuse one lineage evaluation per distinct query;
//   * built-in counters (service_stats.h).
//
// Concurrency protocol (lock order: engine catalog_mu -> cache-internal
// mutex; queue_mu_ is never held together with either):
//
//   * The engine's `catalog_mu()` is a reader–writer lock over all
//     engine/catalog state. Workers execute the engine's const read path
//     under a shared lock; `Accept` — the only mutator, wrapping
//     `PcqeEngine::AcceptProposal` — takes it exclusively. The cache keys
//     on `Catalog::generation()`, which every catalog write bumps (accepts,
//     inserts, table creation, snapshot loads, recovery), so no write ever
//     has to clear it.
//     Under clang the engine's `PCQE_REQUIRES*` annotations make this
//     discipline compile-checked (see common/annotations.h).
//   * Role/policy *configuration* must be complete before requests are
//     submitted concurrently (the shell's `.serve` mode obeys this: its REPL
//     is sequential, so config commands never overlap an in-flight request).

#ifndef PCQE_SERVICE_QUERY_SERVICE_H_
#define PCQE_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "engine/pcqe_engine.h"
#include "service/result_cache.h"
#include "service/service_stats.h"
#include "service/session.h"
#include "storage/storage_manager.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace pcqe {

/// \brief Sizing and policy knobs for a `QueryService`.
struct ServiceOptions {
  /// Worker threads. 0 is allowed for tests: requests queue up and are only
  /// drained (as shutdown drops) by `Shutdown`; `Submit` executes inline.
  size_t num_workers = 4;
  /// Admission bound: submissions beyond this many queued requests are
  /// rejected with `kResourceExhausted`.
  size_t queue_capacity = 64;
  /// Applied when a request's own `timeout_ms` is 0. 0 = no deadline.
  int64_t default_timeout_ms = 0;
  /// Blocking `Submit` re-attempts after a retryable `kResourceExhausted`
  /// admission rejection (queue full or shed — never after shutdown), with
  /// exponential backoff starting at `retry_backoff_ms` and bounded by the
  /// request's own deadline. 0 (default) keeps the historical fail-fast
  /// behavior; `SubmitAsync` never retries.
  size_t admission_retries = 0;
  int64_t retry_backoff_ms = 1;
  /// Overload shedding: reject (`kResourceExhausted`, counted as shed) once
  /// this many requests are queued, tripping *before* the hard
  /// `queue_capacity` bound so latecomers fail fast while the queue can
  /// still absorb retries. 0 (default) disables shedding.
  size_t shed_watermark = 0;
  /// Entry bound of the confidence-result cache; 0 disables caching.
  size_t cache_capacity = 128;
  /// Metrics registry and trace ring the service publishes to. Borrowed
  /// (must outlive the service); null means the service owns private ones,
  /// reachable via `telemetry()` / `tracer()`. The engine, if it has no
  /// telemetry attached yet, is attached to the service's.
  TelemetryRegistry* registry = nullptr;
  Tracer* tracer = nullptr;
  /// Capacity of the service-owned trace ring (only used when `tracer` is
  /// null).
  size_t trace_capacity = 64;
  /// Compliance audit log the engine appends policy decisions to. Borrowed
  /// (must outlive the service); null means the service owns a private one,
  /// reachable via `audit()`. The engine, if it has no audit log attached
  /// yet, is attached to the service's.
  AuditLog* audit = nullptr;
  /// Capacity of the service-owned audit ring (only used when `audit` is
  /// null); 0 disables audit recording.
  size_t audit_capacity = 256;
  /// Choose each request's solver lane budget as
  /// `max(1, hardware_threads / active_requests)` (capped at the engine's
  /// own budget), so a lone request fans out wide while a full worker pool
  /// degrades to one lane per request instead of oversubscribing.
  /// Solutions and effort counters are lane-count independent, so this
  /// only trades wall clock. The last decision is exported as the
  /// `pcqe_service_solver_lanes` gauge.
  bool adaptive_solver_lanes = true;
  /// When set, overrides the engine's `execution_mode` at construction
  /// (row vs. vectorized query interpreter). Unset leaves the engine's own
  /// setting — vectorized by default — untouched.
  std::optional<ExecutionMode> execution_mode = std::nullopt;
  /// Durable catalog (src/storage/). With a non-empty `durability.dir` the
  /// service opens (and, when a manifest exists, *recovers*) the directory
  /// on construction and every `Accept` becomes a WAL-logged transaction.
  /// An open/recovery failure is fail-safe: the service still serves
  /// reads, but `Accept` returns the stored failure instead of mutating a
  /// catalog it could not make durable (see `durability_status()`).
  DurabilityOptions durability = {};
};

/// \brief One query submission through a session.
struct ServiceRequest {
  std::string sql;
  /// perc/θ: fraction of the query's results the subject needs released.
  double required_fraction = 0.5;
  SolverKind solver = SolverKind::kAuto;
  /// Deadline measured from submission; a request still queued when it
  /// expires completes with `kResourceExhausted`, and a request that reaches
  /// the engine carries the remaining budget into the strategy solve (on
  /// expiry mid-solve the outcome's proposal is the solver's best anytime
  /// plan, tagged `partial`). 0 = use the service default.
  int64_t timeout_ms = 0;
  /// Optional caller-owned cancellation flag, forwarded into the engine's
  /// solvers; must outlive the request's future.
  const CancelToken* cancel = nullptr;
  /// `EXPLAIN ANALYZE`: collect a per-operator profile for this request
  /// (attached to `QueryOutcome::profile`). A profiled request bypasses the
  /// result cache's lookup — a cache hit executes nothing, so there would be
  /// no operator tree to report — but still populates it for later requests.
  bool profile = false;
  /// Opt-out knob for β pushdown (see `QueryRequest::pushdown`). When the
  /// engine decides pushdown applies, the cache key forks on the resolved β
  /// so a pushed (partial) evaluation can never serve an unpushed request.
  bool pushdown = true;
};

/// \brief Concurrent, policy-compliant query service over one engine.
///
/// The engine (and its catalog) must outlive the service. All public methods
/// are thread-safe.
class QueryService {
 public:
  QueryService(PcqeEngine* engine, ServiceOptions options);

  /// Drains and stops the workers (`Shutdown`).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Authenticates ⟨user, purpose⟩ and opens a session (see SessionManager).
  [[nodiscard]] Result<SessionHandle> OpenSession(const std::string& user,
                                                  const std::string& purpose);

  /// Closes a session. Requests already queued under it still complete.
  [[nodiscard]] Status CloseSession(uint64_t session_id);

  /// Enqueues a request and returns a future for its outcome. Fails
  /// immediately with `kResourceExhausted` when the queue is full or the
  /// service is shut down.
  [[nodiscard]] Result<std::future<Result<QueryOutcome>>> SubmitAsync(
      const SessionHandle& session, ServiceRequest request);

  /// Convenience blocking submission. With workers this waits on the future;
  /// with `num_workers == 0` it executes inline on the caller's thread
  /// (bypassing queue admission, still counted in the stats).
  [[nodiscard]] Result<QueryOutcome> Submit(const SessionHandle& session,
                                            ServiceRequest request);

  /// Applies an improvement proposal under the engine's exclusive catalog
  /// lock. The generation bump makes every cached evaluation stale.
  /// With durability configured the accept is WAL-logged (and synced)
  /// before any confidence changes; a durability failure rejects it whole.
  [[nodiscard]] Status Accept(const StrategyProposal& proposal);

  /// Durability entry points; `kInvalidArgument` when `ServiceOptions`
  /// configured no storage. `Checkpoint` snapshots the catalog and rotates
  /// the WAL under a shared catalog hold; `Recover` rebuilds the catalog
  /// from disk under an exclusive hold (discarding non-durable state). The
  /// rebuild bumps the catalog generation, so no evaluation cached before
  /// it is served after it.
  [[nodiscard]] Status Checkpoint();
  [[nodiscard]] Status Recover();

  /// OK while durable storage (if configured) is healthy; otherwise the
  /// open/recovery failure that `Accept` now returns.
  [[nodiscard]] Status durability_status() const { return durability_status_; }

  /// The storage manager behind this service (null when not configured).
  StorageManager* storage() const { return storage_; }

  /// Stops admission, lets workers drain the queue, joins them, and fails
  /// any request still queued (0-worker services) with
  /// `kResourceExhausted`. Idempotent.
  void Shutdown();

  /// Point-in-time counters (see ServiceStatsSnapshot for the invariant).
  [[nodiscard]] ServiceStatsSnapshot stats() const;

  /// Requests currently waiting for a worker.
  [[nodiscard]] size_t queue_depth() const;

  size_t num_workers() const { return workers_.size(); }
  const ServiceOptions& options() const { return options_; }

  /// The registry / trace ring this service publishes to (service-owned
  /// unless supplied via `ServiceOptions`).
  TelemetryRegistry* telemetry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }

  /// The compliance audit log the engine records into (service-owned unless
  /// supplied via `ServiceOptions`). Never null after construction.
  AuditLog* audit() const { return audit_; }

  /// Prometheus-style text exposition of the registry, with the service's
  /// point-in-time gauges (queue depth, sessions, in-flight requests,
  /// cache entries, solver lanes, thread-pool pressure) refreshed first.
  [[nodiscard]] std::string RenderMetricsText();

  /// Same refresh, JSON dump (bench conventions).
  [[nodiscard]] std::string MetricsJson();

 private:
  struct PendingRequest {
    SessionHandle session;
    ServiceRequest request;
    std::chrono::steady_clock::time_point enqueued;
    /// Infinite when the request has no timeout; also the solve budget.
    Deadline deadline;
    std::promise<Result<QueryOutcome>> promise;
  };

  void WorkerLoop(std::stop_token stop);

  /// Wait predicate for WorkerLoop: invoked by `queue_cv_.wait` with
  /// `queue_mu_` held, through a release/re-acquire cycle the analysis
  /// cannot model, so the check is opted out instead of annotated
  /// PCQE_REQUIRES(queue_mu_).
  bool HasPendingRequest() const PCQE_NO_THREAD_SAFETY_ANALYSIS {
    return !queue_.empty();
  }

  /// Executes one request under the shared catalog lock: cache lookup,
  /// evaluation on miss, per-subject completion. Updates serve/fail/row
  /// counters. `enqueued` is the trace origin (submission time), so the
  /// recorded trace duration covers queue wait too; `deadline` is the
  /// remaining budget handed to the engine's strategy solve.
  Result<QueryOutcome> Execute(const SessionHandle& session,
                               const ServiceRequest& request,
                               std::chrono::steady_clock::time_point enqueued,
                               Deadline deadline);

  /// Runs one dequeued request end to end (deadline check, execution,
  /// latency recording) and fulfills its promise.
  void Process(PendingRequest pending);

  /// Updates the point-in-time gauges from live component state.
  void RefreshGauges();

  PcqeEngine* engine_;
  ServiceOptions options_;

  /// Owned fallbacks when `ServiceOptions` supplies no registry/tracer.
  /// Declared before every member that caches instrument pointers.
  std::unique_ptr<TelemetryRegistry> owned_registry_;
  std::unique_ptr<Tracer> owned_tracer_;
  std::unique_ptr<AuditLog> owned_audit_;
  TelemetryRegistry* registry_;  // never null after construction
  Tracer* tracer_;               // never null after construction
  AuditLog* audit_;              // never null after construction

  /// Service-owned storage when `ServiceOptions::durability` asked for it
  /// and the engine had none attached; `storage_` also covers the case of
  /// a manager attached to the engine before construction. Both set only
  /// in the constructor, immutable afterwards — hence readable lock-free.
  std::unique_ptr<StorageManager> owned_storage_;
  StorageManager* storage_ = nullptr;
  Status durability_status_ = Status::OK();

  SessionManager sessions_;
  ConfidenceResultCache cache_;
  ServiceStats stats_;

  /// Requests currently inside `Execute` (drives the adaptive lane policy).
  std::atomic<size_t> active_requests_{0};

  /// Point-in-time gauges, refreshed by `RefreshGauges`.
  Gauge* queue_depth_gauge_;
  Gauge* active_sessions_gauge_;
  Gauge* active_requests_gauge_;
  Gauge* cache_entries_gauge_;
  Gauge* solver_lanes_gauge_;
  Gauge* pool_queue_depth_gauge_;
  Gauge* pool_busy_workers_gauge_;

  mutable Mutex queue_mu_;
  std::condition_variable_any queue_cv_;
  std::deque<PendingRequest> queue_ PCQE_GUARDED_BY(queue_mu_);
  bool accepting_ PCQE_GUARDED_BY(queue_mu_) = true;

  std::vector<std::jthread> workers_;
};

}  // namespace pcqe

#endif  // PCQE_SERVICE_QUERY_SERVICE_H_
