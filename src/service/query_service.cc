#include "service/query_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace pcqe {

namespace {

using Clock = std::chrono::steady_clock;

/// Ring sizes of the tracer and audit log a service owns when lent none.
constexpr size_t kOwnedTraceCapacity = 64;
constexpr size_t kOwnedAuditCapacity = 256;

/// Deadline of a request with `timeout_ms` from `start`; 0 means none.
Deadline RequestDeadline(Clock::time_point start, int64_t timeout_ms) {
  return timeout_ms > 0 ? Deadline::At(start + std::chrono::milliseconds(timeout_ms))
                        : Deadline::Infinite();
}

uint64_t ElapsedUs(Clock::time_point since) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - since)
             .count()));
}

}  // namespace

QueryService::QueryService(PcqeEngine* engine, ServiceOptions options)
    : engine_(engine),
      engine_lifetime_(engine->lifetime()),
      options_(options),
      owned_registry_(options.registry == nullptr ? std::make_unique<TelemetryRegistry>()
                                                  : nullptr),
      owned_tracer_(options.tracer == nullptr
                        ? std::make_unique<Tracer>(kOwnedTraceCapacity)
                        : nullptr),
      owned_audit_(options.audit == nullptr
                       ? std::make_unique<AuditLog>(kOwnedAuditCapacity)
                       : nullptr),
      registry_(options.registry != nullptr ? options.registry : owned_registry_.get()),
      tracer_(options.tracer != nullptr ? options.tracer : owned_tracer_.get()),
      audit_(options.audit != nullptr ? options.audit : owned_audit_.get()),
      cache_(options.cache_capacity),
      stats_(registry_) {
  cache_.AttachTelemetry(registry_);
  tracer_->AttachTelemetry(registry_);
  audit_->AttachTelemetry(registry_);
  if (engine_->telemetry() == nullptr) {
    engine_->AttachTelemetry(registry_, tracer_);
    attached_telemetry_ = true;
  }
  if (engine_->audit() == nullptr) {
    engine_->AttachAudit(audit_);
    attached_audit_ = true;
  }
  queue_depth_gauge_ =
      registry_->GetGauge("pcqe_service_queue_depth", "Requests waiting for a worker");
  active_sessions_gauge_ =
      registry_->GetGauge("pcqe_service_active_sessions", "Open sessions");
  active_requests_gauge_ = registry_->GetGauge("pcqe_service_active_requests",
                                               "Requests currently executing");
  cache_entries_gauge_ =
      registry_->GetGauge("pcqe_cache_entries", "Confidence-result cache entries");
  solver_lanes_gauge_ = registry_->GetGauge(
      "pcqe_service_solver_lanes", "Solver lane budget of the most recent request");
  pool_queue_depth_gauge_ = registry_->GetGauge("pcqe_threadpool_queue_depth",
                                                "Shared pool tasks awaiting a worker");
  pool_busy_workers_gauge_ = registry_->GetGauge(
      "pcqe_threadpool_busy_workers", "Shared pool workers executing a task");
  if (options_.durability.enabled() && engine_->storage() == nullptr) {
    owned_storage_ = std::make_unique<StorageManager>();
    Status opened;
    {
      // Exclusive: opening an existing directory recovers, which rewrites
      // the catalog wholesale.
      WriterLock lock(engine_->catalog_mu());
      opened = owned_storage_->Open(options_.durability, engine_->catalog());
    }
    if (opened.ok()) {
      storage_ = owned_storage_.get();
      storage_->AttachTelemetry(registry_);
      engine_->AttachStorage(storage_);
    } else {
      durability_status_ = opened.WithContext("durable storage failed to open");
      owned_storage_.reset();
      PCQE_LOG(Error) << durability_status_.ToString()
                      << "; accepts are disabled, reads still serve";
    }
  } else if (engine_->storage() != nullptr) {
    storage_ = engine_->storage();
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { WorkerLoop(stop); });
  }
}

QueryService::~QueryService() {
  Shutdown();
  // The engine may outlive this service: undo the constructor's attachments,
  // so it never points at what dies with us and a later service attaches its
  // own. An engine destroyed first has nothing left to undo.
  if (engine_lifetime_.expired()) return;
  if (attached_telemetry_ && engine_->telemetry() == registry_) {
    engine_->AttachTelemetry(nullptr, nullptr);
  }
  if (attached_audit_ && engine_->audit() == audit_) {
    engine_->AttachAudit(nullptr);
  }
  if (owned_storage_ != nullptr && engine_->storage() == owned_storage_.get()) {
    engine_->AttachStorage(nullptr);
  }
}

Result<SessionHandle> QueryService::OpenSession(const std::string& user,
                                                const std::string& purpose) {
  // Shared lock: session opening reads role/policy configuration, which the
  // exclusive path (Accept) never touches, but holding the read lock keeps
  // the resolved β consistent with any concurrently completing requests.
  ReaderLock lock(engine_->catalog_mu());
  return sessions_.Open(*engine_->roles(), *engine_->policies(), user, purpose);
}

Status QueryService::CloseSession(uint64_t session_id) {
  return sessions_.Close(session_id);
}

Result<std::future<Result<QueryOutcome>>> QueryService::SubmitAsync(
    const SessionHandle& session, ServiceRequest request) {
  PendingRequest pending;
  pending.session = session;
  pending.request = std::move(request);
  pending.enqueued = Clock::now();
  pending.deadline = RequestDeadline(pending.enqueued, pending.request.timeout_ms);
  std::future<Result<QueryOutcome>> future = pending.promise.get_future();

  {
    MutexLock guard(queue_mu_);
    if (!accepting_) {
      stats_.OnRejected();
      return Status::ResourceExhausted("query service is shut down");
    }
    PCQE_INJECT_FAULT(fault_sites::kAdmission);
    if (options_.shed_watermark > 0 && queue_.size() >= options_.shed_watermark) {
      stats_.OnShed();
      return Status::ResourceExhausted(
          StrFormat("service overloaded (%zu queued, shed watermark %zu); "
                    "retry later",
                    queue_.size(), options_.shed_watermark));
    }
    if (queue_.size() >= options_.queue_capacity) {
      stats_.OnRejected();
      PCQE_LOG(Warning) << "rejecting request: queue full (" << queue_.size()
                        << " pending)";
      return Status::ResourceExhausted(
          StrFormat("request queue full (%zu pending); retry later",
                    queue_.size()));
    }
    queue_.push_back(std::move(pending));
  }
  stats_.OnSubmitted();
  queue_cv_.notify_one();
  return future;
}

Result<QueryOutcome> QueryService::Submit(const SessionHandle& session,
                                          ServiceRequest request) {
  Deadline deadline = RequestDeadline(Clock::now(), request.timeout_ms);
  if (workers_.empty()) {
    // No workers to hand off to: run on the caller's thread.
    stats_.OnSubmitted();
    Clock::time_point start = Clock::now();
    Result<QueryOutcome> outcome = Execute(session, request, start, deadline);
    stats_.RecordLatencyUs(ElapsedUs(start));
    return outcome;
  }
  // Bounded retry with exponential backoff on retryable admission
  // rejections (queue full or shed — a shut-down service never comes
  // back, so that rejection is final). The backoff never outlives the
  // request's own deadline: sleeping past it would only convert a crisp
  // rejection into a guaranteed in-queue expiry.
  for (size_t attempt = 0;; ++attempt) {
    Result<std::future<Result<QueryOutcome>>> future = SubmitAsync(session, request);
    if (future.ok()) return future->get();
    if (!future.status().IsResourceExhausted() ||
        attempt >= options_.admission_retries) {
      return future.status();
    }
    {
      MutexLock guard(queue_mu_);
      if (!accepting_) return future.status();
    }
    int64_t backoff_ms = std::min<int64_t>(
        std::max<int64_t>(1, options_.retry_backoff_ms)
            << std::min<size_t>(attempt, 8),
        250);
    if (deadline.RemainingSeconds() * 1000.0 <= static_cast<double>(backoff_ms)) {
      return future.status();
    }
    stats_.OnRetried();
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

Result<QueryOutcome> QueryService::Execute(const SessionHandle& session,
                                           const ServiceRequest& request,
                                           Clock::time_point enqueued,
                                           Deadline deadline) {
  size_t active = active_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  // One trace per request; the origin is submission time, so the root span
  // includes queue wait. Null when tracing is off — every span below is
  // tolerant of that.
  std::optional<TraceBuilder> trace;
  if (tracer_->enabled()) trace.emplace("request", enqueued);
  TraceBuilder* tb = trace.has_value() ? &*trace : nullptr;

  Result<QueryOutcome> outcome = [&]() -> Result<QueryOutcome> {
    ScopedSpan request_span(tb, "request");
    {
      ScopedSpan wait_span(tb, "queue-wait");
      wait_span.Annotate("wait_us", StrFormat("%llu", static_cast<unsigned long long>(
                                                          ElapsedUs(enqueued))));
    }

    // No `const PcqeEngine&` alias here: the thread-safety analysis matches
    // capability expressions syntactically, so the locked object and the
    // call targets must both spell `engine_->`.
    ReaderLock lock(engine_->catalog_mu());

    // The generation is read under the same shared lock as the evaluation,
    // so a cached entry can never mix catalog states from before and after
    // an interleaved write.
    uint64_t generation = engine_->catalog()->generation();

    QueryRequest engine_request;
    engine_request.sql = request.sql;
    engine_request.user = session.user;
    engine_request.purpose = session.purpose;
    engine_request.required_fraction = request.required_fraction;
    engine_request.solver = request.solver;
    engine_request.deadline = deadline;
    engine_request.cancel = request.cancel;
    engine_request.pushdown = request.pushdown;

    // A pushed evaluation omits sub-β rows, so it may only serve requests
    // that resolve to the *same* pushdown β — the key forks on it. Resolved
    // under the same shared lock as the lookup, so the decision and the
    // served entry read one catalog state.
    std::optional<double> push_beta = engine_->ResolvePushdownBeta(engine_request);
    std::string key = NormalizeSql(request.sql);
    if (push_beta.has_value()) {
      key += StrFormat("|pd=%.17g", *push_beta);
    }
    // A profiled request bypasses the cache lookup — a hit executes nothing,
    // so there would be no operator tree to report — but still populates the
    // cache for later (unprofiled) requests.
    std::shared_ptr<OperatorProfile> profile;
    if (request.profile) profile = std::make_shared<OperatorProfile>();
    std::shared_ptr<const QueryResult> evaluated;
    if (profile == nullptr) {
      ScopedSpan lookup_span(tb, "cache-lookup");
      PCQE_INJECT_FAULT(fault_sites::kCacheLookup);
      evaluated = cache_.Lookup(key, generation);
      lookup_span.Annotate("hit", evaluated != nullptr ? "true" : "false");
    }
    if (evaluated == nullptr) {
      PCQE_ASSIGN_OR_RETURN(
          QueryResult fresh,
          engine_->Evaluate(request.sql, tb, profile.get(), push_beta));
      // Cached as evaluated, lineage still deferred: the entry is never
      // written after this. A completion that needs formulas boxes them into
      // its own copy's arena (QueryResult::MaterializeLineage).
      evaluated = cache_.Insert(key, generation, std::move(fresh));
    }

    // Share the hardware between in-flight requests: a lone request fans the
    // solver out to the engine's full budget, a saturated service degrades
    // toward one lane each. Counters and solutions are lane-count
    // independent, so this only trades wall clock.
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    size_t budget = engine_->solver_parallelism.Resolve();
    size_t lanes =
        std::max<size_t>(1, std::min(budget, hw / std::max<size_t>(1, active)));
    engine_request.solver_lanes = SolverParallelism{lanes};
    solver_lanes_gauge_->Set(static_cast<int64_t>(lanes));
    // Completion copies the shared evaluation into the outcome: rows are
    // duplicated, the lineage arena is shared by shared_ptr and read-only.
    PCQE_ASSIGN_OR_RETURN(QueryOutcome completed,
                          engine_->Complete(engine_request, *evaluated, tb));
    completed.profile = std::move(profile);
    return completed;
  }();

  if (outcome.ok()) {
    size_t released = outcome->released.size();
    stats_.OnServed(released, outcome->intermediate.rows.size() - released,
                    outcome->proposal.needed);
    if (outcome->proposal.partial) {
      stats_.OnPartialResult();
      if (outcome->proposal.stop == SolveStop::kDeadline) {
        stats_.OnSolveDeadlineExceeded();
      }
    }
  } else {
    stats_.OnFailed();
  }
  if (trace.has_value()) {
    uint64_t trace_id = tracer_->Record(trace->Finish());
    if (outcome.ok()) outcome->trace_id = trace_id;
  }
  active_requests_.fetch_sub(1, std::memory_order_relaxed);
  return outcome;
}

void QueryService::Process(PendingRequest pending) {
  if (FaultInjector::Global().enabled()) {
    Status injected = FaultInjector::Global().Probe(fault_sites::kWorkerProcess);
    if (!injected.ok()) {
      stats_.OnFailed();
      pending.promise.set_value(std::move(injected));
      return;
    }
  }
  if (pending.deadline.Expired()) {
    stats_.OnExpired();
    PCQE_LOG(Warning) << "request expired after "
                      << ElapsedUs(pending.enqueued) / 1000 << "ms in queue";
    pending.promise.set_value(Status::ResourceExhausted(
        StrFormat("deadline expired after %llums in queue",
                  static_cast<unsigned long long>(
                      ElapsedUs(pending.enqueued) / 1000))));
    return;
  }
  Result<QueryOutcome> outcome =
      Execute(pending.session, pending.request, pending.enqueued, pending.deadline);
  stats_.RecordLatencyUs(ElapsedUs(pending.enqueued));
  pending.promise.set_value(std::move(outcome));
}

void QueryService::WorkerLoop(std::stop_token stop) {
  while (true) {
    PendingRequest pending;
    {
      MutexLock lock(queue_mu_);
      // Wakes on new work or stop; after a stop request the predicate still
      // wins while the queue is non-empty, so shutdown drains gracefully.
      bool has_work = queue_cv_.wait(lock, stop, [this] { return HasPendingRequest(); });
      if (!has_work) return;  // stop requested and queue drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Process(std::move(pending));
  }
}

Status QueryService::Accept(const StrategyProposal& proposal) {
  // Fail-safe: with durability configured but broken, refusing the accept
  // beats committing confidence changes that would vanish on restart.
  if (!durability_status_.ok()) return durability_status_;
  // Exclusive: the single writer. AcceptProposal routes every confidence
  // write through Catalog::SetConfidence, which bumps the generation and
  // thus retires all cached evaluations keyed on the old one.
  WriterLock lock(engine_->catalog_mu());
  return engine_->AcceptProposal(proposal);
}

Status QueryService::Checkpoint() {
  if (!durability_status_.ok()) return durability_status_;
  if (storage_ == nullptr) {
    return Status::InvalidArgument("durability is not configured");
  }
  // Shared hold: a checkpoint is a consistent read of the catalog; accepts
  // wait, concurrent queries proceed.
  ReaderLock lock(engine_->catalog_mu());
  return storage_->Checkpoint(*engine_->catalog());
}

Status QueryService::Recover() {
  if (!durability_status_.ok()) return durability_status_;
  if (storage_ == nullptr) {
    return Status::InvalidArgument("durability is not configured");
  }
  Status recovered;
  {
    WriterLock lock(engine_->catalog_mu());
    recovered = storage_->Recover();
  }
  return recovered;
}

void QueryService::Shutdown() {
  {
    MutexLock guard(queue_mu_);
    if (!accepting_ && workers_.empty() && queue_.empty()) return;  // already down
    accepting_ = false;
  }
  for (std::jthread& worker : workers_) worker.request_stop();
  queue_cv_.notify_all();
  workers_.clear();  // jthread dtor joins; workers drain the queue first

  // With zero workers (test configurations) requests may still be queued:
  // fail them rather than breaking their promises.
  std::deque<PendingRequest> leftover;
  {
    MutexLock guard(queue_mu_);
    leftover.swap(queue_);
  }
  for (PendingRequest& pending : leftover) {
    stats_.OnShutdownDropped();
    pending.promise.set_value(
        Status::ResourceExhausted("query service shut down before execution"));
  }
}

ServiceStatsSnapshot QueryService::stats() const {
  ServiceStatsSnapshot snapshot;
  stats_.FillSnapshot(&snapshot);
  ConfidenceResultCache::Stats cache_stats = cache_.stats();
  snapshot.cache_hits = cache_stats.hits;
  snapshot.cache_misses = cache_stats.misses;
  snapshot.cache_evictions = cache_stats.evictions;
  snapshot.cache_entries = cache_stats.entries;
  snapshot.queue_depth = queue_depth();
  snapshot.active_sessions = sessions_.active_count();
  return snapshot;
}

size_t QueryService::queue_depth() const {
  MutexLock guard(queue_mu_);
  return queue_.size();
}

void QueryService::RefreshGauges() {
  queue_depth_gauge_->Set(static_cast<int64_t>(queue_depth()));
  active_sessions_gauge_->Set(static_cast<int64_t>(sessions_.active_count()));
  active_requests_gauge_->Set(
      static_cast<int64_t>(active_requests_.load(std::memory_order_relaxed)));
  cache_entries_gauge_->Set(static_cast<int64_t>(cache_.stats().entries));
  ThreadPool& pool = ThreadPool::Shared();
  pool_queue_depth_gauge_->Set(static_cast<int64_t>(pool.queue_depth()));
  pool_busy_workers_gauge_->Set(static_cast<int64_t>(pool.busy_workers()));
}

std::string QueryService::RenderMetricsText() {
  RefreshGauges();
  return registry_->RenderText();
}

std::string QueryService::MetricsJson() {
  RefreshGauges();
  return registry_->RenderJson();
}

}  // namespace pcqe
