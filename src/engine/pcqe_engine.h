// Copyright (c) PCQE contributors.
// The PCQE engine: the paper's Figure 1 data flow behind one facade.

#ifndef PCQE_ENGINE_PCQE_ENGINE_H_
#define PCQE_ENGINE_PCQE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "improve/improver.h"
#include "policy/confidence_policy.h"
#include "policy/rbac.h"
#include "query/query_engine.h"
#include "relational/catalog.h"
#include "strategy/solution.h"
#include "telemetry/audit.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/trace.h"

namespace pcqe {

class StorageManager;

/// \brief Which strategy-finding algorithm the engine runs.
enum class SolverKind : uint8_t {
  /// Exact branch-and-bound on small problems (≤ 10 base tuples),
  /// divide-and-conquer otherwise.
  kAuto = 0,
  kHeuristic = 1,
  kGreedy = 2,
  kDnc = 3,
  kBruteForce = 4,  ///< tiny problems only; for verification
};

/// \brief A user query as the paper defines it: ⟨Q, pu, perc⟩ plus the
/// issuing user (the subject whose roles select the policy).
struct QueryRequest {
  std::string sql;
  std::string user;
  std::string purpose;
  /// perc/θ: fraction of the query's results the user needs released.
  double required_fraction = 0.5;
  SolverKind solver = SolverKind::kAuto;
  /// Per-request solver lane budget; unset inherits the engine-wide
  /// `solver_parallelism`. The service layer sets this adaptively
  /// (hardware threads / active requests) so concurrent requests share the
  /// pool instead of each fanning out to every core.
  std::optional<SolverParallelism> solver_lanes = std::nullopt;
  /// Absolute budget for the strategy solve (the β filter itself always
  /// runs in full — a deadline can cost plan optimality, never policy
  /// compliance). On expiry the proposal carries the solver's anytime
  /// result tagged `partial`. Infinite by default.
  Deadline deadline = Deadline::Infinite();
  /// Optional caller-owned cancellation flag, forwarded to the solvers.
  const CancelToken* cancel = nullptr;
  /// `EXPLAIN ANALYZE`: collect an `OperatorProfile` for the evaluation and
  /// attach it to `QueryOutcome::profile`. Off by default — profiling is
  /// pay-for-what-you-use (the executors allocate nothing for it when off).
  bool profile = false;
  /// Opt-out knob for β pushdown (`.pushdown off` in the shell). When true
  /// *and* the request qualifies (see `PcqeEngine::ResolvePushdownBeta`),
  /// evaluation prunes sub-β base tuples below joins, skipping whole column
  /// chunks by their confidence bounds — result-identical to
  /// post-filtering. When false the engine always evaluates the full
  /// intermediate result.
  bool pushdown = true;
};

/// \brief The strategy-finding component's report: what it would cost to
/// release enough results, and which base tuples to improve.
struct StrategyProposal {
  /// False when policy filtering already released enough (no strategy run).
  bool needed = false;
  /// True when the computed plan reaches the requirement.
  bool feasible = false;
  /// Total improvement cost of `actions`.
  double total_cost = 0.0;
  /// Base-tuple increments, by catalog-wide tuple id.
  std::vector<IncrementAction> actions;
  /// Which algorithm produced the plan, with its diagnostics.
  std::string algorithm;
  double solve_seconds = 0.0;
  /// Search-effort counters of the solve that produced `actions`
  /// (deterministic at any lane count; see `SolverEffort`).
  SolverEffort effort;
  /// True when the solve was stopped early (deadline / cancellation / node
  /// budget) and `actions` is its best anytime plan; `stop` says why.
  bool partial = false;
  SolveStop stop = SolveStop::kComplete;
};

/// \brief Everything the engine hands back for one request.
struct QueryOutcome {
  /// All intermediate results (pre-policy), with lineage and confidence.
  QueryResult intermediate;
  /// The resolved policy decision (threshold β and matched policies).
  PolicyDecision policy;
  /// Indices into `intermediate.rows` the user may see.
  std::vector<size_t> released;
  /// Released fraction θ′ = |released| / |rows| (1 when there are no rows).
  double released_fraction = 1.0;
  /// Set when `released_fraction` fell short of the requested fraction.
  StrategyProposal proposal;
  /// Id of the recorded pipeline trace (0 when tracing was off); retrieve
  /// it with `Tracer::Get`.
  uint64_t trace_id = 0;
  /// Per-operator execution profile; set only when `QueryRequest::profile`
  /// was on (`EXPLAIN ANALYZE`).
  std::shared_ptr<OperatorProfile> profile;
  /// Id of the audit record documenting this decision (0 when no audit log
  /// is attached); retrieve it with `AuditLog::Get`.
  uint64_t audit_id = 0;

  /// Formats the released rows (only) as a text table.
  std::string ReleasedTable(size_t max_rows = 50) const;
};

/// \brief Facade wiring query evaluation, confidence computation, policy
/// enforcement, strategy finding and quality improvement together.
///
/// Lifecycle of `Submit` (Figure 1):
///  1. evaluate the SQL query, computing per-result confidence by lineage;
///  2. resolve the confidence policy for (user, purpose) and filter;
///  3. if fewer than `required_fraction` of results clear the threshold,
///     run strategy finding on the blocked results and attach a costed
///     proposal (nothing is modified yet — the user must accept);
///  4. `AcceptProposal` applies the improvement via `QualityImprover`;
///     re-`Submit` then returns the enlarged result set.
///
/// Const-correctness doubles as the concurrency contract: the whole read
/// path (`Submit`, `SubmitBatch`, `Evaluate`, `Complete`) is `const`, and
/// `AcceptProposal` is the only member that mutates the catalog. The engine
/// owns the reader–writer lock (`catalog_mu()`) that makes the contract
/// operational but never takes it itself: concurrent callers hold a
/// `ReaderLock` across the read path and a `WriterLock` around
/// `AcceptProposal`, and under clang the `PCQE_REQUIRES*` annotations turn
/// a missing lock into a compile error. Strictly single-threaded callers
/// outside the analyzed tree (unit tests, benches) may call lock-free —
/// with one thread there is nothing to race — but everything the analyzer
/// sees (the library and the shell) takes the lock.
class PcqeEngine {
 public:
  /// The engine borrows the catalog (it must outlive the engine) and owns
  /// the RBAC and policy configuration. The first engine a process builds
  /// also fixes the allocator's thresholds (see pcqe_engine.cc), so the
  /// service and direct `Submit` callers serve under the same policy.
  PcqeEngine(Catalog* catalog, RoleGraph roles, PolicyStore policies);

  /// Points the engine at a metrics registry and trace ring (both borrowed;
  /// they must outlive the engine). Registers the engine's counters on the
  /// registry and caches the instrument pointers. Call before serving —
  /// attachment is not synchronized against concurrent `Submit`s.
  void AttachTelemetry(TelemetryRegistry* registry, Tracer* tracer);

  TelemetryRegistry* telemetry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }

  /// Attaches a compliance audit log (borrowed; must outlive the engine;
  /// null detaches). Once attached, every `Complete` appends one record per
  /// policy decision and every `AcceptProposal` one per applied increment —
  /// see telemetry/audit.h for the privacy contract. Call before serving;
  /// attachment is not synchronized against concurrent `Submit`s (the log
  /// itself is thread-safe once attached).
  void AttachAudit(AuditLog* audit) { audit_ = audit; }
  AuditLog* audit() const { return audit_; }

  /// Attaches a durable-storage manager (borrowed; must outlive the
  /// engine; null detaches). Once attached, `AcceptProposal` becomes a
  /// logged transaction: the increments are appended + synced to the WAL
  /// *before* any confidence changes, and a logging failure rolls the
  /// whole accept back — no catalog mutation, no version bump. Call before
  /// serving; attachment is not synchronized against concurrent accepts.
  void AttachStorage(StorageManager* storage) { storage_ = storage; }
  StorageManager* storage() const { return storage_; }

  /// Expires when the engine is destroyed. A service keeps it so that its
  /// destructor detaches nothing from an engine destroyed before it.
  std::weak_ptr<const void> lifetime() const { return lifetime_; }

  /// The reader–writer lock over engine/catalog state. Concurrent callers
  /// hold it shared across the read path (`Submit`, `SubmitBatch`,
  /// `Evaluate`, `Complete`) and exclusive around `AcceptProposal`; the
  /// engine itself never locks, so callers control the critical-section
  /// extent (e.g. the service pairs a cache lookup with the evaluation
  /// under one shared hold).
  SharedMutex& catalog_mu() const PCQE_RETURN_CAPABILITY(catalog_mu_) {
    return catalog_mu_;
  }

  /// Runs steps 1-3 above. When a `Tracer` is attached and enabled, records
  /// one trace per call ("submit" root with evaluate / policy-filter / solve
  /// child spans) and sets `QueryOutcome::trace_id`.
  [[nodiscard]] Result<QueryOutcome> Submit(const QueryRequest& request) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Runs several requests as one batch (§4's multi-query extension): the
  /// strategy problem spans all blocked results and must satisfy every
  /// request's requirement simultaneously. All requests must resolve to the
  /// same confidence threshold (same role/purpose class); otherwise
  /// `kInvalidArgument`. Per-request outcomes carry a shared proposal
  /// (attached to the first outcome whose request needed it).
  [[nodiscard]] Result<std::vector<QueryOutcome>> SubmitBatch(
      const std::vector<QueryRequest>& requests) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Step 1 alone: evaluates the SQL with the vectorized interpreter and
  /// computes result confidences. The returned `QueryResult` is
  /// user-independent (no policy applied), which makes it shareable across
  /// subjects — the service layer caches it keyed on (normalized SQL,
  /// catalog generation). When `trace` is non-null an "evaluate" span (with
  /// parse/plan/execute/lineage children) is added. A non-null `profile`
  /// collects per-operator statistics (`EXPLAIN ANALYZE`) and feeds the
  /// `pcqe_query_operator_seconds_*` histograms. A set `pushdown_beta` asks the planner to prune base
  /// tuples at or below that confidence under every scan (see
  /// `ResolvePushdownBeta` — only pass a β that resolver returned for the
  /// requesting subject; the result then differs from the unpushed one only
  /// in rows the policy filter would block anyway).
  [[nodiscard]] Result<QueryResult> Evaluate(
      const std::string& sql, TraceBuilder* trace = nullptr,
      OperatorProfile* profile = nullptr,
      std::optional<double> pushdown_beta = std::nullopt) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Decides whether β pushdown applies to `request` and, if so, returns the
  /// resolved policy threshold to prune at. Returns `nullopt` — evaluate
  /// unpushed — unless ALL of:
  ///  - `request.pushdown` is true (the opt-out knob);
  ///  - `request.required_fraction == 0.0`: with no release requirement the
  ///    strategy solver never runs, so pruned blocked rows can't change
  ///    proposals, released sets, or fractions;
  ///  - the SQL parses and plans, and the plan shape is pushdown-safe
  ///    (`IsConfidencePushdownSafe`);
  ///  - the subject's resolved threshold β is > 0 (a zero threshold prunes
  ///    nothing — skipping keeps policy-less queries bit-identical).
  /// The service layer calls this under the same shared lock as the cache
  /// lookup so the cache key can fork on the pushdown mode.
  [[nodiscard]] std::optional<double> ResolvePushdownBeta(
      const QueryRequest& request) const PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Steps 2-3 on an already-evaluated result: resolves the policy for the
  /// request's subject, filters, and runs strategy finding on a shortfall.
  /// `intermediate` must come from `Evaluate` (or a cache of it) against the
  /// catalog's current confidences. When `trace` is non-null a "complete"
  /// span with "policy-filter" (β and per-β release/drop counts — the audit
  /// trail) and "solve" children is added.
  [[nodiscard]] Result<QueryOutcome> Complete(const QueryRequest& request,
                                              QueryResult intermediate,
                                              TraceBuilder* trace = nullptr) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Applies a proposal's increments to the database. The caller re-submits
  /// the query afterwards to receive the enlarged result set. Sole mutator
  /// of catalog state; bumps `Catalog::confidence_version()`. With a
  /// storage manager attached (see `AttachStorage`) the accept is durable:
  /// validate, WAL-log + sync, then apply — all or nothing.
  [[nodiscard]] Status AcceptProposal(const StrategyProposal& proposal)
      PCQE_REQUIRES(catalog_mu_);

  /// \name Component access.
  /// @{
  RoleGraph* roles() { return &roles_; }
  const RoleGraph& roles() const { return roles_; }
  PolicyStore* policies() { return &policies_; }
  const PolicyStore& policies() const { return policies_; }
  const QualityImprover& improver() const { return improver_; }
  Catalog* catalog() { return catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  /// @}

  /// Confidence-increment granularity δ used when posing strategy problems.
  double improvement_delta = 0.1;

  /// Worker-lane budget for the strategy solvers (0 = hardware concurrency,
  /// 1 = fully sequential). The solvers return identical solutions at any
  /// setting; this only trades solve wall-clock. Threads come from the
  /// process-wide `ThreadPool::Shared()`, so concurrent `Submit`s contend
  /// for the same lanes rather than oversubscribing the machine.
  SolverParallelism solver_parallelism;

 private:
  /// Step 2 for one request: validates the required fraction, resolves the
  /// policy and splits `outcome->intermediate.rows` into released/blocked.
  /// Returns how many more rows must clear the threshold (0 = satisfied).
  [[nodiscard]] Result<size_t> FilterOne(const QueryRequest& request, QueryOutcome* outcome,
                                         std::vector<size_t>* blocked) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Builds and solves the increment problem for the blocked rows of one or
  /// more evaluated queries. `blocked[q]` are row indices into
  /// `outcomes[q]->intermediate.rows`; `needed[q]` is how many must flip.
  /// `lanes` is the resolved per-request lane budget; `deadline`/`cancel`
  /// bound the solve (see `QueryRequest`); `trace`, when non-null, receives
  /// a "solve" span.
  [[nodiscard]] Result<StrategyProposal> FindStrategy(const std::vector<const QueryOutcome*>& outcomes,
                                        const std::vector<std::vector<size_t>>& blocked,
                                        const std::vector<size_t>& needed, double beta,
                                        SolverKind solver, SolverParallelism lanes,
                                        Deadline deadline, const CancelToken* cancel,
                                        TraceBuilder* trace = nullptr) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// Cached instrument pointers, registered by `AttachTelemetry`.
  struct EngineMetrics {
    Counter* queries = nullptr;
    Counter* rows_released = nullptr;
    Counter* rows_blocked = nullptr;
    Counter* proposals = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* partial = nullptr;
    Histogram* solve_seconds = nullptr;
    /// Vectorized-interpreter throughput counters.
    Counter* vec_chunks = nullptr;
    Counter* vec_rows = nullptr;
    Counter* vec_join_groups = nullptr;
    Counter* vec_fallback_rows = nullptr;
    /// β-pushdown counters: whole chunks skipped by their confidence
    /// bounds and rows pruned under scans.
    Counter* pushdown_chunks_pruned = nullptr;
    Counter* pushdown_rows_pruned = nullptr;
    /// `pcqe_solver_<field>_total`, in `SolverEffort::Items()` order.
    std::vector<Counter*> solver_effort;
    /// `pcqe_query_operator_seconds_<kind>`, keyed by lowercase operator
    /// kind ("scan", "join", ...); fed by profiled evaluations only.
    std::map<std::string, Histogram*> operator_seconds;
  };

  /// Feeds each profiled operator's wall time into its per-kind
  /// `pcqe_query_operator_seconds_<kind>` histogram.
  void ObserveOperatorSeconds(const OperatorProfile& profile) const;

  /// Appends the `Complete` decision (β filter + solver outcome) to the
  /// attached audit log; returns the record id (0 when unattached).
  [[nodiscard]] uint64_t RecordQueryAudit(const QueryRequest& request,
                                          const QueryOutcome& outcome,
                                          const std::vector<size_t>& blocked) const
      PCQE_REQUIRES_SHARED(catalog_mu_);

  /// See `catalog_mu()`. Mutable: the lock is taken (by callers) around
  /// const reads too.
  mutable SharedMutex catalog_mu_;

  Catalog* catalog_;
  RoleGraph roles_;
  PolicyStore policies_;
  QualityImprover improver_;
  TelemetryRegistry* registry_ = nullptr;  // borrowed; may be null
  Tracer* tracer_ = nullptr;               // borrowed; may be null
  StorageManager* storage_ = nullptr;      // borrowed; may be null
  AuditLog* audit_ = nullptr;              // borrowed; may be null
  EngineMetrics metrics_;
  std::shared_ptr<const void> lifetime_ = std::make_shared<char>(0);
};

}  // namespace pcqe

#endif  // PCQE_ENGINE_PCQE_ENGINE_H_
