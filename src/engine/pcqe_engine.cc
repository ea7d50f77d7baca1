#include "engine/pcqe_engine.h"

#include <algorithm>
#include <cmath>
#include <set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/vec_executor.h"
#include "storage/storage_manager.h"
#include "strategy/brute_force.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"

namespace pcqe {

namespace {

/// Fixes glibc malloc's mmap and trim thresholds, once per process.
///
/// A cold miss allocates a few buffers of 128 KiB or more: the scan's
/// identity selection vector, the prune and filter candidate vectors, the
/// grouping keys, and the result and its copy into `Complete`. Under
/// glibc's default, dynamic thresholds each such buffer is mmapped and
/// zero-faulted afresh on every request, unless the process happened to
/// free a multi-MB block earlier, which raises both thresholds. Request
/// latency then depends on allocation history. Measured on pcqe_bench
/// `cold_mix` (4 workers, 4 cores) with glibc's defaults: ~20x the minor
/// faults, ~6x the sys time and ~1.5x the tail latency of these values.
/// 32 MiB is glibc's largest mmap threshold; the trim threshold sits above
/// it so freed buffers stay in the heap for the next request.
void FixAllocatorThresholds() {
#if defined(__GLIBC__)
  static const bool kFixed = [] {
    constexpr int kMmapThresholdBytes = 32 << 20;
    constexpr int kTrimThresholdBytes = 64 << 20;
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
    mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
    return true;
  }();
  (void)kFixed;
#endif
}

/// Problems at or below this many base tuples run the exact solver under
/// `SolverKind::kAuto`.
constexpr size_t kAutoHeuristicLimit = 10;

/// A deadlined exact solve left with less than this after its greedy primer
/// returns the greedy plan tagged `partial` instead (see `FindStrategy`).
constexpr double kPressureFallbackSeconds = 0.010;

}  // namespace

PcqeEngine::PcqeEngine(Catalog* catalog, RoleGraph roles, PolicyStore policies)
    : catalog_(catalog),
      roles_(std::move(roles)),
      policies_(std::move(policies)),
      improver_(catalog) {
  FixAllocatorThresholds();
}

std::string QueryOutcome::ReleasedTable(size_t max_rows) const {
  QueryResult view;
  view.schema = intermediate.schema;
  view.arena = intermediate.arena;
  view.rows.reserve(released.size());
  for (size_t i : released) {
    QueryResult::Row row = intermediate.rows[i];
    // Deferred vectorized results box values on demand; only the rows the
    // table will actually show pay for boxing.
    if (row.values.empty() && view.rows.size() < max_rows) {
      row.values = intermediate.ValuesOfRow(i);
    }
    view.rows.push_back(std::move(row));
  }
  return view.ToTable(max_rows);
}

void PcqeEngine::AttachTelemetry(TelemetryRegistry* registry, Tracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry_ == nullptr) {
    metrics_ = EngineMetrics{};
    return;
  }
  metrics_.queries = registry_->GetCounter("pcqe_engine_queries_total",
                                           "Queries evaluated by the engine");
  metrics_.rows_released = registry_->GetCounter(
      "pcqe_engine_rows_released_total", "Result rows released by policy filtering");
  metrics_.rows_blocked = registry_->GetCounter(
      "pcqe_engine_rows_blocked_total", "Result rows blocked by policy filtering");
  metrics_.proposals = registry_->GetCounter(
      "pcqe_engine_proposals_total", "Strategy proposals computed for shortfalls");
  metrics_.deadline_exceeded = registry_->GetCounter(
      "pcqe_engine_deadline_exceeded_total",
      "Strategy solves stopped by the request deadline");
  metrics_.partial = registry_->GetCounter(
      "pcqe_engine_partial_total",
      "Proposals carrying an anytime (partial) plan: deadline, cancellation "
      "or node-budget stop");
  metrics_.vec_chunks = registry_->GetCounter(
      "pcqe_engine_vec_chunks_total",
      "Column chunks scanned by the vectorized interpreter");
  metrics_.vec_rows = registry_->GetCounter(
      "pcqe_engine_vec_rows_total",
      "Base rows scanned by the vectorized interpreter");
  metrics_.vec_join_groups = registry_->GetCounter(
      "pcqe_engine_vec_join_groups_total",
      "Factorized join match groups built by the vectorized interpreter");
  metrics_.vec_fallback_rows = registry_->GetCounter(
      "pcqe_engine_vec_fallback_rows_total",
      "Rows the vectorized interpreter evaluated row-at-a-time (no kernel)");
  metrics_.pushdown_chunks_pruned = registry_->GetCounter(
      "pcqe_engine_pushdown_chunks_pruned_total",
      "Whole column chunks skipped by beta pushdown via their confidence bounds");
  metrics_.pushdown_rows_pruned = registry_->GetCounter(
      "pcqe_engine_pushdown_rows_pruned_total",
      "Base rows pruned under scans by beta pushdown");
  metrics_.solve_seconds = registry_->GetHistogram(
      "pcqe_engine_solve_seconds", {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0},
      "Strategy solve wall-clock seconds");
  metrics_.solver_effort.clear();
  for (const auto& [name, value] : SolverEffort{}.Items()) {
    (void)value;
    metrics_.solver_effort.push_back(registry_->GetCounter(
        StrFormat("pcqe_solver_%s_total", name), "Solver search effort; see SolverEffort"));
  }
  metrics_.operator_seconds.clear();
  for (PlanKind kind :
       {PlanKind::kScan, PlanKind::kFilter, PlanKind::kProject, PlanKind::kJoin,
        PlanKind::kDistinct, PlanKind::kUnionAll, PlanKind::kUnion,
        PlanKind::kExcept, PlanKind::kIntersect, PlanKind::kSort, PlanKind::kLimit,
        PlanKind::kAggregate, PlanKind::kConfidencePrune}) {
    std::string key = ToLowerAscii(PlanKindToString(kind));
    metrics_.operator_seconds[key] = registry_->GetHistogram(
        StrFormat("pcqe_query_operator_seconds_%s", key.c_str()),
        {0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0},
        "Per-operator wall seconds from profiled (EXPLAIN ANALYZE) queries");
  }
}

void PcqeEngine::ObserveOperatorSeconds(const OperatorProfile& profile) const {
  if (metrics_.operator_seconds.empty()) return;
  for (const OperatorProfile::Node& node : profile.nodes) {
    std::string kind = ToLowerAscii(node.label.substr(0, node.label.find(' ')));
    auto it = metrics_.operator_seconds.find(kind);
    if (it == metrics_.operator_seconds.end()) continue;
    it->second->Observe(static_cast<double>(node.wall_ns) / 1e9);
  }
}

Result<QueryOutcome> PcqeEngine::Submit(const QueryRequest& request) const {
  std::shared_ptr<OperatorProfile> profile;
  if (request.profile) profile = std::make_shared<OperatorProfile>();
  std::optional<double> pushdown_beta = ResolvePushdownBeta(request);
  // One trace per call; null when tracing is off — every span below is
  // tolerant of that.
  std::optional<TraceBuilder> trace;
  if (tracer_ != nullptr && tracer_->enabled()) trace.emplace("submit");
  TraceBuilder* tb = trace.has_value() ? &*trace : nullptr;
  Result<QueryOutcome> outcome = [&]() -> Result<QueryOutcome> {
    PCQE_ASSIGN_OR_RETURN(QueryResult intermediate,
                          Evaluate(request.sql, tb, profile.get(), pushdown_beta));
    return Complete(request, std::move(intermediate), tb);
  }();
  if (outcome.ok()) outcome->profile = std::move(profile);
  if (trace.has_value()) {
    uint64_t id = tracer_->Record(trace->Finish());
    if (outcome.ok()) outcome->trace_id = id;
  }
  return outcome;
}

Result<QueryResult> PcqeEngine::Evaluate(const std::string& sql,
                                         TraceBuilder* trace,
                                         OperatorProfile* profile,
                                         std::optional<double> pushdown_beta) const {
  // (1)-(4): evaluate the query and compute result confidences.
  ScopedSpan span(trace, "evaluate");
  PCQE_INJECT_FAULT(fault_sites::kEngineEvaluate);
  if (metrics_.queries != nullptr) metrics_.queries->Increment();
  // The policy filter and the solvers consume confidences and lineage only;
  // value boxing is deferred until something displays rows (ReleasedTable /
  // ToTable / MaterializeValues) — the factorized engine's late
  // materialization.
  Result<QueryResult> result = RunQuery(*catalog_, sql, trace, ExecutionMode::kVectorized,
                                        /*materialize_values=*/false, profile,
                                        pushdown_beta);
  if (result.ok() && profile != nullptr) ObserveOperatorSeconds(*profile);
  if (result.ok() && metrics_.vec_chunks != nullptr) {
    const VecExecStats& s = result->vec_stats;
    metrics_.vec_chunks->Increment(s.chunks_scanned);
    metrics_.vec_rows->Increment(s.rows_scanned);
    metrics_.vec_join_groups->Increment(s.join_groups);
    metrics_.vec_fallback_rows->Increment(s.fallback_rows);
    metrics_.pushdown_chunks_pruned->Increment(s.pruned_chunks);
    metrics_.pushdown_rows_pruned->Increment(s.pruned_rows);
  }
  return result;
}

std::optional<double> PcqeEngine::ResolvePushdownBeta(
    const QueryRequest& request) const {
  // Pushdown is only provably result-identical when the request releases by
  // β alone: with required_fraction == 0 the needed-rows target is always 0,
  // so the strategy solver never runs in either mode and pruned blocked rows
  // cannot surface through proposals or released fractions.
  if (!request.pushdown || request.required_fraction != 0.0) return std::nullopt;
  Result<std::unique_ptr<SelectStatement>> stmt = ParseSelect(request.sql);
  if (!stmt.ok()) return std::nullopt;
  Result<std::unique_ptr<PlanNode>> plan = PlanQuery(*catalog_, **stmt);
  if (!plan.ok() || !IsConfidencePushdownSafe(**plan)) return std::nullopt;
  std::vector<std::string> tables = CollectScannedTables(**plan);
  Result<PolicyDecision> decision =
      policies_.Resolve(roles_, request.user, request.purpose, tables);
  // β ≤ 0 prunes nothing (every confidence clears it) — evaluating unpushed
  // keeps policy-less queries bit-identical and cache-shareable.
  if (!decision.ok() || decision->threshold <= 0.0) return std::nullopt;
  return decision->threshold;
}

Result<size_t> PcqeEngine::FilterOne(const QueryRequest& request, QueryOutcome* outcome,
                                     std::vector<size_t>* blocked) const {
  if (request.required_fraction < 0.0 || request.required_fraction > 1.0) {
    return Status::InvalidArgument(
        StrFormat("required_fraction %g outside [0, 1]", request.required_fraction));
  }

  // (5)-(6): resolve and enforce the confidence policy for this user,
  // purpose and the data (tables) the query touched.
  PCQE_ASSIGN_OR_RETURN(outcome->policy,
                        policies_.Resolve(roles_, request.user, request.purpose,
                                          outcome->intermediate.tables));
  size_t n = outcome->intermediate.rows.size();
  for (size_t i = 0; i < n; ++i) {
    if (outcome->policy.Allows(outcome->intermediate.rows[i].confidence)) {
      outcome->released.push_back(i);
    } else {
      blocked->push_back(i);
    }
  }
  outcome->released_fraction =
      n == 0 ? 1.0
             : static_cast<double>(outcome->released.size()) / static_cast<double>(n);

  size_t target = static_cast<size_t>(
      std::ceil(request.required_fraction * static_cast<double>(n)));
  return target > outcome->released.size() ? target - outcome->released.size() : 0;
}

Result<QueryOutcome> PcqeEngine::Complete(const QueryRequest& request,
                                          QueryResult intermediate,
                                          TraceBuilder* trace) const {
  ScopedSpan span(trace, "complete");
  QueryOutcome outcome;
  outcome.intermediate = std::move(intermediate);
  std::vector<size_t> blocked;
  size_t needed = 0;
  {
    // The audit trail: which β applied and how many rows it released/
    // dropped for this subject.
    ScopedSpan filter_span(trace, "policy-filter");
    PCQE_ASSIGN_OR_RETURN(needed, FilterOne(request, &outcome, &blocked));
    filter_span.Annotate("beta", FormatDouble(outcome.policy.threshold, 4));
    filter_span.Annotate("released", std::to_string(outcome.released.size()));
    filter_span.Annotate("blocked", std::to_string(blocked.size()));
  }
  if (metrics_.rows_released != nullptr) {
    metrics_.rows_released->Increment(outcome.released.size());
    metrics_.rows_blocked->Increment(blocked.size());
  }
  if (needed > 0) {
    // The solvers pool per-row formulas; a deferred result interns them
    // only now — compliant queries (no shortfall) never build a single
    // per-row lineage node.
    if (outcome.intermediate.lineage_deferred()) {
      ScopedSpan box_span(trace, "lineage-box");
      outcome.intermediate.MaterializeLineage();
    }
    PCQE_ASSIGN_OR_RETURN(
        outcome.proposal,
        FindStrategy({&outcome}, {blocked}, {needed}, outcome.policy.threshold,
                     request.solver,
                     request.solver_lanes.value_or(solver_parallelism),
                     request.deadline, request.cancel, trace));
  }
  outcome.audit_id = RecordQueryAudit(request, outcome, blocked);
  return outcome;
}

namespace {

/// Privacy-safe per-row lineage summary for the audit log: the contributing
/// base tuples as `table#row` identifiers joined with " * " (conjunction).
/// Never renders tuple values — see telemetry/audit.h.
std::string BlockedRowLineageSummary(
    const QueryResult& qr, size_t row,
    const std::map<uint32_t, std::string>& table_names) {
  std::vector<std::string> parts;
  auto add = [&](LineageVarId id) {
    auto table_id = static_cast<uint32_t>(id >> 32);
    auto base_row = static_cast<uint32_t>(id & 0xffffffffU);
    auto it = table_names.find(table_id);
    std::string table = it != table_names.end() ? it->second : StrFormat("t%u", table_id);
    parts.push_back(StrFormat("%s#%u", table.c_str(), base_row));
  };
  if (!qr.lineage_deferred() && qr.rows[row].lineage != kNullLineage) {
    for (LineageVarId id : qr.arena->Variables(qr.rows[row].lineage)) add(id);
  } else if (qr.columnar != nullptr) {
    // Deferred factorized result: the factors name the base tuples directly
    // (a group's members in member order, else one tuple per scan factor in
    // plan order), no lineage interning needed.
    for (const VecFactor& f : qr.columnar->factors) {
      const uint32_t r = f.sel[row];
      if (f.group != nullptr) {
        const GroupFactor& g = *f.group;
        for (uint32_t m = g.member_start[r]; m < g.member_start[r + 1]; ++m) {
          add((static_cast<LineageVarId>(g.table_id) << 32) | g.members[m]);
        }
      } else if (f.table != nullptr) {
        add((static_cast<LineageVarId>(f.table->table_id()) << 32) | r);
      }
    }
  }
  return JoinStrings(parts, " * ");
}

}  // namespace

uint64_t PcqeEngine::RecordQueryAudit(const QueryRequest& request,
                                      const QueryOutcome& outcome,
                                      const std::vector<size_t>& blocked) const {
  if (audit_ == nullptr || !audit_->enabled()) return 0;
  const QueryResult& qr = outcome.intermediate;
  AuditRecord rec;
  rec.kind = AuditRecord::Kind::kQuery;
  rec.user = request.user;
  rec.purpose = request.purpose;
  rec.sql = request.sql;
  rec.beta = outcome.policy.threshold;
  rec.confidence_version = catalog_->confidence_version();
  rec.required_fraction = request.required_fraction;
  rec.released_fraction = outcome.released_fraction;
  rec.rows_total = qr.rows.size();
  rec.rows_released = outcome.released.size();
  rec.rows_blocked = blocked.size();
  rec.pushed_down = qr.pushed_down;
  rec.pruned_chunks = qr.vec_stats.pruned_chunks;
  rec.pruned_rows = qr.vec_stats.pruned_rows;

  std::map<uint32_t, std::string> table_names;
  for (const std::string& name : qr.tables) {
    Result<const Table*> table =
        static_cast<const Catalog*>(catalog_)->GetTable(name);
    if (table.ok()) table_names[(*table)->table_id()] = name;
  }
  std::vector<bool> released(qr.rows.size(), false);
  for (size_t i : outcome.released) released[i] = true;
  size_t cap = audit_->max_rows_per_record();
  for (size_t i = 0; i < qr.rows.size(); ++i) {
    if (rec.rows.size() >= cap) {
      rec.rows_truncated = qr.rows.size() - rec.rows.size();
      break;
    }
    AuditRowDecision decision;
    decision.row = i;
    decision.confidence = qr.rows[i].confidence;
    decision.released = released[i];
    if (!released[i]) {
      decision.lineage = BlockedRowLineageSummary(qr, i, table_names);
    }
    rec.rows.push_back(std::move(decision));
  }
  if (outcome.proposal.needed) {
    rec.proposal_needed = true;
    rec.proposal_feasible = outcome.proposal.feasible;
    rec.proposal_partial = outcome.proposal.partial;
    rec.proposal_cost = outcome.proposal.total_cost;
    rec.proposal_algorithm = outcome.proposal.algorithm;
  }
  return audit_->Record(std::move(rec));
}

Result<std::vector<QueryOutcome>> PcqeEngine::SubmitBatch(
    const std::vector<QueryRequest>& requests) const {
  if (requests.empty()) return Status::InvalidArgument("empty request batch");

  std::vector<QueryOutcome> outcomes(requests.size());
  std::vector<std::vector<size_t>> blocked(requests.size());
  std::vector<size_t> needed(requests.size(), 0);

  for (size_t q = 0; q < requests.size(); ++q) {
    PCQE_ASSIGN_OR_RETURN(outcomes[q].intermediate,
                          Evaluate(requests[q].sql, nullptr, nullptr,
                                   ResolvePushdownBeta(requests[q])));
    PCQE_ASSIGN_OR_RETURN(needed[q], FilterOne(requests[q], &outcomes[q], &blocked[q]));
  }

  // (7): strategy finding across every request that came up short.
  std::vector<const QueryOutcome*> short_outcomes;
  std::vector<std::vector<size_t>> short_blocked;
  std::vector<size_t> short_needed;
  double beta = -1.0;
  size_t first_short = requests.size();
  for (size_t q = 0; q < requests.size(); ++q) {
    if (needed[q] == 0) continue;
    if (outcomes[q].intermediate.lineage_deferred()) {
      outcomes[q].intermediate.MaterializeLineage();
    }
    if (first_short == requests.size()) first_short = q;
    if (beta < 0.0) {
      beta = outcomes[q].policy.threshold;
    } else if (!ApproxEqual(beta, outcomes[q].policy.threshold)) {
      return Status::InvalidArgument(
          "batched requests that need improvement must share one confidence "
          "threshold (same role/purpose policy)");
    }
    short_outcomes.push_back(&outcomes[q]);
    short_blocked.push_back(blocked[q]);
    short_needed.push_back(needed[q]);
  }
  if (first_short < requests.size()) {
    PCQE_ASSIGN_OR_RETURN(
        StrategyProposal proposal,
        FindStrategy(short_outcomes, short_blocked, short_needed, beta,
                     requests[first_short].solver,
                     requests[first_short].solver_lanes.value_or(solver_parallelism),
                     requests[first_short].deadline, requests[first_short].cancel));
    outcomes[first_short].proposal = std::move(proposal);
  }
  return outcomes;
}

Result<StrategyProposal> PcqeEngine::FindStrategy(
    const std::vector<const QueryOutcome*>& outcomes,
    const std::vector<std::vector<size_t>>& blocked, const std::vector<size_t>& needed,
    double beta, SolverKind solver, SolverParallelism lanes, Deadline deadline,
    const CancelToken* cancel, TraceBuilder* trace) const {
  ScopedSpan span(trace, "solve");
  // Pool the blocked rows' lineages into one arena.
  auto arena = std::make_shared<LineageArena>();
  std::vector<LineageRef> lineages;
  std::vector<uint32_t> query_of;
  std::set<LineageVarId> var_ids;
  for (size_t q = 0; q < outcomes.size(); ++q) {
    const QueryResult& qr = outcomes[q]->intermediate;
    for (size_t row : blocked[q]) {
      LineageRef copied = arena->CopyFrom(*qr.arena, qr.rows[row].lineage);
      lineages.push_back(copied);
      query_of.push_back(static_cast<uint32_t>(q));
      for (LineageVarId id : arena->Variables(copied)) var_ids.insert(id);
    }
  }

  // Base-tuple specs straight from the stored tuples.
  std::vector<BaseTupleSpec> specs;
  specs.reserve(var_ids.size());
  for (LineageVarId id : var_ids) {
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog_->FindTuple(id));
    BaseTupleSpec spec;
    spec.id = id;
    spec.confidence = t.confidence();
    spec.max_confidence = t.max_confidence();
    spec.cost = t.cost_function();
    specs.push_back(std::move(spec));
  }

  ProblemOptions options;
  options.beta = beta;
  options.delta = improvement_delta;
  PCQE_ASSIGN_OR_RETURN(
      IncrementProblem problem,
      IncrementProblem::Build(arena, lineages, query_of,
                              std::vector<size_t>(needed.begin(), needed.end()),
                              std::move(specs), options));

  SolverKind effective = solver;
  if (effective == SolverKind::kAuto) {
    effective = (problem.num_base_tuples() <= kAutoHeuristicLimit && problem.is_monotone())
                    ? SolverKind::kHeuristic
                    : SolverKind::kDnc;
  }
  Result<IncrementSolution> solved = [&]() -> Result<IncrementSolution> {
    switch (effective) {
      case SolverKind::kHeuristic: {
        HeuristicOptions heuristic_options;
        heuristic_options.parallelism = lanes;
        heuristic_options.deadline = deadline;
        heuristic_options.cancel = cancel;
        if (!deadline.infinite() && problem.is_monotone()) {
          // Prime the exact search with a fast greedy incumbent: B&B then
          // only explores subtrees that can beat it, and if the deadline
          // lands mid-search the incumbent is already a feasible anytime
          // answer. When the greedy pass alone ate the budget, skip the
          // exact pass and hand back the greedy plan tagged partial (it is
          // feasible but not proven optimal).
          GreedyOptions primer;
          primer.parallelism = lanes;
          primer.deadline = deadline;
          primer.cancel = cancel;
          Result<IncrementSolution> primed = SolveGreedy(problem, primer);
          if (primed.ok() && primed->feasible) {
            if (deadline.RemainingSeconds() < kPressureFallbackSeconds) {
              IncrementSolution fallback = std::move(*primed);
              if (!fallback.partial) {
                fallback.partial = true;
                fallback.stop = SolveStop::kDeadline;
                fallback.search_complete = false;
              }
              return fallback;
            }
            heuristic_options.initial_upper_bound = primed->total_cost;
            heuristic_options.initial_assignment = primed->new_confidence;
          }
        }
        return SolveHeuristic(problem, heuristic_options);
      }
      case SolverKind::kGreedy: {
        GreedyOptions greedy_options;
        greedy_options.parallelism = lanes;
        greedy_options.deadline = deadline;
        greedy_options.cancel = cancel;
        return SolveGreedy(problem, greedy_options);
      }
      case SolverKind::kDnc: {
        DncOptions dnc_options;
        dnc_options.parallelism = lanes;
        dnc_options.deadline = deadline;
        dnc_options.cancel = cancel;
        return SolveDnc(problem, dnc_options);
      }
      case SolverKind::kBruteForce:
        // The reference solver stays un-deadlined: it is the ground truth
        // the differential harness compares against, never a serving path.
        return SolveBruteForce(problem);
      case SolverKind::kAuto:
        break;
    }
    return Status::Internal("unresolved solver kind");
  }();
  if (!solved.ok()) return solved.status();
  const IncrementSolution& solution = *solved;
  PCQE_RETURN_NOT_OK(ValidateSolution(problem, solution));

  if (metrics_.proposals != nullptr) {
    metrics_.proposals->Increment();
    metrics_.solve_seconds->Observe(solution.solve_seconds);
    if (solution.partial) metrics_.partial->Increment();
    if (solution.stop == SolveStop::kDeadline) metrics_.deadline_exceeded->Increment();
    const auto items = solution.effort.Items();
    for (size_t i = 0; i < items.size() && i < metrics_.solver_effort.size(); ++i) {
      metrics_.solver_effort[i]->Increment(items[i].second);
    }
  }
  span.Annotate("algorithm", solution.algorithm);
  span.Annotate("cost", FormatDouble(solution.total_cost, 4));
  span.Annotate("feasible", solution.feasible ? "yes" : "no");
  span.Annotate("nodes", std::to_string(solution.nodes_explored));
  if (solution.partial) {
    span.Annotate("partial", "yes");
    span.Annotate("stop", std::string(SolveStopToString(solution.stop)));
  }

  StrategyProposal proposal;
  proposal.needed = true;
  proposal.feasible = solution.feasible;
  proposal.total_cost = solution.total_cost;
  proposal.actions = solution.Actions(problem);
  proposal.algorithm = solution.algorithm;
  proposal.solve_seconds = solution.solve_seconds;
  proposal.effort = solution.effort;
  proposal.partial = solution.partial;
  proposal.stop = solution.stop;
  return proposal;
}

Status PcqeEngine::AcceptProposal(const StrategyProposal& proposal) {
  if (!proposal.needed) {
    return Status::InvalidArgument("proposal carries no improvement actions");
  }
  PCQE_INJECT_FAULT(fault_sites::kCatalogAccept);
  // Write-ahead discipline: validate first (a doomed accept must not reach
  // the log), then append + sync the transaction, and only then mutate the
  // catalog. A logging failure leaves the catalog untouched — version
  // included — so callers and caches never observe an unlogged accept.
  PCQE_RETURN_NOT_OK(improver_.Validate(proposal.actions));
  if (storage_ != nullptr) {
    std::vector<WalAction> logged;
    logged.reserve(proposal.actions.size());
    for (const IncrementAction& a : proposal.actions) {
      PCQE_ASSIGN_OR_RETURN(Tuple t, catalog_->FindTuple(a.base_tuple));
      logged.push_back({a.base_tuple, t.confidence(), a.to,
                        t.cost_function()->Increment(t.confidence(), a.to)});
    }
    PCQE_RETURN_NOT_OK(storage_->LogAccept(catalog_->confidence_version(),
                                           logged));
  }
  Status applied = improver_.Apply(proposal.actions);
  if (audit_ != nullptr && audit_->enabled()) {
    AuditRecord rec;
    rec.kind = AuditRecord::Kind::kAccept;
    rec.accept_actions = proposal.actions.size();
    rec.accept_cost = proposal.total_cost;
    rec.accept_ok = applied.ok();
    if (!applied.ok()) rec.accept_error = applied.message();
    // Post-apply version: a successful accept bumped it, so the record pins
    // which catalog state subsequent query decisions read.
    rec.confidence_version = catalog_->confidence_version();
    audit_->Record(std::move(rec));
  }
  return applied;
}

}  // namespace pcqe
