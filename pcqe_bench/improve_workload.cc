// `improve_accept`: the write path beside reads. One client drives a
// durable service (WAL synced on every commit) through submit → accept →
// verify cycles, one distinct data slice per cycle, checkpointing every
// `kCheckpointEvery` accepts; afterwards `Recover` rebuilds the catalog and
// every acknowledged accept is read back.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <numeric>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "cost/cost_function.h"
#include "service/query_service.h"
#include "workloads.h"

namespace pcqe::bench {
namespace {

/// acctP(slice, id, region) and txnP(slice, acct, amount), P < kPartitions:
/// each slice holds three accounts with four transactions each. The slice
/// query joins them, so a slice's 12 result rows share its 3 account tuples
/// — the sharing D&C partitions on — and its 15 base tuples exceed `kAuto`'s
/// exact-solver limit of 10, so `kAuto` picks D&C. A cycle uses up its
/// slice, so a window needs thousands of them; spreading them over table
/// pairs keeps each query's scan (there is no index on `slice`) to an eighth
/// of the rows. With fewer pairs the scan dominates a cycle and its latency
/// follows the host's memory contention rather than the write path.
/// The number of pairs changes no row's values, confidence or cost, nor the
/// slice order, so plan_cost.json holds for any number of pairs.
constexpr size_t kSlices = 16000;
constexpr size_t kPartitions = 8;
constexpr size_t kAccountsPerSlice = 3;
constexpr size_t kTxnsPerAccount = 4;
/// The paper's Table 4 defaults: confidences around 0.1, θ = 50%, β = 0.6.
constexpr double kTheta = 0.5;
constexpr double kBeta = 0.6;
constexpr size_t kCheckpointEvery = 2000;
/// `plan_cost` sums the first this-many cycles, so it is exact per seed
/// whatever the machine's speed.
constexpr size_t kPlanCostCycles = 200;
/// A measured window needs this many cycles, so ≥50 lie beyond its p95.
constexpr size_t kMinCycles = 1000;

const Subject& Auditor() {
  static const Subject subject{"auditor", "Auditor", "audit", kBeta};
  return subject;
}

struct ImproveCatalog {
  std::unique_ptr<Catalog> catalog;
  std::string fingerprint;
  size_t rows = 0;
};

CostFunctionPtr RandomCost(Rng* rng) {
  double a = rng->Uniform(1.0, 50.0);
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return *MakePolynomialCost(a, static_cast<double>(rng->UniformInt(2, 3)));
    case 1:
      return *MakeExponentialCost(a, rng->Uniform(1.0, 3.0));
    default:
      return *MakeLogarithmicCost(a, rng->Uniform(1.0, 10.0));
  }
}

ImproveCatalog MakeImproveCatalog(uint64_t seed) {
  ImproveCatalog out;
  out.catalog = std::make_unique<Catalog>();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  Fingerprint fp;
  std::vector<Table*> acct, txn;
  for (size_t p = 0; p < kPartitions; ++p) {
    acct.push_back(*out.catalog->CreateTable(
        StrFormat("acct%zu", p), Schema({{"slice", DataType::kInt64, ""},
                                         {"id", DataType::kInt64, ""},
                                         {"region", DataType::kInt64, ""}})));
    txn.push_back(*out.catalog->CreateTable(
        StrFormat("txn%zu", p), Schema({{"slice", DataType::kInt64, ""},
                                        {"acct", DataType::kInt64, ""},
                                        {"amount", DataType::kDouble, ""}})));
  }
  auto insert = [&](Table* table, int64_t slice, int64_t id, Value last) {
    double confidence = rng.Uniform(0.05, 0.15);
    CostFunctionPtr cost = RandomCost(&rng);
    fp.AddInt(slice);
    fp.AddInt(id);
    fp.Add(last.ToString());
    fp.AddDouble(confidence);
    fp.Add(cost->ToString());
    PCQE_CHECK(table->Insert({Value::Int(slice), Value::Int(id), std::move(last)}, confidence,
                             std::move(cost))
                   .ok());
    ++out.rows;
  };
  for (size_t s = 0; s < kSlices; ++s) {
    auto slice = static_cast<int64_t>(s);
    for (size_t a = 0; a < kAccountsPerSlice; ++a) {
      auto id = static_cast<int64_t>(s * kAccountsPerSlice + a);
      insert(acct[s % kPartitions], slice, id, Value::Int(rng.UniformInt(0, 9)));
      for (size_t t = 0; t < kTxnsPerAccount; ++t) {
        insert(txn[s % kPartitions], slice, id, Value::Double(rng.Uniform(1.0, 5000.0)));
      }
    }
  }
  out.fingerprint = fp.Hex();
  return out;
}

/// The seeded order in which cycles visit slices, and its fingerprint.
std::vector<size_t> SliceOrder(uint64_t seed, std::string* fingerprint) {
  std::vector<size_t> order(kSlices);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 12);
  rng.Shuffle(&order);
  Fingerprint fp;
  for (size_t s : order) fp.AddInt(static_cast<int64_t>(s));
  *fingerprint = fp.Hex();
  return order;
}

std::string SliceSql(size_t slice) {
  size_t p = slice % kPartitions;
  return StrFormat(
      "SELECT a.id, t.amount FROM acct%zu a JOIN txn%zu t ON a.id = t.acct "
      "WHERE a.slice = %zu AND t.slice = %zu",
      p, p, slice, slice);
}

size_t Workers() { return std::max<size_t>(1, std::thread::hardware_concurrency()); }

/// Catalog, engine and a durable service over a fresh directory, which the
/// stack removes again when reset or destroyed.
class ImproveStack {
 public:
  ImproveStack() = default;
  ImproveStack(const ImproveStack&) = delete;
  ImproveStack& operator=(const ImproveStack&) = delete;
  ~ImproveStack() { Reset(); }

  /// Builds the stack; returns the catalog generation-and-load seconds.
  double Open(uint64_t seed, const std::string& dir) {
    Reset();
    std::filesystem::remove_all(dir);
    dir_ = dir;
    Clock::time_point t0 = Clock::now();
    catalog = MakeImproveCatalog(seed);
    double load_s = SecondsSince(t0);
    engine = MakeEngine(catalog.catalog.get(), {Auditor()});
    ServiceOptions options;
    options.num_workers = Workers();
    options.durability.dir = dir;
    options.durability.sync_each_commit = true;
    service = std::make_unique<QueryService>(engine.get(), options);
    PCQE_CHECK(service->durability_status().ok());
    Result<SessionHandle> opened = service->OpenSession(Auditor().user, Auditor().purpose);
    PCQE_CHECK(opened.ok());
    session = *opened;
    return load_s;
  }

  void Reset() {
    service.reset();
    engine.reset();
    catalog = ImproveCatalog{};
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  ImproveCatalog catalog;
  std::unique_ptr<PcqeEngine> engine;
  std::unique_ptr<QueryService> service;
  SessionHandle session;

 private:
  std::string dir_;
};

struct CycleResult {
  double seconds = 0.0;
  size_t cycles = 0;
  std::vector<double> cycle_ms;
  std::vector<double> request_ms;  ///< submit and verify requests
  std::vector<double> accept_ms;
  std::vector<double> checkpoint_ms;
  std::vector<StrategyProposal> proposals;  ///< accepted, in cycle order
  StorageSnapshot storage_before;
  StorageSnapshot storage_after;
  Counters window;
  double lanes = 0.0;
  SpanLog log;
};

/// One service request, timed from SubmitAsync until its future is ready.
Result<QueryOutcome> TimedRequest(ImproveStack* stack, const std::string& sql, uint64_t id,
                                  int32_t parent, SpanLog* log, std::vector<double>* ms) {
  ServiceRequest request;
  request.sql = sql;
  request.required_fraction = kTheta;
  Clock::time_point t0 = Clock::now();
  int32_t root = log->Open(id, parent, "request");
  int32_t submit = log->Open(id, root, "submit");
  Result<std::future<Result<QueryOutcome>>> future =
      stack->service->SubmitAsync(stack->session, std::move(request));
  log->Close(submit);
  Result<QueryOutcome> outcome =
      future.ok() ? future->get() : Result<QueryOutcome>(future.status());
  log->Close(root);
  ms->push_back(SecondsSince(t0) * 1e3);
  return outcome;
}

/// Submit → accept → verify over successive slices until `seconds` have
/// passed and the last checkpoint period is complete (so every window holds
/// whole periods, each with its checkpoint), or the slices run out. Each
/// submit, accept, verify and checkpoint counts once in `attempted`.
CycleResult RunCycles(ImproveStack* stack, const std::vector<size_t>& order, double seconds,
                      bool trace, Report* report) {
  CycleResult r;
  r.log = SpanLog(trace);
  TelemetryRegistry* registry = stack->service->telemetry();
  Counters before = Counters::Read(registry);
  r.storage_before = stack->service->storage()->snapshot();
  Clock::time_point start = Clock::now();
  for (size_t c = 0; c < order.size(); ++c) {
    if (c % kCheckpointEvery == 0 && SecondsSince(start) >= seconds) break;
    std::string sql = SliceSql(order[c]);
    Clock::time_point t0 = Clock::now();
    int32_t cycle = r.log.Open(c, -1, "cycle");
    Result<QueryOutcome> submitted = TimedRequest(stack, sql, c, cycle, &r.log, &r.request_ms);
    bool proposed = submitted.ok() && submitted->proposal.needed &&
                    submitted->proposal.feasible && !submitted->proposal.partial;
    report->Check(proposed, StrFormat("slice %zu: expected a feasible, complete proposal (%s)",
                                      order[c],
                                      submitted.ok() ? submitted->proposal.algorithm.c_str()
                                                     : submitted.status().ToString().c_str()));
    if (!proposed) break;
    Clock::time_point t1 = Clock::now();
    int32_t accept_span = r.log.Open(c, cycle, "accept");
    Status accepted = stack->service->Accept(submitted->proposal);
    r.log.Close(accept_span);
    r.accept_ms.push_back(SecondsSince(t1) * 1e3);
    report->Check(accepted.ok(), StrFormat("accept on slice %zu: %s", order[c],
                                           accepted.ToString().c_str()));
    if (!accepted.ok()) break;
    r.proposals.push_back(std::move(submitted->proposal));
    Result<QueryOutcome> verified = TimedRequest(stack, sql, c, cycle, &r.log, &r.request_ms);
    r.log.Close(cycle);
    r.cycle_ms.push_back(SecondsSince(t0) * 1e3);
    report->Check(verified.ok() && verified->released_fraction + 1e-12 >= kTheta,
                  StrFormat("verify on slice %zu released %.3f < theta", order[c],
                            verified.ok() ? verified->released_fraction : -1.0));
    r.cycles = c + 1;
    if (r.cycles % kCheckpointEvery == 0) {
      Clock::time_point t2 = Clock::now();
      int32_t span = r.log.Open(c, -1, "checkpoint");
      Status checkpointed = stack->service->Checkpoint();
      r.log.Close(span);
      r.checkpoint_ms.push_back(SecondsSince(t2) * 1e3);
      report->Check(checkpointed.ok(), "checkpoint: " + checkpointed.ToString());
    }
  }
  r.seconds = SecondsSince(start);
  r.storage_after = stack->service->storage()->snapshot();
  r.window = Counters::Window(before, Counters::Read(registry));
  r.lanes = static_cast<double>(registry->GetGauge("pcqe_service_solver_lanes")->value());
  return r;
}

/// Crash model: `Recover` rebuilds the catalog from checkpoint + WAL, then
/// every accepted slice must still release ≥ θ. Returns recovery time.
double RecoverAndVerify(ImproveStack* stack, const std::vector<size_t>& order, size_t cycles,
                        Report* report) {
  Clock::time_point t0 = Clock::now();
  Status recovered = stack->service->Recover();
  double recover_ms = SecondsSince(t0) * 1e3;
  report->Check(recovered.ok(), "recover: " + recovered.ToString());
  for (size_t c = 0; c < cycles; ++c) {
    Result<QueryOutcome> outcome =
        stack->service->Submit(stack->session, {SliceSql(order[c]), kTheta});
    report->Check(outcome.ok() && outcome->released_fraction + 1e-12 >= kTheta,
                  StrFormat("after recovery slice %zu released %.3f < theta", order[c],
                            outcome.ok() ? outcome->released_fraction : -1.0));
  }
  return recover_ms;
}

double PlanCost(const std::vector<StrategyProposal>& proposals, Report* report) {
  report->Check(proposals.size() >= kPlanCostCycles,
                StrFormat("only %zu cycles completed; plan_cost needs %zu",
                          proposals.size(), kPlanCostCycles));
  double cost = 0.0;
  for (size_t c = 0; c < std::min(proposals.size(), kPlanCostCycles); ++c) {
    cost += proposals[c].total_cost;
  }
  return cost;
}

/// Strategy, storage and service layer metrics of one traced cycle pass.
void AddCycleLayers(const CycleResult& r, std::vector<Metric>* layers) {
  std::vector<double> solve_ms;
  double nodes = 0, groups = 0, greedy = 0;
  size_t n = std::min(r.proposals.size(), kPlanCostCycles);
  for (size_t c = 0; c < r.proposals.size(); ++c) {
    solve_ms.push_back(r.proposals[c].solve_seconds * 1e3);
    if (c >= n) continue;
    const SolverEffort& e = r.proposals[c].effort;
    nodes += static_cast<double>(e.nodes_expanded);
    groups += static_cast<double>(e.dnc_groups_solved);
    greedy += static_cast<double>(e.greedy_phase1_iterations + e.greedy_phase2_steps);
  }
  auto accepts = static_cast<double>(r.proposals.size());
  auto solves = static_cast<double>(n);
  layers->insert(
      layers->end(),
      {{"service.submit_us.p50", Median(r.log.DurationsUs("submit")), "us"},
       {"service.accept_ms.p50", Median(r.log.DurationsUs("accept")) / 1e3, "ms"},
       {"service.checkpoint_ms.p50", Median(r.log.DurationsUs("checkpoint")) / 1e3, "ms"},
       {"strategy.solve_ms.p50", Median(solve_ms), "ms"},
       {"strategy.nodes_expanded_per_solve", Ratio(nodes, solves), "count"},
       {"strategy.dnc_groups_per_solve", Ratio(groups, solves), "count"},
       {"strategy.greedy_iterations_per_solve", Ratio(greedy, solves), "count"},
       {"strategy.lanes", r.lanes, "count"},
       {"storage.syncs_per_accept",
        Ratio(static_cast<double>(r.storage_after.syncs - r.storage_before.syncs), accepts),
        "count"},
       {"storage.wal_bytes_per_accept",
        Ratio(static_cast<double>(r.storage_after.wal_bytes - r.storage_before.wal_bytes),
              accepts),
        "bytes"}});
}

/// Single-thread layer replay of the traced pass's first cycles on a fresh
/// catalog; every replayed plan must cost exactly what the service's did.
void ReplayCycles(uint64_t seed, const std::vector<size_t>& order, const CycleResult& traced,
                  ReplayStats* replay, Report* report) {
  ImproveCatalog catalog = MakeImproveCatalog(seed);
  std::unique_ptr<PcqeEngine> engine = MakeEngine(catalog.catalog.get(), {Auditor()});
  TelemetryRegistry registry;
  Tracer tracer;
  AuditLog audit;
  engine->AttachTelemetry(&registry, &tracer);
  engine->AttachAudit(&audit);
  ConfidenceResultCache cache(ServiceOptions{}.cache_capacity);
  size_t cycles = std::min<size_t>(traced.proposals.size(), 1000);
  for (size_t c = 0; c < cycles; ++c) {
    QueryRequest request;
    request.sql = SliceSql(order[c]);
    request.user = Auditor().user;
    request.purpose = Auditor().purpose;
    request.required_fraction = kTheta;
    // The lane budget the service's adaptive policy gives a lone request.
    request.solver_lanes = SolverParallelism{std::min(
        engine->solver_parallelism.Resolve(), Workers())};
    Result<QueryOutcome> submitted = Status::Internal("not run");
    {
      ReaderLock lock(engine->catalog_mu());
      submitted = ReplayRequest(*engine, &cache, request, 2 * c, replay);
    }
    bool same = submitted.ok() &&
                submitted->proposal.total_cost == traced.proposals[c].total_cost;
    report->Check(same, StrFormat("replayed slice %zu: plan cost differs from the service's",
                                  order[c]));
    if (!same) return;
    {
      WriterLock lock(engine->catalog_mu());
      Status accepted = engine->AcceptProposal(submitted->proposal);
      report->Check(accepted.ok(), "replayed accept: " + accepted.ToString());
    }
    ReaderLock lock(engine->catalog_mu());
    Result<QueryOutcome> verified = ReplayRequest(*engine, &cache, request, 2 * c + 1, replay);
    report->Check(verified.ok() && verified->released_fraction + 1e-12 >= kTheta,
                  StrFormat("replayed verify on slice %zu", order[c]));
  }
}

}  // namespace

Report RunImproveAccept(const RunConfig& config) {
  Report report;
  std::string stream_fingerprint;
  std::vector<size_t> order = SliceOrder(config.seed, &stream_fingerprint);

  ImproveStack stack;
  std::vector<double> setup_s, load_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.Reset();
    Clock::time_point t0 = Clock::now();
    load_s.push_back(stack.Open(config.seed, config.work_dir + "/improve"));
    setup_s.push_back(SecondsSince(t0));
  }
  report.fingerprints = {{"catalog", stack.catalog.fingerprint},
                         {"stream", stream_fingerprint}};
  report.env = {{"K", "1"},
                {"service_workers", std::to_string(stack.service->num_workers())},
                {"durability", "WAL fsync on every commit (sync_each_commit=true), "
                               "checkpoint every " + std::to_string(kCheckpointEvery) +
                               " accepts"},
                {"catalog_rows", std::to_string(stack.catalog.rows)},
                {"cache_capacity", std::to_string(ServiceOptions{}.cache_capacity)}};

  CycleResult run = RunCycles(&stack, order, config.seconds, false, &report);
  double cycles_per_s = Ratio(static_cast<double>(run.cycles), run.seconds);
  // One operation is one submit → accept → verify cycle.
  report.end_to_end = {{"setup_s", Median(setup_s), "s"},
                       {"ops_per_s", cycles_per_s, "1/s"},
                       {"op_p50_ms", Percentile(run.cycle_ms, 0.5), "ms"},
                       // A cycle's tail is its p95: beyond it, cycles slowed
                       // by the host's disk and neighbours decide the value,
                       // and a p99 of the same code spread past its bound.
                       {"op_tail_ms", Percentile(run.cycle_ms, 0.95), "ms"},
                       {"peak_rss_mb", PeakRssMb(), "MB"}};
  report.Check(run.cycles >= kMinCycles,
               StrFormat("only %zu cycles completed; p95 needs %zu", run.cycles, kMinCycles));
  double plan_cost = PlanCost(run.proposals, &report);
  if (config.expected_plan_cost.has_value()) {
    double want = *config.expected_plan_cost;
    report.Check(std::abs(plan_cost - want) <= 1e-9 * std::abs(want),
                 StrFormat("plan_cost %.17g differs from the %.17g recorded for seed %llu",
                           plan_cost, want, static_cast<unsigned long long>(config.seed)));
  }
  double recover_ms = RecoverAndVerify(&stack, order, run.cycles, &report);
  stack.Reset();
  report.info = {{"cycles", static_cast<double>(run.cycles), "count"},
                 {"request_p50_ms", Percentile(run.request_ms, 0.5), "ms"},
                 {"plan_cost", plan_cost, "cost"},
                 {"recover_ms", recover_ms, "ms"}};

  if (config.trace) {
    ImproveStack traced_stack;
    (void)traced_stack.Open(config.seed, config.work_dir + "/improve-traced");
    CycleResult traced = RunCycles(&traced_stack, order, config.seconds, true, &report);
    double traced_recover_ms = RecoverAndVerify(&traced_stack, order, traced.cycles, &report);
    traced_stack.Reset();
    report.Check(PlanCost(traced.proposals, &report) == plan_cost,
                 "traced pass: plan_cost differs from the untraced pass's");
    double traced_cycles_per_s = Ratio(static_cast<double>(traced.cycles), traced.seconds);
    report.per_layer = {
        {"trace.overhead", Ratio(cycles_per_s, traced_cycles_per_s) - 1.0, "ratio"},
        {"strategy.plan_cost", plan_cost, "cost"},
        {"storage.recover_ms", traced_recover_ms, "ms"},
        {"relational.load_s", Median(load_s), "s"}};
    AddCounterLayers(traced.window, &report.per_layer);
    AddCycleLayers(traced, &report.per_layer);

    ReplayStats replay;
    ReplayCycles(config.seed, order, traced, &replay, &report);
    AddReplayLayers(replay, &report.per_layer);
    // Coverage against the traced pass's own (single-client) requests over
    // the same cycles.
    std::vector<double> same_requests(
        traced.request_ms.begin(),
        traced.request_ms.begin() +
            static_cast<std::ptrdiff_t>(std::min(traced.request_ms.size(),
                                                 replay.layer_us.size())));
    report.per_layer.push_back(
        {"trace.span_coverage", Ratio(Mean(replay.layer_us) / 1e3, Mean(same_requests)),
         "ratio"});
    WriteSpans(config.trace_dir + "/improve_accept.spans.jsonl", {&traced.log, &replay.spans},
               Clock::time_point{});
  }
  return report;
}

}  // namespace pcqe::bench
