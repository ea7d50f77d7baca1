// The two read-only workloads, `cold_mix` and `warm_sessions`. Both serve
// θ = 0 requests (the solver and WAL stay idle) from K = nproc closed-loop
// clients against a `QueryService` with nproc workers, over one seeded
// catalog of 1,001,000 base rows.
//
// Aggregate templates group few rows per group on purpose: a blocked
// aggregate row's audit record lists every base tuple in its lineage, so a
// group over thousands of tuples makes the audit summary, not the layers
// these workloads are meant to load, the dominant cost.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "service/query_service.h"
#include "workloads.h"

namespace pcqe::bench {
namespace {

// ---------------------------------------------------------------------------
// Catalog: readings(site, sensor, value) 950k rows, sensors(sensor, site,
// kind, calib) 50k rows, sites(site, region) 1k rows.
// ---------------------------------------------------------------------------

constexpr size_t kReadingsRows = 950'000;
constexpr size_t kSensorsRows = 50'000;
constexpr size_t kSitesRows = 1'000;
/// Rows are loaded in per-source batches; every source has its own trust
/// level, so confidences cluster by load order the way real feeds do, and
/// the per-chunk zone maps of β pushdown have chunks to skip. The levels are
/// evenly spaced and only their order comes from the seed: iid levels over a
/// table's few batches would make the released share, and so the work per
/// request, differ from seed to seed.
constexpr size_t kSourceBatchRows = 8192;

struct ReadCatalog {
  std::unique_ptr<Catalog> catalog;
  std::string fingerprint;
  size_t rows = 0;
};

ReadCatalog MakeReadCatalog(uint64_t seed) {
  ReadCatalog out;
  out.catalog = std::make_unique<Catalog>();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Fingerprint fp;
  auto insert = [&](Table* table, std::vector<Value> values, double confidence) {
    fp.AddDouble(confidence);
    PCQE_CHECK(table->Insert(std::move(values), confidence).ok());
    ++out.rows;
  };
  auto int_value = [&](int64_t lo, int64_t hi) {
    int64_t v = rng.UniformInt(lo, hi);
    fp.AddInt(v);
    return Value::Int(v);
  };
  auto double_value = [&](double lo, double hi) {
    double v = rng.Uniform(lo, hi);
    fp.AddDouble(v);
    return Value::Double(v);
  };
  std::vector<double> trust;
  auto shuffle_trust = [&](size_t rows) {
    size_t n = (rows + kSourceBatchRows - 1) / kSourceBatchRows;
    trust.resize(n);
    for (size_t k = 0; k < n; ++k) {
      trust[k] = 0.05 + 0.93 * (static_cast<double>(k) + 0.5) / static_cast<double>(n);
    }
    rng.Shuffle(&trust);
  };
  auto confidence = [&](size_t i) {
    return rng.ClampedGaussian(trust[i / kSourceBatchRows], 0.04, 0.01, 0.99);
  };

  Table* sites = *out.catalog->CreateTable(
      "sites", Schema({{"site", DataType::kInt64, ""}, {"region", DataType::kInt64, ""}}));
  for (size_t i = 0; i < kSitesRows; ++i) {
    insert(sites, {Value::Int(static_cast<int64_t>(i)), int_value(0, 19)},
           rng.Uniform(0.3, 0.99));
  }
  Table* sensors = *out.catalog->CreateTable(
      "sensors", Schema({{"sensor", DataType::kInt64, ""},
                         {"site", DataType::kInt64, ""},
                         {"kind", DataType::kInt64, ""},
                         {"calib", DataType::kDouble, ""}}));
  shuffle_trust(kSensorsRows);
  for (size_t i = 0; i < kSensorsRows; ++i) {
    insert(sensors,
           {Value::Int(static_cast<int64_t>(i)), int_value(0, 999), int_value(0, 19),
            double_value(-50.0, 50.0)},
           confidence(i));
  }
  Table* readings = *out.catalog->CreateTable(
      "readings", Schema({{"site", DataType::kInt64, ""},
                          {"sensor", DataType::kInt64, ""},
                          {"value", DataType::kDouble, ""}}));
  shuffle_trust(kReadingsRows);
  for (size_t i = 0; i < kReadingsRows; ++i) {
    insert(readings,
           {int_value(0, 999), int_value(0, static_cast<int64_t>(kSensorsRows) - 1),
            double_value(-100.0, 100.0)},
           confidence(i));
  }
  out.fingerprint = fp.Hex();
  return out;
}

/// Four subjects at four β levels; each opens `kSessionsPerSubject`
/// sessions, and the stream spreads requests over all of them.
constexpr std::array<double, 4> kReadBetas = {0.2, 0.45, 0.7, 0.9};
constexpr size_t kSessionsPerSubject = 4;

std::vector<Subject> ReadSubjects() {
  std::vector<Subject> subjects;
  for (size_t i = 0; i < kReadBetas.size(); ++i) {
    subjects.push_back({StrFormat("analyst%zu", i), StrFormat("Tier%zu", i), "analysis",
                        kReadBetas[i]});
  }
  return subjects;
}

std::vector<SessionHandle> OpenSessions(QueryService* service,
                                        const std::vector<Subject>& subjects) {
  std::vector<SessionHandle> sessions;
  for (const Subject& s : subjects) {
    for (size_t k = 0; k < kSessionsPerSubject; ++k) {
      Result<SessionHandle> session = service->OpenSession(s.user, s.purpose);
      PCQE_CHECK(session.ok());
      sessions.push_back(*session);
    }
  }
  return sessions;
}

size_t SubjectOfSlot(size_t slot) { return slot / kSessionsPerSubject; }

// ---------------------------------------------------------------------------
// Request streams.
// ---------------------------------------------------------------------------

struct ReadRequest {
  uint32_t tmpl = 0;
  uint32_t slot = 0;  ///< session slot; subject = slot / kSessionsPerSubject
  std::string sql;
};

struct Stream {
  std::vector<ReadRequest> requests;
  size_t num_templates = 0;
  std::string fingerprint;
};

std::string FingerprintOf(const std::vector<ReadRequest>& requests) {
  Fingerprint fp;
  for (const ReadRequest& r : requests) {
    fp.AddInt(r.tmpl);
    fp.AddInt(r.slot);
    fp.Add(r.sql);
  }
  return fp.Hex();
}

size_t NumSlots() { return kReadBetas.size() * kSessionsPerSubject; }

/// cold_mix: a range filter, a negative-literal range filter (the
/// vectorized engine's row fallback), a 2-table join, DISTINCT and two
/// GROUP BY/aggregates, every request with fresh literals.
constexpr size_t kColdTemplates = 6;
constexpr size_t kColdStreamLength = 20'000;

std::string ColdSql(size_t tmpl, Rng* rng) {
  // Negative-literal predicates select a window of calib values.
  double neg = rng->Uniform(5.0, 50.0);
  double width = rng->Uniform(2.0, 10.0);
  switch (tmpl) {
    case 0: {
      double lo = rng->Uniform(0.0, 96.0);
      return StrFormat("SELECT sensor, value FROM readings WHERE value >= %.4f AND value < %.4f",
                       lo, lo + rng->Uniform(0.5, 4.0));
    }
    case 1:
      return StrFormat("SELECT sensor, site FROM sensors WHERE calib >= -%.4f AND calib < %.4f",
                       neg, width - neg);
    case 2:
      return StrFormat(
          "SELECT r.sensor, s.region FROM readings r JOIN sites s ON r.site = s.site "
          "WHERE r.value > %.4f AND s.region < %lld",
          rng->Uniform(96.0, 99.5), static_cast<long long>(rng->UniformInt(5, 19)));
    case 3:
      return StrFormat(
          "SELECT DISTINCT kind, site FROM sensors WHERE calib >= -%.4f AND calib < %.4f", neg,
          width - neg);
    case 4:
      return StrFormat(
          "SELECT site, COUNT(*) AS n, AVG(value) AS mean FROM readings "
          "WHERE value >= %.4f GROUP BY site",
          rng->Uniform(95.0, 99.5));
    default:
      return StrFormat(
          "SELECT site, COUNT(*) AS n, MAX(calib) AS top FROM sensors "
          "WHERE calib >= -%.4f AND calib < %.4f GROUP BY site",
          neg, width - neg);
  }
}

Stream MakeColdStream(uint64_t seed) {
  Stream stream;
  stream.num_templates = kColdTemplates;
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 2);
  std::unordered_set<std::string> seen;
  // Templates and sessions take turns in a fixed order, so every window
  // holds the same mix and only the literals come from the seed. With 6
  // templates and 16 sessions each template meets every β level equally.
  while (stream.requests.size() < kColdStreamLength) {
    ReadRequest r;
    r.tmpl = static_cast<uint32_t>(stream.requests.size() % kColdTemplates);
    r.slot = static_cast<uint32_t>(stream.requests.size() % NumSlots());
    r.sql = ColdSql(r.tmpl, &rng);
    // Distinct text for every request: each one must miss the cache.
    if (!seen.insert(r.sql).second) continue;
    stream.requests.push_back(std::move(r));
  }
  stream.fingerprint = FingerprintOf(stream.requests);
  return stream;
}

/// warm_sessions: fixed templates, most popular first, returning from 20 to
/// ~21,000 rows. Five are pushdown-safe (cached once per β: 5 × 4 keys)
/// and three are not (one key each): 23 cache entries against 128. The
/// popular ones return thousands of rows, so `Complete`'s copy, not only the
/// thread hand-offs around a tiny hit, sets the pace.
const std::vector<std::string>& WarmTemplates() {
  static const std::vector<std::string> templates = {
      "SELECT sensor, value FROM readings WHERE value >= 99.5",
      "SELECT r.sensor, s.region FROM readings r JOIN sites s ON r.site = s.site "
      "WHERE r.value > 98.5",
      "SELECT site, COUNT(*) AS n FROM readings WHERE value >= 99 GROUP BY site",
      "SELECT sensor, kind FROM sensors WHERE calib < -20",
      "SELECT site, region FROM sites WHERE region = 7",
      "SELECT sensor, value FROM readings WHERE value >= 95.5",
      "SELECT DISTINCT kind FROM sensors WHERE calib >= -45",
      "SELECT region, COUNT(*) AS n FROM sites GROUP BY region",
  };
  return templates;
}
constexpr size_t kWarmStreamLength = 200'000;
constexpr double kWarmZipfExponent = 1.0;

Stream MakeWarmStream(uint64_t seed) {
  const std::vector<std::string>& templates = WarmTemplates();
  Stream stream;
  stream.num_templates = templates.size();
  std::vector<double> cumulative;
  double total = 0.0;
  for (size_t i = 0; i < templates.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kWarmZipfExponent);
    cumulative.push_back(total);
  }
  Rng rng(seed * 0xA24BAED4963EE407ULL + 3);
  stream.requests.reserve(kWarmStreamLength);
  for (size_t i = 0; i < kWarmStreamLength; ++i) {
    double u = rng.Uniform(0.0, total);
    size_t tmpl = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
    tmpl = std::min(tmpl, templates.size() - 1);
    ReadRequest r;
    r.tmpl = static_cast<uint32_t>(tmpl);
    r.slot = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(NumSlots()) - 1));
    r.sql = templates[tmpl];
    stream.requests.push_back(std::move(r));
  }
  stream.fingerprint = FingerprintOf(stream.requests);
  return stream;
}

/// One request per ⟨template, subject⟩, run before timing so the measured
/// window sees a filled cache.
std::vector<ReadRequest> WarmupRequests() {
  std::vector<ReadRequest> out;
  for (size_t t = 0; t < WarmTemplates().size(); ++t) {
    for (size_t s = 0; s < kReadBetas.size(); ++s) {
      out.push_back({static_cast<uint32_t>(t),
                     static_cast<uint32_t>(s * kSessionsPerSubject), WarmTemplates()[t]});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up and the closed loop.
// ---------------------------------------------------------------------------

ServiceOptions ReadServiceOptions() {
  // The shipped defaults (queue, 128-entry cache, 64-entry trace ring,
  // audit ring, adaptive lanes); only the pool is sized to the machine.
  ServiceOptions options;
  options.num_workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  return options;
}

/// One serving stack over a shared catalog. The engine is per stack: a
/// service attaches the engine to its own registry, which dies with it.
struct Stack {
  std::unique_ptr<PcqeEngine> engine;
  std::unique_ptr<QueryService> service;
  std::vector<SessionHandle> sessions;
};

Stack MakeStack(Catalog* catalog, size_t workers) {
  Stack stack;
  stack.engine = MakeEngine(catalog, ReadSubjects());
  ServiceOptions options = ReadServiceOptions();
  options.num_workers = workers;
  stack.service = std::make_unique<QueryService>(stack.engine.get(), options);
  stack.sessions = OpenSessions(stack.service.get(), ReadSubjects());
  return stack;
}

struct LoopResult {
  double seconds = 0.0;
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<SpanLog> logs;
};

/// Closed loop: `clients` threads each keep one request outstanding —
/// SubmitAsync, wait for that future, repeat — so K = clients requests are
/// in flight and no reply waits behind another. Requests are taken in
/// stream order until `seconds` pass or `max_requests` were issued.
/// `on_outcome(stream_index, request, outcome)` runs on the client thread.
template <typename OnOutcome>
LoopResult RunClosedLoop(Stack* stack, const std::vector<ReadRequest>& requests,
                         size_t clients, double seconds, size_t max_requests, bool trace,
                         OnOutcome on_outcome) {
  LoopResult result;
  result.logs.reserve(clients);
  for (size_t c = 0; c < clients; ++c) result.logs.emplace_back(trace);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> failed(clients, 0);
  std::atomic<size_t> next{0};
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> last_done(clients, start);
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        SpanLog& log = result.logs[c];
        while (true) {
          size_t i = next.fetch_add(1);
          if (i >= max_requests || Clock::now() >= deadline) break;
          const ReadRequest& req = requests[i % requests.size()];
          ServiceRequest request;
          request.sql = req.sql;
          request.required_fraction = 0.0;
          Clock::time_point t0 = Clock::now();
          int32_t root = log.Open(i, -1, "request");
          int32_t submit = log.Open(i, root, "submit");
          Result<std::future<Result<QueryOutcome>>> future =
              stack->service->SubmitAsync(stack->sessions[req.slot], std::move(request));
          log.Close(submit);
          Result<QueryOutcome> outcome =
              future.ok() ? future->get() : Result<QueryOutcome>(future.status());
          log.Close(root);
          Clock::time_point t1 = Clock::now();
          latencies[c].push_back(SecondsBetween(t0, t1) * 1e3);
          last_done[c] = t1;
          if (!outcome.ok()) {
            ++failed[c];
            std::fprintf(stderr, "request %zu failed: %s\n", i,
                         outcome.status().ToString().c_str());
            continue;
          }
          if (!on_outcome(i, req, *outcome)) ++failed[c];
        }
      });
    }
  }
  Clock::time_point end = *std::max_element(last_done.begin(), last_done.end());
  result.seconds = SecondsBetween(start, end);
  for (size_t c = 0; c < clients; ++c) {
    result.latency_ms.insert(result.latency_ms.end(), latencies[c].begin(), latencies[c].end());
    result.failed += failed[c];
  }
  result.attempted = result.latency_ms.size();
  return result;
}

/// Released rows of `served` against the row engine's evaluation of the
/// same SQL, filtered at β: same rows, same order, same confidences.
bool SameReleased(const QueryOutcome& served, const QueryResult& oracle, double beta,
                  std::string* why) {
  PolicyDecision policy;
  policy.threshold = beta;
  std::vector<size_t> expected;
  for (size_t i = 0; i < oracle.rows.size(); ++i) {
    if (policy.Allows(oracle.rows[i].confidence)) expected.push_back(i);
  }
  if (expected.size() != served.released.size()) {
    *why = StrFormat("released %zu rows, row engine %zu", served.released.size(),
                     expected.size());
    return false;
  }
  for (size_t k = 0; k < expected.size(); ++k) {
    size_t r = served.released[k];
    const QueryResult::Row& want = oracle.rows[expected[k]];
    if (served.intermediate.ValuesOfRow(r) != want.values ||
        served.intermediate.rows[r].confidence != want.confidence) {
      *why = StrFormat("released row %zu differs from the row engine", k);
      return false;
    }
  }
  return true;
}

/// Set-up repeated `kSetupRepeats` times; the last stack and catalog serve.
struct ReadSetup {
  ReadCatalog catalog;
  Stack stack;
  double setup_s = 0.0;
  double load_s = 0.0;
  double rss_mb_per_mrow = 0.0;
};

ReadSetup SetUp(uint64_t seed, size_t workers) {
  ReadSetup setup;
  std::vector<double> setup_s, load_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.stack = Stack{};
    setup.catalog = ReadCatalog{};
    double rss0 = RssMb();
    Clock::time_point t0 = Clock::now();
    setup.catalog = MakeReadCatalog(seed);
    load_s.push_back(SecondsSince(t0));
    if (rep == 0) {
      setup.rss_mb_per_mrow =
          (RssMb() - rss0) / (static_cast<double>(setup.catalog.rows) / 1e6);
    }
    setup.stack = MakeStack(setup.catalog.catalog.get(), workers);
    setup_s.push_back(SecondsSince(t0));
  }
  setup.setup_s = Median(setup_s);
  setup.load_s = Median(load_s);
  return setup;
}

/// Shape of one read workload: its stream, warm-up and replay length.
struct ReadWorkload {
  const char* name;
  Stream stream;
  /// Submitted one at a time before timing (warm_sessions: fills the cache).
  std::vector<ReadRequest> warmup;
  /// Requests replayed single-client and layer by layer in a traced run.
  size_t replay_requests;
};

/// Closed-loop requests taken from the end of the stream, which no measured
/// window reaches, before timing: the process's allocator and page cache
/// are warm when the window opens, whichever pass runs first.
constexpr size_t kWarmupTailRequests = 200;
/// A measured window needs this many requests, so ≥10 lie beyond its p99.
constexpr size_t kMinRequests = 1000;

/// Per-request output checks for a measured pass.
class ReadChecker {
 public:
  ReadChecker(bool cold, const Stream& stream) : cold_(cold) {
    if (cold_) {
      // The first request of each template is checked against the row
      // engine after the run.
      std::set<uint32_t> seen;
      for (size_t i = 0; i < stream.requests.size(); ++i) {
        if (seen.insert(stream.requests[i].tmpl).second) sample_.push_back(i);
      }
      sampled_.resize(sample_.size());
    }
    counts_ = std::vector<std::atomic<int64_t>>(stream.num_templates * kReadBetas.size());
    for (auto& c : counts_) c.store(-1);
  }

  /// Called on client threads; false = the outcome is wrong.
  bool OnOutcome(size_t index, const ReadRequest& req, const QueryOutcome& outcome) {
    if (cold_) {
      auto it = std::find(sample_.begin(), sample_.end(), index);
      if (it != sample_.end()) {
        sampled_[static_cast<size_t>(it - sample_.begin())] = outcome;
      }
      return true;
    }
    // warm_sessions: every ⟨template, β⟩ releases the same count.
    auto released = static_cast<int64_t>(outcome.released.size());
    std::atomic<int64_t>& slot = counts_[req.tmpl * kReadBetas.size() + SubjectOfSlot(req.slot)];
    int64_t expected = -1;
    if (slot.compare_exchange_strong(expected, released)) return true;
    if (expected == released) return true;
    std::fprintf(stderr, "template %u at beta %.2f released %lld rows, earlier %lld\n",
                 req.tmpl, kReadBetas[SubjectOfSlot(req.slot)],
                 static_cast<long long>(released), static_cast<long long>(expected));
    return false;
  }

  /// Row-engine comparisons after the run.
  void CheckAgainstRowEngine(const Catalog& catalog, const Stream& stream, Report* report) {
    if (cold_) {
      for (size_t k = 0; k < sample_.size(); ++k) {
        if (!sampled_[k].has_value()) continue;  // not reached in this run
        const ReadRequest& req = stream.requests[sample_[k]];
        Result<QueryResult> oracle = RunQuery(catalog, req.sql, nullptr, ExecutionMode::kRow);
        std::string why = oracle.ok() ? "" : oracle.status().ToString();
        bool same = oracle.ok() &&
                    SameReleased(*sampled_[k], *oracle, kReadBetas[SubjectOfSlot(req.slot)], &why);
        report->Check(same, StrFormat("cold_mix request %zu (%s): %s", sample_[k],
                                      req.sql.c_str(), why.c_str()));
      }
      return;
    }
    PolicyDecision policy;
    for (size_t t = 0; t < stream.num_templates; ++t) {
      Result<QueryResult> oracle =
          RunQuery(catalog, WarmTemplates()[t], nullptr, ExecutionMode::kRow);
      report->Check(oracle.ok(), StrFormat("row engine on warm template %zu", t));
      if (!oracle.ok()) continue;
      for (size_t b = 0; b < kReadBetas.size(); ++b) {
        int64_t served = counts_[t * kReadBetas.size() + b].load();
        if (served < 0) continue;
        policy.threshold = kReadBetas[b];
        int64_t want = 0;
        for (const QueryResult::Row& row : oracle->rows) want += policy.Allows(row.confidence);
        report->Check(served == want,
                      StrFormat("warm template %zu at beta %.2f released %lld, row engine %lld",
                                t, kReadBetas[b], static_cast<long long>(served),
                                static_cast<long long>(want)));
      }
    }
  }

 private:
  bool cold_;
  std::vector<size_t> sample_;
  std::vector<std::optional<QueryOutcome>> sampled_;
  std::vector<std::atomic<int64_t>> counts_;
};

/// Submits `requests` one at a time (warm-up; not measured).
void RunSequential(Stack* stack, const std::vector<ReadRequest>& requests, Report* report) {
  for (const ReadRequest& req : requests) {
    Result<QueryOutcome> outcome =
        stack->service->Submit(stack->sessions[req.slot], {req.sql, 0.0});
    report->Check(outcome.ok(), "warm-up request: " +
                                    (outcome.ok() ? std::string() : outcome.status().ToString()));
  }
}

struct PassResult {
  LoopResult loop;
  Counters window;
};

/// One measured pass: warm-up, then the closed loop, with the window's
/// counter deltas. cold_mix's window stops before the warm-up tail, so no
/// text repeats, and fails the run if any request hit the cache.
PassResult MeasuredPass(Stack* stack, const ReadWorkload& w, size_t clients,
                        double seconds, bool trace, ReadChecker* checker, Report* report) {
  RunSequential(stack, w.warmup, report);
  std::vector<ReadRequest> tail(w.stream.requests.end() - kWarmupTailRequests,
                                w.stream.requests.end());
  LoopResult warm = RunClosedLoop(stack, tail, clients, 1e9, tail.size(), false,
                                  [](size_t, const ReadRequest&, const QueryOutcome&) {
                                    return true;
                                  });
  report->attempted += warm.attempted;
  report->failed += warm.failed;
  TelemetryRegistry* registry = stack->service->telemetry();
  Counters before = Counters::Read(registry);
  bool cold = std::string(w.name) == "cold_mix";
  size_t max_requests = cold ? w.stream.requests.size() - kWarmupTailRequests : SIZE_MAX;
  PassResult pass;
  pass.loop = RunClosedLoop(stack, w.stream.requests, clients, seconds, max_requests, trace,
                            [&](size_t i, const ReadRequest& req, const QueryOutcome& o) {
                              return checker->OnOutcome(i, req, o);
                            });
  pass.window = Counters::Window(before, Counters::Read(registry));
  report->attempted += pass.loop.attempted;
  report->failed += pass.loop.failed;
  if (pass.loop.failed > 0) report->correct = false;
  if (cold) {
    report->Check(pass.window.hits == 0,
                  StrFormat("cold_mix: %llu of %llu requests hit the result cache",
                            static_cast<unsigned long long>(pass.window.hits),
                            static_cast<unsigned long long>(pass.window.hits +
                                                            pass.window.misses)));
  }
  return pass;
}

/// Single-client latency and the layer replay over the same requests, both
/// from a cold cache: the share of the first that the second's spans cover.
void TracedReplay(const ReadSetup& setup, const ReadWorkload& w, std::vector<double>* single_ms,
                  ReplayStats* replay, Report* report) {
  std::vector<ReadRequest> requests = w.warmup;
  for (size_t i = 0; i < w.replay_requests; ++i) {
    requests.push_back(w.stream.requests[i % w.stream.requests.size()]);
  }
  {
    Stack single = MakeStack(setup.catalog.catalog.get(), ReadServiceOptions().num_workers);
    LoopResult loop = RunClosedLoop(&single, requests, 1, 1e9, requests.size(), false,
                                    [](size_t, const ReadRequest&, const QueryOutcome&) {
                                      return true;
                                    });
    *single_ms = loop.latency_ms;
    report->attempted += loop.attempted;
    report->failed += loop.failed;
  }
  std::unique_ptr<PcqeEngine> engine = MakeEngine(setup.catalog.catalog.get(), ReadSubjects());
  TelemetryRegistry registry;
  Tracer tracer;
  AuditLog audit;
  engine->AttachTelemetry(&registry, &tracer);
  engine->AttachAudit(&audit);
  ConfidenceResultCache cache(ReadServiceOptions().cache_capacity);
  std::vector<Subject> subjects = ReadSubjects();
  ReaderLock lock(engine->catalog_mu());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Subject& subject = subjects[SubjectOfSlot(requests[i].slot)];
    QueryRequest request;
    request.sql = requests[i].sql;
    request.user = subject.user;
    request.purpose = subject.purpose;
    request.required_fraction = 0.0;
    Result<QueryOutcome> outcome = ReplayRequest(*engine, &cache, request, i, replay);
    report->Check(outcome.ok(), "replayed request: " + (outcome.ok()
                                                            ? std::string()
                                                            : outcome.status().ToString()));
  }
  AddReplayLayers(*replay, &report->per_layer);
  // The warm-up prefix is identical in both; coverage compares the same
  // requests' mean latency.
  report->per_layer.push_back(
      {"trace.span_coverage", Ratio(Mean(replay->layer_us) / 1e3, Mean(*single_ms)), "ratio"});
}

Report RunRead(const RunConfig& config, ReadWorkload w) {
  Report report;
  bool cold = std::string(w.name) == "cold_mix";
  size_t k = std::max<size_t>(1, std::thread::hardware_concurrency());
  ReadSetup setup = SetUp(config.seed, k);
  report.fingerprints = {{"catalog", setup.catalog.fingerprint},
                         {"stream", w.stream.fingerprint}};
  report.env = {{"K", std::to_string(k)},
                {"service_workers", std::to_string(setup.stack.service->num_workers())},
                {"durability", "none (read-only workload, no storage attached)"},
                {"catalog_rows", std::to_string(setup.catalog.rows)},
                {"cache_capacity", std::to_string(ReadServiceOptions().cache_capacity)}};

  ReadChecker checker(cold, w.stream);
  PassResult untraced =
      MeasuredPass(&setup.stack, w, k, config.seconds, false, &checker, &report);
  setup.stack = Stack{};

  const std::vector<double>& latency_ms = untraced.loop.latency_ms;
  double qps = Ratio(static_cast<double>(latency_ms.size()), untraced.loop.seconds);
  report.end_to_end = {{"setup_s", setup.setup_s, "s"},
                       {"ops_per_s", qps, "1/s"},
                       {"op_p50_ms", Percentile(latency_ms, 0.5), "ms"},
                       // A request's tail is its p99 (a cycle's is its p95).
                       {"op_tail_ms", Percentile(latency_ms, 0.99), "ms"},
                       {"peak_rss_mb", PeakRssMb(), "MB"}};
  report.info = {{"requests", static_cast<double>(latency_ms.size()), "count"},
                 {"cache_hit_ratio", untraced.window.HitRatio(), "ratio"}};
  report.Check(latency_ms.size() >= kMinRequests,
               StrFormat("only %zu requests completed; p99 needs %zu", latency_ms.size(),
                         kMinRequests));

  if (config.trace) {
    Stack traced_stack = MakeStack(setup.catalog.catalog.get(), k);
    ReadChecker traced_checker(cold, w.stream);
    PassResult traced = MeasuredPass(&traced_stack, w, k, config.seconds, true,
                                     &traced_checker, &report);
    traced_stack = Stack{};
    std::vector<double> submit_us;
    for (const SpanLog& log : traced.loop.logs) {
      std::vector<double> d = log.DurationsUs("submit");
      submit_us.insert(submit_us.end(), d.begin(), d.end());
    }
    double traced_qps =
        Ratio(static_cast<double>(traced.loop.latency_ms.size()), traced.loop.seconds);
    report.per_layer = {{"service.submit_us.p50", Median(submit_us), "us"},
                        {"trace.overhead", Ratio(qps, traced_qps) - 1.0, "ratio"},
                        {"relational.load_s", setup.load_s, "s"},
                        {"relational.rss_mb_per_mrow", setup.rss_mb_per_mrow, "MB"}};
    AddCounterLayers(traced.window, &report.per_layer);

    std::vector<double> single_ms;
    ReplayStats replay;
    TracedReplay(setup, w, &single_ms, &replay, &report);

    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : traced.loop.logs) logs.push_back(&log);
    logs.push_back(&replay.spans);
    WriteSpans(StrFormat("%s/%s.spans.jsonl", config.trace_dir.c_str(), w.name), logs,
               Clock::time_point{});
    traced_checker.CheckAgainstRowEngine(*setup.catalog.catalog, w.stream, &report);
  }
  checker.CheckAgainstRowEngine(*setup.catalog.catalog, w.stream, &report);
  return report;
}

}  // namespace

Report RunColdMix(const RunConfig& config) {
  return RunRead(config, {"cold_mix", MakeColdStream(config.seed), {}, 120});
}

Report RunWarmSessions(const RunConfig& config) {
  return RunRead(config, {"warm_sessions", MakeWarmStream(config.seed), WarmupRequests(), 2000});
}

}  // namespace pcqe::bench
