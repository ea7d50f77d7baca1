// Multi-threaded stress test for the service layer, designed to run under
// ThreadSanitizer (scripts/analyze.sh builds it with -DPCQE_SANITIZE=thread):
// many concurrent sessions hammer overlapping queries while a writer thread
// interleaves AcceptProposal increments, exercising the reader-writer
// catalog lock, the version-keyed cache and the counters simultaneously; and
// a cached grouped entry stays unwritten while hits, a shortfall solve and a
// client box lineage around it.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/query_engine.h"
#include "service/query_service.h"

namespace pcqe {
namespace {

constexpr const char* kCandidateQuery =
    "SELECT ci.company, ci.income "
    "FROM (SELECT DISTINCT company FROM proposal WHERE funding < 1000000) AS c "
    "JOIN companyinfo AS ci ON c.company = ci.company";

class ServiceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* proposal = *catalog_.CreateTable(
        "Proposal", Schema({{"company", DataType::kString, ""},
                            {"proposal", DataType::kString, ""},
                            {"funding", DataType::kDouble, ""}}));
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("AlphaTech"), Value::String("expansion"),
                              Value::Double(2e6)},
                             0.5)
                    .ok());
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("BlueSky"), Value::String("marketing"),
                              Value::Double(8e5)},
                             0.3, *MakeLinearCost(1000.0))
                    .ok());
    ASSERT_TRUE(proposal
                    ->Insert({Value::String("BlueSky"), Value::String("research"),
                              Value::Double(5e5)},
                             0.4, *MakeLinearCost(100.0))
                    .ok());
    Table* info = *catalog_.CreateTable(
        "CompanyInfo",
        Schema({{"company", DataType::kString, ""}, {"income", DataType::kDouble, ""}}));
    ASSERT_TRUE(
        info->Insert({Value::String("AlphaTech"), Value::Double(3e5)}, 0.8).ok());
    ASSERT_TRUE(info->Insert({Value::String("BlueSky"), Value::Double(1.2e5)}, 0.1,
                             *MakeLinearCost(10000.0))
                    .ok());

    RoleGraph roles;
    ASSERT_TRUE(roles.AddRole("Secretary").ok());
    ASSERT_TRUE(roles.AddRole("Manager").ok());
    PolicyStore policies;
    ASSERT_TRUE(policies.AddPolicy(roles, {"Secretary", "analysis", 0.05}).ok());
    ASSERT_TRUE(policies.AddPolicy(roles, {"Manager", "investment", 0.06}).ok());
    // Ten subjects so the test exceeds the eight-concurrent-session bar.
    for (int u = 0; u < 10; ++u) {
      std::string user = "user" + std::to_string(u);
      ASSERT_TRUE(roles.AddUser(user).ok());
      ASSERT_TRUE(
          roles.AssignRole(user, u % 2 == 0 ? "Secretary" : "Manager").ok());
    }
    engine_ = std::make_unique<PcqeEngine>(&catalog_, std::move(roles),
                                           std::move(policies));
  }

  Catalog catalog_;
  std::unique_ptr<PcqeEngine> engine_;
};

TEST_F(ServiceStressTest, ConcurrentSessionsWithInterleavedWrites) {
  QueryService service(engine_.get(),
                       {.num_workers = 4, .queue_capacity = 256, .cache_capacity = 32});

  // Open ten sessions (five Secretaries under β=0.05, five Managers under
  // β=0.06) before the traffic starts.
  std::vector<SessionHandle> sessions;
  for (int u = 0; u < 10; ++u) {
    std::string user = "user" + std::to_string(u);
    sessions.push_back(*service.OpenSession(
        user, u % 2 == 0 ? "analysis" : "investment"));
  }
  ASSERT_EQ(service.stats().active_sessions, 10u);

  const std::vector<std::string> query_mix = {
      kCandidateQuery,
      "SELECT company FROM proposal WHERE funding < 1000000",
      "SELECT company, income FROM companyinfo",
      "SELECT funding FROM proposal WHERE funding > 100000",
  };

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> overload_count{0};
  std::atomic<uint64_t> accepted_writes{0};

  {
    // Client threads: each drives one session with a rotating query mix.
    std::vector<std::jthread> clients;
    clients.reserve(sessions.size() + 2);
    for (size_t s = 0; s < sessions.size(); ++s) {
      clients.emplace_back([&, s] {
        const SessionHandle& session = sessions[s];
        for (int i = 0; i < 40; ++i) {
          ServiceRequest request;
          request.sql = query_mix[(s + static_cast<size_t>(i)) % query_mix.size()];
          request.required_fraction = 0.0;  // read path only on this thread
          Result<QueryOutcome> outcome = service.Submit(session, request);
          if (outcome.ok()) {
            ok_count.fetch_add(1, std::memory_order_relaxed);
          } else if (outcome.status().IsResourceExhausted()) {
            overload_count.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << outcome.status().ToString();
          }
        }
      });
    }

    // Audit reader thread: snapshots and renders the compliance ring while
    // workers append to it — TSan exercises the Record/Snapshot lock pair.
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        std::vector<AuditRecord> records = service.audit()->Snapshot();
        for (const AuditRecord& r : records) {
          if (r.id == 0) ADD_FAILURE() << "audit record without an id";
        }
        std::string json = service.audit()->RenderJson();
        if (json.empty()) ADD_FAILURE() << "empty audit export";
        std::this_thread::yield();
      }
    });

    // Writer thread: keeps demanding full release and accepting whatever
    // proposal comes back, interleaving catalog writes with the readers.
    clients.emplace_back([&] {
      SessionHandle writer = *service.OpenSession("user1", "investment");
      for (int i = 0; i < 10; ++i) {
        Result<QueryOutcome> outcome = service.Submit(
            writer, {.sql = kCandidateQuery, .required_fraction = 1.0});
        if (!outcome.ok()) {  // overload is fine here
          overload_count.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok_count.fetch_add(1, std::memory_order_relaxed);
        if (!outcome->proposal.needed) break;  // confidence already improved
        // A concurrent Accept may have raced this proposal stale; both
        // outcomes (applied or rejected as no-longer-an-increase) are legal.
        if (service.Accept(outcome->proposal).ok()) {
          accepted_writes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }  // jthreads join

  // The writer must have pushed at least one increment through, and the
  // improved confidence must now release the candidate row to Managers.
  EXPECT_GE(accepted_writes.load(), 1u);
  EXPECT_GT(catalog_.confidence_version(), 0u);
  QueryOutcome final_outcome = *service.Submit(
      sessions[1], {.sql = kCandidateQuery, .required_fraction = 1.0});
  EXPECT_EQ(final_outcome.released.size(), 1u);

  // Counter reconciliation once the system is idle.
  ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.submitted,
            stats.served + stats.failed + stats.expired + stats.shutdown_dropped);
  EXPECT_EQ(stats.served, ok_count.load() + 1 /* final_outcome */);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, overload_count.load());
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  uint64_t histogram_total = 0;
  for (uint64_t bucket : stats.latency_buckets) histogram_total += bucket;
  EXPECT_EQ(histogram_total, stats.served + stats.failed);

  // Every served decision appended an audit record (plus one per Accept
  // attempt), so the ring's lifetime count is at least the served count.
  EXPECT_GE(service.audit()->total_recorded(), stats.served);

  service.Shutdown();
}

// The service caches a grouped result with its lineage still deferred and
// never writes it again. Concurrent hits, a session whose shortfall solve
// boxes lineage, and a client materializing its served outcome each work on
// their own copy: every released set matches the row engine's, and a hit
// served afterwards is still deferred over an empty arena.
TEST_F(ServiceStressTest, CachedGroupedEntryIsNeverWritten) {
  Table* readings = *catalog_.CreateTable(
      "Readings", Schema({{"site", DataType::kInt64, ""}, {"value", DataType::kDouble, ""}}));
  for (int64_t i = 0; i < 18; ++i) {
    // Six groups of three; the low-confidence groups fall below both β.
    ASSERT_TRUE(readings
                    ->Insert({Value::Int(i % 6), Value::Double(static_cast<double>(i))},
                             0.1 + 0.045 * static_cast<double>(i), *MakeLinearCost(10.0))
                    .ok());
  }
  const std::string sql =
      "SELECT site, COUNT(*) AS n, SUM(value) AS total FROM readings GROUP BY site";

  // Row-engine oracle per purpose (β 0.05 for analysis, 0.06 for investment).
  QueryResult oracle = *RunQuery(catalog_, sql, nullptr, ExecutionMode::kRow);
  std::vector<std::vector<size_t>> expected(2);
  for (int u = 0; u < 2; ++u) {
    QueryRequest request{sql, "user" + std::to_string(u), u == 0 ? "analysis" : "investment",
                         0.0};
    QueryOutcome row_outcome = *engine_->Complete(
        request, *RunQuery(catalog_, sql, nullptr, ExecutionMode::kRow, nullptr,
                           engine_->ResolvePushdownBeta(request)));
    expected[static_cast<size_t>(u)] = row_outcome.released;
  }
  ASSERT_LT(expected[0].size(), oracle.rows.size());  // something is blocked

  QueryService service(engine_.get(),
                       {.num_workers = 4, .queue_capacity = 256, .cache_capacity = 8});
  auto matches_row_engine = [&](const QueryOutcome& outcome, int u) {
    if (outcome.released != expected[static_cast<size_t>(u % 2)]) return false;
    for (size_t i : outcome.released) {
      if (outcome.intermediate.ValuesOfRow(i) != oracle.rows[i].values ||
          outcome.intermediate.rows[i].confidence != oracle.rows[i].confidence) {
        return false;
      }
    }
    return true;
  };

  {
    std::vector<std::jthread> clients;
    // Readers: θ = 0, served from the one cached entry, never boxed.
    for (int u = 0; u < 6; ++u) {
      clients.emplace_back([&, u] {
        SessionHandle session = *service.OpenSession(
            "user" + std::to_string(u), u % 2 == 0 ? "analysis" : "investment");
        for (int i = 0; i < 30; ++i) {
          Result<QueryOutcome> outcome =
              service.Submit(session, {.sql = sql, .required_fraction = 0.0});
          ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
          EXPECT_TRUE(matches_row_engine(*outcome, u));
          EXPECT_TRUE(outcome->intermediate.defer_lineage);
          EXPECT_EQ(outcome->intermediate.arena->size(), 0u);
        }
      });
    }
    // Shortfall: θ > 0 makes the solver box the blocked rows' lineage.
    clients.emplace_back([&] {
      SessionHandle session = *service.OpenSession("user6", "analysis");
      for (int i = 0; i < 10; ++i) {
        Result<QueryOutcome> outcome = service.Submit(
            session, {.sql = sql, .required_fraction = 1.0, .solver = SolverKind::kGreedy});
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_TRUE(matches_row_engine(*outcome, 0));
        EXPECT_TRUE(outcome->proposal.needed);
        EXPECT_FALSE(outcome->intermediate.defer_lineage);
        EXPECT_GT(outcome->intermediate.arena->size(), 0u);
      }
    });
    // A client boxing the lineage of the outcome it was served.
    clients.emplace_back([&] {
      SessionHandle session = *service.OpenSession("user7", "investment");
      for (int i = 0; i < 10; ++i) {
        Result<QueryOutcome> outcome =
            service.Submit(session, {.sql = sql, .required_fraction = 0.0});
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_TRUE(matches_row_engine(*outcome, 1));
        outcome->intermediate.MaterializeLineage();
        for (size_t r = 0; r < oracle.rows.size(); ++r) {
          EXPECT_EQ(outcome->intermediate.arena->ToString(outcome->intermediate.rows[r].lineage),
                    oracle.arena->ToString(oracle.rows[r].lineage));
        }
      }
    });
  }  // jthreads join

  uint64_t hits_before = service.stats().cache_hits;
  SessionHandle late = *service.OpenSession("user8", "analysis");
  QueryOutcome after = *service.Submit(late, {.sql = sql, .required_fraction = 0.0});
  EXPECT_EQ(service.stats().cache_hits, hits_before + 1);
  EXPECT_TRUE(after.intermediate.defer_lineage);
  EXPECT_EQ(after.intermediate.arena->size(), 0u);
  EXPECT_TRUE(matches_row_engine(after, 0));
  EXPECT_EQ(service.stats().failed, 0u);
  service.Shutdown();
}

TEST_F(ServiceStressTest, ParallelSubmitAsyncFloodRespectsAdmission) {
  QueryService service(engine_.get(),
                       {.num_workers = 2, .queue_capacity = 8, .cache_capacity = 16});
  SessionHandle session = *service.OpenSession("user0", "analysis");

  // Several producers flood a tiny queue; every future must resolve and
  // every submission must be either served or cleanly rejected.
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> resolved{0};
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        std::vector<std::future<Result<QueryOutcome>>> futures;
        for (int i = 0; i < 50; ++i) {
          auto future = service.SubmitAsync(
              session, {.sql = "SELECT company FROM proposal"});
          if (future.ok()) {
            futures.push_back(std::move(*future));
          } else {
            ASSERT_TRUE(future.status().IsResourceExhausted());
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (auto& future : futures) {
          ASSERT_TRUE(future.get().ok());
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(resolved.load() + rejected.load(), 200u);
  EXPECT_EQ(stats.submitted, resolved.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.served, resolved.load());
}

}  // namespace
}  // namespace pcqe
