// Differential test layer for β pushdown (the planner's kConfidencePrune
// insertion, and the confidence bounds each column chunk keeps for chunk
// skipping): evaluating with pushdown ON must be
// *release-identical* to evaluating the full intermediate result and
// post-filtering — same released values, the exact same IEEE doubles for
// every released confidence, the same materialized lineage formulas, and
// audit verdict sequences that agree (the pushed sequence is the unpushed
// one restricted to survivors; every row pushdown pruned is policy-blocked).
//
// The sweep runs ≥128 seeded random catalog × query × β instances, each
// 4-way: {row, vectorized} × {pushdown on, off}, including plan shapes the
// gate must refuse (DISTINCT, GROUP BY, LIMIT, EXCEPT — where confidence is
// not monotone in the pruned inputs). On failure the seed prints via
// SCOPED_TRACE; replay with BuildPushdownCatalog(seed, ...) + SweepQuery.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "cost/cost_function.h"
#include "engine/pcqe_engine.h"
#include "query/query_engine.h"
#include "relational/catalog.h"
#include "relational/column_chunk.h"
#include "telemetry/audit.h"

namespace pcqe {
namespace {

// orders(id, customer, amount, tag) + customers(customer, region), random
// confidences over (0.02, 0.98) so every β in the sweep splits the tables.
void BuildPushdownCatalog(uint64_t seed, size_t num_orders, Catalog* catalog) {
  Rng rng(0xBEE7A ^ seed);
  Table* orders = *catalog->CreateTable(
      "orders", Schema({{"id", DataType::kInt64, ""},
                        {"customer", DataType::kInt64, ""},
                        {"amount", DataType::kDouble, ""},
                        {"tag", DataType::kString, ""}}));
  int64_t key_domain = static_cast<int64_t>(num_orders / 3) + 2;
  for (size_t i = 0; i < num_orders; ++i) {
    ASSERT_TRUE(orders
                    ->Insert({Value::Int(static_cast<int64_t>(i)),
                              Value::Int(rng.UniformInt(0, key_domain)),
                              Value::Double(rng.Uniform(0.0, 1000.0)),
                              Value::String(StrFormat(
                                  "tag-%d", static_cast<int>(rng.UniformInt(0, 4))))},
                             rng.Uniform(0.02, 0.98))
                    .ok());
  }
  Table* customers = *catalog->CreateTable(
      "customers", Schema({{"customer", DataType::kInt64, ""},
                           {"region", DataType::kString, ""}}));
  for (int64_t c = 0; c <= key_domain; ++c) {
    if (rng.Bernoulli(0.15)) continue;
    size_t copies = rng.Bernoulli(0.2) ? 2 : 1;
    for (size_t k = 0; k < copies; ++k) {
      ASSERT_TRUE(customers
                      ->Insert({Value::Int(c),
                                Value::String(StrFormat(
                                    "region-%d", static_cast<int>(c % 7)))},
                               rng.Uniform(0.02, 0.98))
                      .ok());
    }
  }
}

// Pushdown-safe shapes (scan / filter / project / join / sort / union-all)
// plus the shapes the gate must refuse. `IsSafeShape` mirrors the planner's
// verdict so the sweep can assert the gate, not just ride it.
std::string SweepQuery(uint64_t seed) {
  double amount = 100.0 + 60.0 * static_cast<double>(seed % 13);
  int64_t key = static_cast<int64_t>(seed % 9);
  int tag = static_cast<int>(seed % 5);
  switch (seed % 12) {
    case 0:
      return "SELECT * FROM orders";
    case 1:
      return StrFormat("SELECT id, amount FROM orders WHERE amount < %g", amount);
    case 2:
      return StrFormat(
          "SELECT * FROM orders WHERE customer = %lld AND amount > %g",
          static_cast<long long>(key), amount);
    case 3:
      return "SELECT o.id, c.region FROM orders AS o "
             "JOIN customers AS c ON o.customer = c.customer";
    case 4:
      return StrFormat(
          "SELECT o.id, c.region FROM orders AS o "
          "JOIN customers AS c ON o.customer = c.customer WHERE o.amount < %g",
          amount);
    case 5:
      return "SELECT id, amount FROM orders ORDER BY amount DESC, id";
    case 6:
      return "SELECT customer FROM orders UNION ALL SELECT customer FROM customers";
    case 7:
      return StrFormat(
          "SELECT id, amount * 2 + 1 AS v FROM orders WHERE tag = 'tag-%d'", tag);
    // Unsafe shapes: duplicate-merging set ops / EXCEPT raise confidence
    // through OR / NOT lineage; LIMIT's slot occupancy and GROUP BY's group
    // membership change with pruned inputs. The gate must refuse these.
    case 8:
      return StrFormat("SELECT DISTINCT customer FROM orders WHERE amount < %g",
                       amount);
    case 9:
      return "SELECT customer, COUNT(*) AS n FROM orders GROUP BY customer";
    case 10:
      return "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 7";
    default:
      return StrFormat(
          "SELECT customer FROM orders EXCEPT "
          "SELECT customer FROM customers WHERE customer > %lld",
          static_cast<long long>(key));
  }
}

bool IsSafeShape(uint64_t seed) { return seed % 12 < 8; }

std::unique_ptr<PcqeEngine> MakeEngine(Catalog* catalog, double beta) {
  RoleGraph roles;
  EXPECT_TRUE(roles.AddRole("analyst").ok());
  EXPECT_TRUE(roles.AddUser("ann").ok());
  EXPECT_TRUE(roles.AssignRole("ann", "analyst").ok());
  PolicyStore policies;
  EXPECT_TRUE(policies.AddPolicy(roles, {"analyst", "audit", beta}).ok());
  return std::make_unique<PcqeEngine>(catalog, std::move(roles),
                                      std::move(policies));
}

/// Everything observable about one evaluation that must be pushdown-mode
/// independent (released surface) or pushdown-explainable (blocked surface).
struct Observed {
  double beta = 0.0;
  bool pushed_down = false;
  uint64_t pruned_rows = 0;
  uint64_t pruned_chunks = 0;
  std::vector<std::vector<Value>> released_values;
  std::vector<double> released_confidences;
  std::vector<std::string> released_lineage;
  /// (confidence, lineage formula) of every blocked intermediate row.
  std::vector<std::pair<double, std::string>> blocked;
  /// Audit verdicts, in record order: (confidence, released).
  std::vector<std::pair<double, bool>> audit_verdicts;
  bool audit_pushed_down = false;
};

/// One request through the engine: served by `Submit` under `kVectorized`;
/// under `kRow` the row oracle evaluates it (with the β `Submit` would push)
/// and the engine completes that result.
Observed RunOne(PcqeEngine* engine, AuditLog* audit, const std::string& sql,
                ExecutionMode mode, bool pushdown) {
  QueryRequest request;
  request.sql = sql;
  request.user = "ann";
  request.purpose = "audit";
  // Fraction 0: release by β alone — the precondition under which pushdown
  // is provably identical (the strategy solver never runs in either mode).
  request.required_fraction = 0.0;
  request.pushdown = pushdown;
  Result<QueryOutcome> outcome =
      mode == ExecutionMode::kRow
          ? engine->Complete(request,
                             *RunQuery(*engine->catalog(), sql, nullptr, ExecutionMode::kRow,
                                       true, nullptr, engine->ResolvePushdownBeta(request)))
          : engine->Submit(request);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  Observed obs;
  if (!outcome.ok()) return obs;
  obs.beta = outcome->policy.threshold;
  QueryResult& qr = outcome->intermediate;
  obs.pushed_down = qr.pushed_down;
  obs.pruned_rows = qr.vec_stats.pruned_rows;
  obs.pruned_chunks = qr.vec_stats.pruned_chunks;
  qr.MaterializeLineage();
  std::vector<bool> released(qr.rows.size(), false);
  for (size_t i : outcome->released) released[i] = true;
  for (size_t i = 0; i < qr.rows.size(); ++i) {
    if (released[i]) {
      obs.released_values.push_back(qr.ValuesOfRow(i));
      obs.released_confidences.push_back(qr.rows[i].confidence);
      obs.released_lineage.push_back(qr.arena->ToString(qr.rows[i].lineage));
    } else {
      obs.blocked.emplace_back(qr.rows[i].confidence,
                               qr.arena->ToString(qr.rows[i].lineage));
    }
  }
  EXPECT_NE(outcome->audit_id, 0u);
  std::optional<AuditRecord> rec = audit->Get(outcome->audit_id);
  EXPECT_TRUE(rec.has_value());
  if (rec.has_value()) {
    EXPECT_EQ(rec->rows_truncated, 0u) << "raise the audit row cap";
    obs.audit_pushed_down = rec->pushed_down;
    for (const AuditRowDecision& d : rec->rows) {
      obs.audit_verdicts.emplace_back(d.confidence, d.released);
    }
  }
  return obs;
}

// The released surface — values, confidences (exact IEEE bits), lineage
// formulas — must be identical; every row the pushed evaluation still
// blocked must appear, bit-identically, among the unpushed blocked rows.
void ExpectReleaseIdentical(const Observed& off, const Observed& on) {
  EXPECT_EQ(off.beta, on.beta);
  ASSERT_EQ(off.released_values.size(), on.released_values.size());
  for (size_t r = 0; r < off.released_values.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "released row " << r);
    ASSERT_EQ(off.released_values[r].size(), on.released_values[r].size());
    for (size_t c = 0; c < off.released_values[r].size(); ++c) {
      EXPECT_EQ(off.released_values[r][c], on.released_values[r][c]);
    }
    EXPECT_EQ(off.released_confidences[r], on.released_confidences[r]);
    EXPECT_EQ(off.released_lineage[r], on.released_lineage[r]);
  }
  // Pushed blocked rows ⊆ unpushed blocked rows (multiset, by formula).
  std::map<std::pair<double, std::string>, int> unpushed_blocked;
  for (const auto& b : off.blocked) ++unpushed_blocked[b];
  for (const auto& b : on.blocked) {
    auto it = unpushed_blocked.find(b);
    ASSERT_NE(it, unpushed_blocked.end())
        << "pushed evaluation surfaced a blocked row the reference lacks: "
        << b.second;
    if (--it->second == 0) unpushed_blocked.erase(it);
  }
  // Audit verdict sequences: released verdicts agree exactly; the pushed
  // record's blocked verdicts are a subsequence of the unpushed record's.
  std::vector<double> off_released;
  std::vector<double> on_released;
  for (const auto& [conf, rel] : off.audit_verdicts) {
    if (rel) off_released.push_back(conf);
  }
  for (const auto& [conf, rel] : on.audit_verdicts) {
    if (rel) on_released.push_back(conf);
  }
  EXPECT_EQ(off_released, on_released);
}

TEST(PlannerPushdownDifferential, SeededSweepIsReleaseIdentical) {
  constexpr uint64_t kNumInstances = 128;
  constexpr size_t kSizes[] = {0, 1, 3, 17, 100, 257, 500};
  for (uint64_t seed = 0; seed < kNumInstances; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Catalog catalog;
    BuildPushdownCatalog(seed, kSizes[seed % (sizeof(kSizes) / sizeof(kSizes[0]))],
                         &catalog);
    // β spread over (0, 1) — both near-nothing and near-everything prunes.
    double beta = 0.05 + 0.9 * static_cast<double>(seed % 19) / 19.0;
    std::unique_ptr<PcqeEngine> engine = MakeEngine(&catalog, beta);
    AuditLog audit(/*capacity=*/16, /*max_rows_per_record=*/1 << 20);
    engine->AttachAudit(&audit);
    std::string sql = SweepQuery(seed);
    SCOPED_TRACE(::testing::Message() << "query: " << sql << " beta " << beta);

    Observed row_off = RunOne(engine.get(), &audit, sql, ExecutionMode::kRow, false);
    Observed row_on = RunOne(engine.get(), &audit, sql, ExecutionMode::kRow, true);
    Observed vec_off =
        RunOne(engine.get(), &audit, sql, ExecutionMode::kVectorized, false);
    Observed vec_on =
        RunOne(engine.get(), &audit, sql, ExecutionMode::kVectorized, true);

    // Opted-out evaluations never carry a prune node.
    EXPECT_FALSE(row_off.pushed_down);
    EXPECT_FALSE(vec_off.pushed_down);
    EXPECT_FALSE(row_off.audit_pushed_down);
    // The gate: safe shapes push down; unsafe shapes must evaluate unpushed
    // even when asked.
    EXPECT_EQ(row_on.pushed_down, IsSafeShape(seed));
    EXPECT_EQ(vec_on.pushed_down, IsSafeShape(seed));
    EXPECT_EQ(row_on.audit_pushed_down, IsSafeShape(seed));

    ExpectReleaseIdentical(row_off, row_on);
    ExpectReleaseIdentical(vec_off, vec_on);
    // Cross-engine: the row interpreter is the differential reference for
    // the vectorized one in both pushdown modes.
    ExpectReleaseIdentical(row_off, vec_off);
    ExpectReleaseIdentical(row_on, vec_on);
    // Both engines prune row-exactly, so the pruned-row totals agree (the
    // vectorized engine additionally skips whole chunks).
    EXPECT_EQ(row_on.pruned_rows, vec_on.pruned_rows);
    EXPECT_EQ(row_on.pruned_chunks, 0u);
    EXPECT_EQ(row_off.pruned_rows, 0u);
    EXPECT_EQ(vec_off.pruned_rows, 0u);
  }
}

// Chunk skipping: cluster low confidences into whole chunks so the zone map
// proves them sub-β without touching a row.
TEST(PlannerPushdownDifferential, ZoneMapSkipsWholeChunks) {
  Catalog catalog;
  Table* orders = *catalog.CreateTable(
      "orders", Schema({{"id", DataType::kInt64, ""},
                        {"amount", DataType::kDouble, ""}}));
  size_t n = 3 * kColumnChunkCapacity;
  for (size_t i = 0; i < n; ++i) {
    // First chunk entirely sub-β, second entirely above, third mixed.
    double conf = i < kColumnChunkCapacity            ? 0.10
                  : i < 2 * kColumnChunkCapacity      ? 0.90
                  : (i % 2 == 0 ? 0.10 : 0.90);
    ASSERT_TRUE(orders
                    ->Insert({Value::Int(static_cast<int64_t>(i)),
                              Value::Double(static_cast<double>(i))},
                             conf)
                    .ok());
  }
  std::unique_ptr<PcqeEngine> engine = MakeEngine(&catalog, 0.5);
  AuditLog audit(16, 1 << 20);
  engine->AttachAudit(&audit);
  const std::string sql = "SELECT id FROM orders WHERE amount >= 0";

  Observed off = RunOne(engine.get(), &audit, sql, ExecutionMode::kVectorized, false);
  Observed on = RunOne(engine.get(), &audit, sql, ExecutionMode::kVectorized, true);
  ExpectReleaseIdentical(off, on);
  EXPECT_TRUE(on.pushed_down);
  // Chunk 1 skipped wholesale; chunk 3's sub-β half pruned row-exactly.
  EXPECT_EQ(on.pruned_chunks, 1u);
  EXPECT_EQ(on.pruned_rows, kColumnChunkCapacity + kColumnChunkCapacity / 2);
  EXPECT_EQ(on.released_values.size(),
            kColumnChunkCapacity + kColumnChunkCapacity / 2);

  // Row engine: same pruned-row total, no chunk skipping, identical release.
  Observed row_on = RunOne(engine.get(), &audit, sql, ExecutionMode::kRow, true);
  ExpectReleaseIdentical(off, row_on);
  EXPECT_EQ(row_on.pruned_rows, on.pruned_rows);
  EXPECT_EQ(row_on.pruned_chunks, 0u);
}

// The qualification gate, piecewise: a non-zero required fraction, a zero
// policy threshold, or the opt-out knob must each disable pushdown.
TEST(PlannerPushdownDifferential, GateRefusesNonQualifyingRequests) {
  Catalog catalog;
  BuildPushdownCatalog(7, 100, &catalog);
  std::unique_ptr<PcqeEngine> engine = MakeEngine(&catalog, 0.5);
  const std::string sql = "SELECT * FROM orders";

  QueryRequest request;
  request.sql = sql;
  request.user = "ann";
  request.purpose = "audit";
  request.required_fraction = 0.0;
  EXPECT_TRUE(engine->ResolvePushdownBeta(request).has_value());

  QueryRequest fraction = request;
  fraction.required_fraction = 0.5;
  EXPECT_FALSE(engine->ResolvePushdownBeta(fraction).has_value());

  QueryRequest opted_out = request;
  opted_out.pushdown = false;
  EXPECT_FALSE(engine->ResolvePushdownBeta(opted_out).has_value());

  // No matching policy resolves to threshold 0 — nothing would prune, so
  // the engine evaluates unpushed (bit-identical, cache-shareable).
  QueryRequest no_policy = request;
  no_policy.purpose = "unregulated";
  EXPECT_FALSE(engine->ResolvePushdownBeta(no_policy).has_value());

  QueryRequest unsafe = request;
  unsafe.sql = "SELECT DISTINCT customer FROM orders";
  EXPECT_FALSE(engine->ResolvePushdownBeta(unsafe).has_value());

  QueryRequest malformed = request;
  malformed.sql = "SELECT FROM WHERE";
  EXPECT_FALSE(engine->ResolvePushdownBeta(malformed).has_value());
}

// Index maintenance: an accepted improvement bumps the confidence version,
// which must invalidate the zone map — the re-run must release the newly
// cleared rows (a stale map skipping their chunk would block them).
TEST(PlannerPushdownDifferential, AcceptedImprovementInvalidatesIndex) {
  Catalog catalog;
  Table* orders = *catalog.CreateTable(
      "orders", Schema({{"id", DataType::kInt64, ""}}));
  std::vector<BaseTupleId> ids;
  for (size_t i = 0; i < 10; ++i) {
    ids.push_back(*orders->Insert({Value::Int(static_cast<int64_t>(i))}, 0.2,
                                  *MakeLinearCost(10.0)));
  }
  std::unique_ptr<PcqeEngine> engine = MakeEngine(&catalog, 0.5);
  QueryRequest request;
  request.sql = "SELECT id FROM orders";
  request.user = "ann";
  request.purpose = "audit";
  request.required_fraction = 0.0;

  QueryOutcome before = *engine->Submit(request);
  EXPECT_TRUE(before.intermediate.pushed_down);
  EXPECT_EQ(before.released.size(), 0u);
  EXPECT_EQ(before.intermediate.rows.size(), 0u);  // everything pruned

  // Raise every tuple above β through the engine's own accept path.
  StrategyProposal proposal;
  proposal.needed = true;
  proposal.feasible = true;
  for (BaseTupleId id : ids) proposal.actions.push_back({id, 0.2, 0.9, 7.0});
  ASSERT_TRUE(engine->AcceptProposal(proposal).ok());

  QueryOutcome after = *engine->Submit(request);
  EXPECT_TRUE(after.intermediate.pushed_down);
  EXPECT_EQ(after.released.size(), ids.size());
  EXPECT_EQ(after.intermediate.vec_stats.pruned_rows, 0u);
}

// Unlogged growth: Insert does not bump the confidence version, so the zone
// map's row-count validation must catch it and rebuild.
TEST(PlannerPushdownDifferential, InsertInvalidatesIndexByRowCount) {
  Catalog catalog;
  Table* orders = *catalog.CreateTable(
      "orders", Schema({{"id", DataType::kInt64, ""}}));
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(orders->Insert({Value::Int(static_cast<int64_t>(i))}, 0.9).ok());
  }
  std::unique_ptr<PcqeEngine> engine = MakeEngine(&catalog, 0.5);
  QueryRequest request;
  request.sql = "SELECT id FROM orders";
  request.user = "ann";
  request.purpose = "audit";
  request.required_fraction = 0.0;
  EXPECT_EQ((*engine->Submit(request)).released.size(), 5u);

  // Same version, more rows — two above β, one below.
  ASSERT_TRUE(orders->Insert({Value::Int(100)}, 0.8).ok());
  ASSERT_TRUE(orders->Insert({Value::Int(101)}, 0.1).ok());
  ASSERT_TRUE(orders->Insert({Value::Int(102)}, 0.7).ok());
  QueryOutcome after = *engine->Submit(request);
  EXPECT_EQ(after.released.size(), 7u);
  EXPECT_EQ(after.intermediate.vec_stats.pruned_rows, 1u);
}

}  // namespace
}  // namespace pcqe
