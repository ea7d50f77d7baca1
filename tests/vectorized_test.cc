// Differential harness for the vectorized execution core: the row-at-a-time
// interpreter (query/executor.h) is the reference; the column-chunk
// interpreter (query/vec_executor.h) must be *bit-identical* — same values,
// same row order, the exact same IEEE doubles for every confidence, the same
// lineage formulas, the same released sets and solver costs through the full
// engine pipeline.
//
// Three layers of checking:
//  - a seeded sweep of 264 random catalog/query instances spanning scans,
//    kernelized (negative literals included) and fallback filters,
//    factorized joins (with duplicate keys), DISTINCT / GROUP BY with every
//    aggregate and NULL, string, multi-column, BIGINT and expression keys,
//    deferred and eagerly interned group lineage, set ops, ORDER BY and
//    LIMIT;
//  - chunk-topology edge cases: empty tables, singletons, and tables sized
//    exactly at / one off the 2048-row chunk boundary, with selections that
//    straddle it;
//  - engine-level parity: released row sets, released fractions and strategy
//    proposal costs across a β sweep, row vs. vectorized.
//
// On failure the seed prints via SCOPED_TRACE; replay with
// `BuildSweepCatalog(seed, ...)` + `SweepQuery(seed)`.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "cost/cost_function.h"
#include "engine/pcqe_engine.h"
#include "query/query_engine.h"
#include "query/vec_executor.h"
#include "relational/catalog.h"
#include "relational/column_chunk.h"

namespace pcqe {
namespace {

// orders(id INT64, customer INT64, amount DOUBLE, tag STRING, score INT64,
// delta DOUBLE) plus customers(customer INT64, region STRING). Customer keys
// are drawn from a small domain so joins see duplicate build keys and
// factorized groups with more than one member. `score` and `delta` are
// signed (negative-literal filters select on them) and nullable (NULL group
// keys and NULL aggregate arguments); they draw from their own generator, so
// adding them left the other columns' values as they were.
void BuildSweepCatalog(uint64_t seed, size_t num_orders, Catalog* catalog) {
  Rng rng(0xC0FFEE ^ seed);
  Rng signed_rng(0x5EED5 ^ seed);
  Table* orders = *catalog->CreateTable(
      "orders", Schema({{"id", DataType::kInt64, ""},
                        {"customer", DataType::kInt64, ""},
                        {"amount", DataType::kDouble, ""},
                        {"tag", DataType::kString, ""},
                        {"score", DataType::kInt64, ""},
                        {"delta", DataType::kDouble, ""}}));
  int64_t key_domain = static_cast<int64_t>(num_orders / 3) + 2;
  auto score = [&] {
    return signed_rng.Bernoulli(0.2) ? Value::Null() : Value::Int(signed_rng.UniformInt(-6, 6));
  };
  auto delta = [&] {
    return signed_rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Double(signed_rng.Uniform(-100.0, 100.0));
  };
  for (size_t i = 0; i < num_orders; ++i) {
    ASSERT_TRUE(orders
                    ->Insert({Value::Int(static_cast<int64_t>(i)),
                              Value::Int(rng.UniformInt(0, key_domain)),
                              Value::Double(rng.Uniform(0.0, 1000.0)),
                              Value::String(StrFormat("tag-%d", static_cast<int>(
                                                                    rng.UniformInt(0, 4)))),
                              score(), delta()},
                             rng.Uniform(0.05, 0.95))
                    .ok());
  }
  Table* customers = *catalog->CreateTable(
      "customers", Schema({{"customer", DataType::kInt64, ""},
                           {"region", DataType::kString, ""}}));
  for (int64_t c = 0; c <= key_domain; ++c) {
    // Leave some keys dangling so probes miss, and duplicate a few so the
    // generic multi-match path runs on the build side too.
    if (rng.Bernoulli(0.15)) continue;
    size_t copies = rng.Bernoulli(0.2) ? 2 : 1;
    for (size_t k = 0; k < copies; ++k) {
      ASSERT_TRUE(customers
                      ->Insert({Value::Int(c), Value::String(StrFormat(
                                                   "region-%d", static_cast<int>(c % 7)))},
                               rng.Uniform(0.05, 0.95))
                      .ok());
    }
  }
}

// Query shapes in the sweep; every shape runs kInstancesPerShape times.
constexpr uint64_t kNumShapes = 33;
constexpr uint64_t kInstancesPerShape = 8;

// A query family covering every vectorized operator and both the typed
// kernels and the row-at-a-time fallback (string predicates, computed
// projections), plus negative literals, every aggregate, multi-column,
// string and expression GROUP BY keys, NULL keys and arguments, a
// two-column DISTINCT over a join and a DISTINCT over a self-join. The last
// eight shapes cover deferred group lineage: grouped results under ORDER BY,
// LIMIT and HAVING, single-member groups, BIGINT keys with NULLs, and grouped
// subqueries consumed by a join, a grouping or beside a UNION that interns
// the same formulas. Literals derive from the seed so selectivities vary.
std::string SweepQuery(uint64_t seed) {
  double amount = 100.0 + 60.0 * static_cast<double>(seed % 13);
  int64_t key = static_cast<int64_t>(seed % 9);
  int tag = static_cast<int>(seed % 5);
  double neg = 5.0 + 7.5 * static_cast<double>(seed % 11);
  int64_t neg_score = static_cast<int64_t>(seed % 6);
  switch (seed % kNumShapes) {
    case 0:
      return "SELECT * FROM orders";
    case 1:
      return StrFormat("SELECT id, amount FROM orders WHERE amount < %g", amount);
    case 2:
      return StrFormat(
          "SELECT * FROM orders WHERE customer = %lld AND amount > %g",
          static_cast<long long>(key), amount);
    case 3:  // flipped literal-column comparison
      return StrFormat("SELECT id FROM orders WHERE %g > amount", amount);
    case 4:
      return "SELECT o.id, c.region FROM orders AS o "
             "JOIN customers AS c ON o.customer = c.customer";
    case 5:
      return StrFormat(
          "SELECT o.id, c.region FROM orders AS o "
          "JOIN customers AS c ON o.customer = c.customer WHERE o.amount < %g",
          amount);
    case 6:
      return StrFormat("SELECT DISTINCT customer FROM orders WHERE amount < %g",
                       amount);
    case 7:
      return "SELECT customer, COUNT(*) AS n, SUM(amount) AS total "
             "FROM orders GROUP BY customer";
    case 8:
      return "SELECT customer FROM orders UNION SELECT customer FROM customers";
    case 9:
      return StrFormat(
          "SELECT customer FROM orders EXCEPT "
          "SELECT customer FROM customers WHERE customer > %lld",
          static_cast<long long>(key));
    case 10:
      return "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 7";
    case 11:  // string predicate (no typed kernel) + computed projection
      return StrFormat(
          "SELECT id, amount * 2 + 1 AS v FROM orders WHERE tag = 'tag-%d'", tag);
    case 12:  // equi-join with a residual conjunct in the ON clause
      return StrFormat(
          "SELECT o.id, c.region FROM orders AS o "
          "JOIN customers AS c ON o.customer = c.customer AND o.amount > %g",
          amount);
    case 13:
      return StrFormat(
          "SELECT customer, COUNT(*) AS n FROM orders WHERE amount > %g "
          "GROUP BY customer ORDER BY customer",
          amount);
    case 14:
      return "SELECT customer FROM orders INTERSECT SELECT customer FROM customers";
    case 15:  // the paper's running-example shape: DISTINCT subquery + join
      return StrFormat(
          "SELECT c.customer, c.region FROM "
          "(SELECT DISTINCT customer FROM orders WHERE amount < %g) AS a "
          "JOIN customers AS c ON a.customer = c.customer",
          amount);
    case 16:  // negative-literal range filters, DOUBLE and BIGINT, one flipped
      return StrFormat(
          "SELECT id, score, delta FROM orders "
          "WHERE delta >= -%g AND delta < %g AND -%lld <= score",
          neg, 60.0 - neg, static_cast<long long>(neg_score));
    case 17:  // NULL group keys; AVG/MIN/MAX over nullable and string columns
      return StrFormat(
          "SELECT score, AVG(amount) AS mean, MIN(delta) AS lo, MAX(tag) AS hi, "
          "COUNT(delta) AS n FROM orders WHERE amount < %g GROUP BY score",
          amount);
    case 18:  // multi-column GROUP BY with a string key
      return StrFormat(
          "SELECT tag, score, COUNT(*) AS n, SUM(score) AS s, MAX(amount) AS top "
          "FROM orders WHERE delta > -%g GROUP BY tag, score",
          neg);
    case 19:  // expression keys (negative literal inside) and an expression argument
      return "SELECT score - -3 AS k, COUNT(*) AS n, SUM(amount + delta) AS s, "
             "MIN(score * 2) AS m FROM orders GROUP BY score - -3";
    case 20:  // two-column DISTINCT over a join, NULLs in one column
      return StrFormat(
          "SELECT DISTINCT c.region, o.score FROM orders AS o "
          "JOIN customers AS c ON o.customer = c.customer WHERE o.amount < %g",
          amount);
    case 21:  // global aggregates, empty input when nothing clears the filter
      return StrFormat(
          "SELECT COUNT(*), COUNT(score), SUM(delta), AVG(score), MIN(delta), "
          "MAX(score) FROM orders WHERE delta < -%g",
          90.0 + static_cast<double>(seed % 3) * 5.0);
    case 22:  // DISTINCT with a NULL group, ordered
      return "SELECT DISTINCT score, tag FROM orders ORDER BY score, tag";
    case 23:  // self-join DISTINCT: the pairs (i, j) and (j, i) share a lineage
              // node whose child order is set by whichever is interned first
      return StrFormat(
          "SELECT DISTINCT a.tag FROM orders AS a JOIN orders AS b "
          "ON a.customer = b.customer WHERE b.amount < %g",
          amount);
    case 24:  // HAVING over aggregate columns, GROUP BY a join column
      return StrFormat(
          "SELECT c.region, MIN(o.amount) AS lo, AVG(o.delta) AS d FROM orders AS o "
          "JOIN customers AS c ON o.customer = c.customer "
          "GROUP BY c.region HAVING MIN(o.amount) < %g",
          amount);
    case 25:  // ORDER BY + LIMIT over a deferred GROUP BY
      return StrFormat(
          "SELECT customer, COUNT(*) AS n, MAX(amount) AS top FROM orders "
          "WHERE amount < %g GROUP BY customer ORDER BY n DESC, customer LIMIT 5",
          amount);
    case 26:  // HAVING on an aggregate outside the select list
      return StrFormat(
          "SELECT score, SUM(amount) AS s FROM orders WHERE amount < %g "
          "GROUP BY score HAVING COUNT(*) > 1",
          amount);
    case 27:  // single-member DISTINCT groups over two BIGINT keys
      return StrFormat("SELECT DISTINCT id, customer FROM orders WHERE amount > %g",
                       amount);
    case 28:  // a grouped subquery joined to a table
      return StrFormat(
          "SELECT g.customer, g.n, o.id FROM "
          "(SELECT customer, COUNT(*) AS n FROM orders GROUP BY customer) AS g "
          "JOIN orders AS o ON g.customer = o.customer WHERE o.amount < %g",
          amount);
    case 29:  // a grouped subquery joined to itself
      return StrFormat(
          "SELECT a.customer, b.customer FROM "
          "(SELECT DISTINCT customer FROM orders WHERE amount < %g) AS a JOIN "
          "(SELECT DISTINCT customer FROM orders WHERE amount < %g) AS b "
          "ON a.customer = b.customer",
          amount, amount);
    case 30:  // GROUP BY over a grouped subquery
      return "SELECT n, COUNT(*) AS k, SUM(total) AS s FROM "
             "(SELECT customer, COUNT(*) AS n, SUM(amount) AS total FROM orders "
             "GROUP BY customer) AS g GROUP BY n";
    case 31:  // one- and two-column BIGINT keys with NULLs
      return seed % 2 == 0
                 ? StrFormat("SELECT DISTINCT score FROM orders WHERE delta > -%g", neg)
                 : StrFormat(
                       "SELECT customer, score, COUNT(*) AS n, MIN(delta) AS lo FROM orders "
                       "WHERE amount < %g GROUP BY customer, score",
                       amount);
    default:  // a DISTINCT subquery beside a UNION whose groups have the same
              // members in another order: the DISTINCT's formulas must be
              // interned first, as the row engine interns them
      return StrFormat(
          "SELECT x.customer, y.customer FROM (SELECT DISTINCT customer FROM orders) AS x "
          "JOIN (SELECT customer FROM orders WHERE amount >= %g UNION "
          "SELECT customer FROM orders WHERE amount < %g) AS y "
          "ON x.customer = y.customer",
          amount, amount);
  }
}

// Bit-identity: values compare with Value::operator== (and by type, so an
// INT 3 never stands in for a DOUBLE 3.0), confidences with exact double
// equality (no tolerance — the contract is the same IEEE bits), and lineage
// formulas by their rendering, child order included.
void ExpectBitIdentical(const QueryResult& row_result, const QueryResult& vec_result) {
  ASSERT_EQ(row_result.schema.num_columns(), vec_result.schema.num_columns());
  ASSERT_EQ(row_result.rows.size(), vec_result.rows.size());
  for (size_t r = 0; r < row_result.rows.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "row " << r);
    const QueryResult::Row& a = row_result.rows[r];
    const QueryResult::Row& b = vec_result.rows[r];
    const std::vector<Value> a_values = row_result.ValuesOfRow(r);
    const std::vector<Value> b_values = vec_result.ValuesOfRow(r);
    ASSERT_EQ(a_values.size(), b_values.size());
    for (size_t c = 0; c < a_values.size(); ++c) {
      EXPECT_EQ(a_values[c], b_values[c]) << "column " << c;
      EXPECT_EQ(a_values[c].type(), b_values[c].type()) << "column " << c;
    }
    EXPECT_EQ(a.confidence, b.confidence);
    if (!vec_result.defer_lineage) {
      EXPECT_EQ(row_result.arena->ToString(a.lineage), vec_result.arena->ToString(b.lineage));
    }
  }
}

void RunBothAndCompare(const Catalog& catalog, const std::string& sql) {
  SCOPED_TRACE(::testing::Message() << "query: " << sql);
  Result<QueryResult> row_result =
      RunQuery(catalog, sql, nullptr, ExecutionMode::kRow);
  Result<QueryResult> vec_result =
      RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
  ASSERT_EQ(row_result.ok(), vec_result.ok());
  ASSERT_TRUE(row_result.ok()) << row_result.status().ToString();
  // The row interpreter ran: it scans no column chunk.
  EXPECT_EQ(row_result->vec_stats.chunks_scanned, 0u);
  ExpectBitIdentical(*row_result, *vec_result);

  // Confidences must come out bit-identical before any deferred lineage is
  // interned, and interning it on demand must reproduce the row oracle's
  // formulas exactly.
  Result<QueryResult> deferred = RunQuery(catalog, sql, nullptr,
                                          ExecutionMode::kVectorized);
  ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
  ASSERT_EQ(deferred->rows.size(), row_result->rows.size());
  for (size_t r = 0; r < deferred->rows.size(); ++r) {
    EXPECT_EQ(deferred->rows[r].confidence, row_result->rows[r].confidence)
        << "deferred confidence, row " << r;
  }
  deferred->MaterializeLineage();
  ExpectBitIdentical(*row_result, *deferred);
}

// ≥ 100 seeded instances (the harness contract), kInstancesPerShape of
// each shape; sizes cycle through small tables, a prime mid-size and an
// exact chunk multiple.
TEST(VectorizedDifferential, SeededSweepIsBitIdentical) {
  constexpr uint64_t kNumInstances = kNumShapes * kInstancesPerShape;
  constexpr size_t kSizes[] = {0, 1, 3, 17, 100, 257, 500};
  for (uint64_t seed = 0; seed < kNumInstances; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Catalog catalog;
    BuildSweepCatalog(seed, kSizes[seed % (sizeof(kSizes) / sizeof(kSizes[0]))],
                      &catalog);
    RunBothAndCompare(catalog, SweepQuery(seed));
  }
}

// Chunk topology: table sizes at and around the 2048-row boundary, with a
// filter whose survivors straddle chunks and a join on top.
TEST(VectorizedDifferential, ChunkBoundarySizes) {
  for (size_t rows : {kColumnChunkCapacity - 1, kColumnChunkCapacity,
                      kColumnChunkCapacity + 1, 2 * kColumnChunkCapacity + 1}) {
    SCOPED_TRACE(::testing::Message() << "rows " << rows);
    Catalog catalog;
    BuildSweepCatalog(/*seed=*/rows, rows, &catalog);
    // Survivor window centered on the chunk boundary (ids are sequential).
    std::string straddle = StrFormat(
        "SELECT id, amount FROM orders WHERE id > %zu AND id < %zu",
        kColumnChunkCapacity - 40, kColumnChunkCapacity + 40);
    RunBothAndCompare(catalog, straddle);
    RunBothAndCompare(catalog,
                      "SELECT o.id, c.region FROM orders AS o "
                      "JOIN customers AS c ON o.customer = c.customer "
                      "WHERE o.amount < 500.0");
    RunBothAndCompare(catalog, "SELECT COUNT(*), SUM(amount) FROM orders");
  }
}

TEST(VectorizedDifferential, EmptyAndSingletonTables) {
  Catalog catalog;
  BuildSweepCatalog(/*seed=*/1, /*num_orders=*/0, &catalog);
  RunBothAndCompare(catalog, "SELECT * FROM orders");
  RunBothAndCompare(catalog, "SELECT * FROM orders WHERE amount > 10.0");
  RunBothAndCompare(catalog,
                    "SELECT o.id FROM orders AS o "
                    "JOIN customers AS c ON o.customer = c.customer");
  RunBothAndCompare(catalog, "SELECT COUNT(*) FROM orders");

  Catalog one;
  BuildSweepCatalog(/*seed=*/2, /*num_orders=*/1, &one);
  RunBothAndCompare(one, "SELECT * FROM orders");
  RunBothAndCompare(one, "SELECT customer, COUNT(*) FROM orders GROUP BY customer");
}

// `-<literal>` parses as a literal, so negative-literal range filters run on
// the typed kernels (no row goes through tuple-at-a-time evaluation), and so
// does grouping over their output.
TEST(VectorizedDifferential, NegativeLiteralFiltersStayOnKernels) {
  Catalog catalog;
  BuildSweepCatalog(/*seed=*/7, kColumnChunkCapacity + 300, &catalog);
  for (const char* sql :
       {"SELECT id, delta FROM orders WHERE delta >= -20.5 AND delta < -2",
        "SELECT id FROM orders WHERE -3 < score AND score <= - -4",
        "SELECT score, COUNT(*) AS n, AVG(delta) AS mean, MIN(amount) AS lo FROM orders "
        "WHERE delta >= -50 GROUP BY score",
        "SELECT DISTINCT score, tag FROM orders WHERE delta < -10.25"}) {
    SCOPED_TRACE(::testing::Message() << "query: " << sql);
    QueryResult vec = *RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
    EXPECT_GT(vec.rows.size(), 0u);
    EXPECT_EQ(vec.vec_stats.fallback_rows, 0u);
    RunBothAndCompare(catalog, sql);
  }
}

// Vectorized results stay unboxed and must box the row oracle's values on
// demand (ValuesOfRow) and render its table via ToTable.
TEST(VectorizedDifferential, DeferredValuesBoxOnDemand) {
  Catalog catalog;
  BuildSweepCatalog(/*seed=*/5, /*num_orders=*/100, &catalog);
  const std::string sql =
      "SELECT o.id, c.region FROM orders AS o "
      "JOIN customers AS c ON o.customer = c.customer WHERE o.amount < 700.0";
  QueryResult eager = *RunQuery(catalog, sql, nullptr, ExecutionMode::kRow);
  QueryResult deferred = *RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
  ASSERT_NE(deferred.columnar, nullptr);
  ASSERT_EQ(eager.rows.size(), deferred.rows.size());
  for (size_t i = 0; i < eager.rows.size(); ++i) {
    EXPECT_TRUE(deferred.rows[i].values.empty());
    EXPECT_EQ(deferred.ValuesOfRow(i), eager.rows[i].values);
    EXPECT_EQ(deferred.rows[i].confidence, eager.rows[i].confidence);
  }
  EXPECT_EQ(deferred.ToTable(10), eager.ToTable(10));
}

// Fully deferred results (pure scan/filter/join/sort/limit pipelines, and a
// DISTINCT or GROUP BY over one table under them) build no lineage nodes at
// all — confidences fold nodelessly over the factorized form — and intern
// the row engine's exact formulas on demand.
TEST(VectorizedDifferential, DeferredLineageBoxesRowEngineFormulas) {
  Catalog catalog;
  BuildSweepCatalog(/*seed=*/11, /*num_orders=*/300, &catalog);
  for (const std::string& sql : std::vector<std::string>{
           "SELECT * FROM orders",
           "SELECT id FROM orders WHERE amount < 600.0",
           "SELECT o.id, c.region FROM orders AS o "
           "JOIN customers AS c ON o.customer = c.customer",
           "SELECT o.id FROM orders AS o "
           "JOIN customers AS c ON o.customer = c.customer "
           "WHERE o.amount > 100.0 ORDER BY o.id LIMIT 50",
           "SELECT DISTINCT customer FROM orders",
           "SELECT DISTINCT score, tag FROM orders WHERE amount < 600.0",
           "SELECT customer, COUNT(*) AS n, SUM(amount) AS total FROM orders "
           "WHERE amount < 700.0 GROUP BY customer",
           "SELECT score, AVG(delta) AS d FROM orders GROUP BY score "
           "HAVING COUNT(*) > 2 ORDER BY d LIMIT 4",
           "SELECT COUNT(*) FROM orders WHERE amount < 0.0"}) {
    SCOPED_TRACE(::testing::Message() << "query: " << sql);
    QueryResult row = *RunQuery(catalog, sql, nullptr, ExecutionMode::kRow);
    QueryResult deferred = *RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
    ASSERT_TRUE(deferred.defer_lineage);
    EXPECT_EQ(deferred.arena->size(), 0u);  // nothing interned at all
    ASSERT_EQ(row.rows.size(), deferred.rows.size());
    for (size_t i = 0; i < row.rows.size(); ++i) {
      EXPECT_EQ(deferred.rows[i].lineage, kNullLineage);
      EXPECT_EQ(deferred.rows[i].confidence, row.rows[i].confidence);
    }
    // Boxing goes to a fresh arena: copies of a deferred result (the
    // service caches one and completes copies) never write into a shared one.
    QueryResult copy = deferred;
    deferred.MaterializeLineage();
    EXPECT_FALSE(deferred.defer_lineage);
    EXPECT_NE(deferred.arena, copy.arena);
    EXPECT_TRUE(copy.defer_lineage);
    EXPECT_EQ(copy.arena->size(), 0u);
    ConfidenceMap probs = *SnapshotConfidences(catalog, deferred);
    for (size_t i = 0; i < row.rows.size(); ++i) {
      // Same formula as the row engine, and re-evaluating it must land on
      // the exact double the nodeless fold produced.
      EXPECT_EQ(deferred.arena->ToString(deferred.rows[i].lineage),
                row.arena->ToString(row.rows[i].lineage));
      EXPECT_EQ(EvaluateIndependent(*deferred.arena, deferred.rows[i].lineage, probs),
                deferred.rows[i].confidence);
    }
  }
  // A grouping whose formulas an operator above it consumes interns them
  // itself, in the row engine's order; so does one over more than one factor.
  for (const char* sql :
       {"SELECT c.customer, c.region FROM (SELECT DISTINCT customer FROM orders) AS a "
        "JOIN customers AS c ON a.customer = c.customer",
        "SELECT DISTINCT c.region FROM orders AS o "
        "JOIN customers AS c ON o.customer = c.customer"}) {
    SCOPED_TRACE(::testing::Message() << "query: " << sql);
    QueryResult grouped = *RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
    EXPECT_NE(grouped.columnar, nullptr);
    EXPECT_FALSE(grouped.defer_lineage);
    EXPECT_GT(grouped.arena->size(), 0u);
  }
}

// Nine scan factors, one more than a deferred result may have: the executor
// interns every row's formula (the AND of nine leaves, repeated tuples
// deduped) and folds its confidence while it runs.
TEST(VectorizedDifferential, NineWaySelfJoinInternsEveryRow) {
  Catalog catalog;
  BuildSweepCatalog(/*seed=*/13, /*num_orders=*/60, &catalog);
  const std::string sql =
      "SELECT a.id, b.id, c.amount, h.tag, i.region FROM orders AS a "
      "JOIN orders AS b ON a.customer = b.customer "
      "JOIN orders AS c ON a.id = c.id JOIN orders AS d ON b.id = d.id "
      "JOIN orders AS e ON c.id = e.id JOIN orders AS f ON d.id = f.id "
      "JOIN orders AS g ON e.id = g.id JOIN orders AS h ON f.id = h.id "
      "JOIN customers AS i ON h.customer = i.customer";
  QueryResult vec = *RunQuery(catalog, sql, nullptr, ExecutionMode::kVectorized);
  ASSERT_EQ(vec.columnar->factors.size(), VecResult::kMaxDeferredScanFactors + 1);
  EXPECT_FALSE(vec.defer_lineage);
  EXPECT_GT(vec.rows.size(), 60u);
  EXPECT_GT(vec.arena->size(), 0u);
  RunBothAndCompare(catalog, sql);
}

// The vectorized scan must report chunk/batch telemetry.
TEST(VectorizedDifferential, StatsCountChunksAndGroups) {
  Catalog catalog;
  BuildSweepCatalog(/*seed=*/3, kColumnChunkCapacity + 10, &catalog);
  QueryResult scan = *RunQuery(catalog, "SELECT * FROM orders", nullptr,
                               ExecutionMode::kVectorized);
  EXPECT_EQ(scan.vec_stats.chunks_scanned, 2u);
  EXPECT_EQ(scan.vec_stats.rows_scanned, kColumnChunkCapacity + 10);

  QueryResult join = *RunQuery(catalog,
                               "SELECT o.id FROM orders AS o "
                               "JOIN customers AS c ON o.customer = c.customer",
                               nullptr, ExecutionMode::kVectorized);
  EXPECT_GT(join.vec_stats.join_groups, 0u);
  EXPECT_GT(join.vec_stats.max_group_rows, 1u);

  QueryResult row_mode =
      *RunQuery(catalog, "SELECT * FROM orders", nullptr, ExecutionMode::kRow);
  EXPECT_EQ(row_mode.vec_stats.rows_scanned, 0u);
}

// Engine-level parity: the released row set, released fraction and the
// strategy proposal (feasibility + exact cost) of a served request must match
// the row oracle's completed by the same engine, for every β. Solver costs are
// a function of the blocked rows' lineage, so any drift in lineage or
// confidence surfaces here as a cost mismatch.
TEST(VectorizedDifferential, EnginePipelineParityAcrossBeta) {
  // One grouped query and one pure pipeline; both defer their lineage and
  // intern it only when the solver needs the blocked rows.
  for (const char* sql : {"SELECT DISTINCT customer FROM orders WHERE amount < 600.0",
                          "SELECT id, amount FROM orders WHERE amount < 600.0"}) {
  for (double beta : {0.02, 0.10, 0.30, 0.60, 0.90}) {
    SCOPED_TRACE(::testing::Message() << "beta " << beta << " query " << sql);
    std::vector<std::unique_ptr<Catalog>> catalogs;
    std::vector<QueryOutcome> outcomes;
    for (ExecutionMode mode : {ExecutionMode::kRow, ExecutionMode::kVectorized}) {
      auto catalog = std::make_unique<Catalog>();
      Rng rng(99);
      Table* orders = *catalog->CreateTable(
          "orders", Schema({{"id", DataType::kInt64, ""},
                            {"customer", DataType::kInt64, ""},
                            {"amount", DataType::kDouble, ""}}));
      for (int64_t i = 0; i < 40; ++i) {
        ASSERT_TRUE(orders
                        ->Insert({Value::Int(i), Value::Int(i % 7),
                                  Value::Double(rng.Uniform(0.0, 1000.0))},
                                 rng.Uniform(0.05, 0.95),
                                 *MakeLinearCost(10.0 * static_cast<double>(1 + i % 5)))
                        .ok());
      }
      RoleGraph roles;
      ASSERT_TRUE(roles.AddRole("Analyst").ok());
      ASSERT_TRUE(roles.AddUser("ana").ok());
      ASSERT_TRUE(roles.AssignRole("ana", "Analyst").ok());
      PolicyStore policies;
      ASSERT_TRUE(policies.AddPolicy(roles, {"Analyst", "analysis", beta}).ok());
      auto engine = std::make_unique<PcqeEngine>(catalog.get(), std::move(roles),
                                                 std::move(policies));
      QueryRequest request{sql, "ana", "analysis", 1.0};
      if (mode == ExecutionMode::kRow) {
        outcomes.push_back(*engine->Complete(
            request, *RunQuery(*catalog, sql, nullptr, ExecutionMode::kRow, nullptr,
                               engine->ResolvePushdownBeta(request))));
      } else {
        outcomes.push_back(*engine->Submit(request));
      }
      catalogs.push_back(std::move(catalog));
    }
    QueryOutcome& row_out = outcomes[0];
    QueryOutcome& vec_out = outcomes[1];
    // The engine defers value boxing on the vectorized path; the bit-identity
    // comparison boxes through ValuesOfRow.
    EXPECT_NE(vec_out.intermediate.columnar, nullptr);
    EXPECT_EQ(row_out.released, vec_out.released);
    EXPECT_EQ(row_out.released_fraction, vec_out.released_fraction);
    EXPECT_EQ(row_out.proposal.needed, vec_out.proposal.needed);
    EXPECT_EQ(row_out.proposal.feasible, vec_out.proposal.feasible);
    EXPECT_EQ(row_out.proposal.total_cost, vec_out.proposal.total_cost);
    EXPECT_EQ(row_out.proposal.actions.size(), vec_out.proposal.actions.size());
    ExpectBitIdentical(row_out.intermediate, vec_out.intermediate);
  }
  }
}

}  // namespace
}  // namespace pcqe
