// Tests for operator-level query profiling (EXPLAIN ANALYZE): the
// OperatorProfiler collection protocol, differential row-vs-vectorized
// operator trees, the engine's profile flag and per-kind operator
// histograms, and the text/JSON renderings.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/pcqe_engine.h"
#include "query/query_engine.h"
#include "telemetry/profile.h"

namespace pcqe {
namespace {

/// orders(id, customer, amount) x customers(customer, region): enough shape
/// for a scan -> filter -> join plan in both engines.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* orders = *catalog_.CreateTable(
        "orders", Schema({{"id", DataType::kInt64, ""},
                          {"customer", DataType::kInt64, ""},
                          {"amount", DataType::kDouble, ""}}));
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(orders
                      ->Insert({Value::Int(i), Value::Int(i % 4),
                                Value::Double(static_cast<double>(i) * 25.0)},
                               0.5 + 0.01 * static_cast<double>(i % 40))
                      .ok());
    }
    Table* customers = *catalog_.CreateTable(
        "customers", Schema({{"customer", DataType::kInt64, ""},
                             {"region", DataType::kString, ""}}));
    for (int64_t c = 0; c < 4; ++c) {
      ASSERT_TRUE(customers
                      ->Insert({Value::Int(c),
                                Value::String("region-" + std::to_string(c))},
                               0.9)
                      .ok());
    }
  }

  Result<QueryResult> RunProfiled(ExecutionMode mode, OperatorProfile* profile) {
    return RunQuery(catalog_, kSql, nullptr, mode, profile);
  }

  static constexpr const char* kSql =
      "SELECT o.id, c.region FROM orders AS o JOIN customers AS c "
      "ON o.customer = c.customer WHERE o.amount < 500.0";

  Catalog catalog_;
};

TEST_F(ProfileTest, RowAndVectorizedProfilesAgreeOperatorByOperator) {
  OperatorProfile row_profile;
  OperatorProfile vec_profile;
  Result<QueryResult> row = RunProfiled(ExecutionMode::kRow, &row_profile);
  Result<QueryResult> vec = RunProfiled(ExecutionMode::kVectorized, &vec_profile);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  EXPECT_EQ(row_profile.mode, "row");
  EXPECT_EQ(vec_profile.mode, "vectorized");

  // Same plan, same tree: labels, parent links and per-operator row counts
  // must be identical across engines (the row engine is the reference).
  ASSERT_EQ(row_profile.nodes.size(), vec_profile.nodes.size());
  ASSERT_GE(row_profile.nodes.size(), 3u);  // at least scan, filter/scan, join
  for (size_t i = 0; i < row_profile.nodes.size(); ++i) {
    const OperatorProfile::Node& r = row_profile.nodes[i];
    const OperatorProfile::Node& v = vec_profile.nodes[i];
    EXPECT_EQ(r.label, v.label) << "node " << i;
    EXPECT_EQ(r.parent, v.parent) << "node " << i;
    EXPECT_EQ(r.rows_out, v.rows_out) << "node " << i;
    EXPECT_EQ(r.rows_in, v.rows_in) << "node " << i;
    // The row engine never touches column chunks.
    EXPECT_EQ(r.chunks, 0u) << "node " << i;
  }
  // Root reports the query's result cardinality.
  EXPECT_EQ(row_profile.nodes[0].rows_out, row->rows.size());
  EXPECT_EQ(vec_profile.nodes[0].rows_out, vec->rows.size());
  // The vectorized scans actually scanned chunks.
  uint64_t vec_chunks = 0;
  for (const OperatorProfile::Node& n : vec_profile.nodes) vec_chunks += n.chunks;
  EXPECT_GT(vec_chunks, 0u);
}

TEST_F(ProfileTest, RowsInSumsDirectChildren) {
  OperatorProfile profile;
  ASSERT_TRUE(RunProfiled(ExecutionMode::kVectorized, &profile).ok());
  for (size_t i = 0; i < profile.nodes.size(); ++i) {
    uint64_t child_rows = 0;
    bool has_children = false;
    for (const OperatorProfile::Node& n : profile.nodes) {
      if (n.parent == static_cast<int32_t>(i)) {
        has_children = true;
        child_rows += n.rows_out;
      }
    }
    if (has_children) {
      EXPECT_EQ(profile.nodes[i].rows_in, child_rows) << "node " << i;
    } else {
      EXPECT_EQ(profile.nodes[i].rows_in, profile.nodes[i].rows_out)
          << "leaf " << i;
    }
  }
}

TEST_F(ProfileTest, NullProfilerIsInert) {
  OperatorProfiler profiler(nullptr);
  EXPECT_FALSE(profiler.enabled());
  size_t node = profiler.Begin("Scan t");
  OperatorProfiler::Extra extra;
  extra.chunks = 3;
  profiler.End(node, 42, extra);  // must not crash or record anywhere
  Result<QueryResult> result = RunProfiled(ExecutionMode::kVectorized, nullptr);
  ASSERT_TRUE(result.ok());
}

TEST_F(ProfileTest, RenderTextAndJsonCarryTheTree) {
  OperatorProfile profile;
  ASSERT_TRUE(RunProfiled(ExecutionMode::kVectorized, &profile).ok());
  std::string text = profile.RenderText();
  EXPECT_NE(text.find("explain analyze [vectorized]"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan orders"), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("time="), std::string::npos);

  std::string json = profile.RenderJson();
  EXPECT_NE(json.find("\"mode\":\"vectorized\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"operators\":["), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\""), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

/// Extracts the numeric value of one exposition sample line.
double SampleValue(const std::string& text, const std::string& name) {
  size_t pos = text.find("\n" + name + " ");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + 1 + name.size() + 1, nullptr);
}

TEST_F(ProfileTest, EngineProfileFlagFeedsOutcomeAndHistograms) {
  RoleGraph roles;
  ASSERT_TRUE(roles.AddRole("R").ok());
  ASSERT_TRUE(roles.AddUser("u").ok());
  ASSERT_TRUE(roles.AssignRole("u", "R").ok());
  PolicyStore policies;
  ASSERT_TRUE(policies.AddPolicy(roles, {"R", "general", 0.4}).ok());
  PcqeEngine engine(&catalog_, std::move(roles), std::move(policies));
  TelemetryRegistry registry;
  Tracer tracer(4);
  engine.AttachTelemetry(&registry, &tracer);

  // Pushdown off: fraction 0 would otherwise qualify, and the vectorized
  // prune operator fuses the scan it wraps (no separate Scan node).
  QueryRequest off{kSql, "u", "general", 0.0};
  off.pushdown = false;
  Result<QueryOutcome> plain = engine.Submit(off);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->profile, nullptr);
  EXPECT_EQ(SampleValue(registry.RenderText(),
                        "pcqe_query_operator_seconds_scan_count"),
            0.0);

  QueryRequest on{kSql, "u", "general", 0.0};
  on.profile = true;
  on.pushdown = false;
  Result<QueryOutcome> profiled = engine.Submit(on);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_NE(profiled->profile, nullptr);
  EXPECT_FALSE(profiled->profile->nodes.empty());
  EXPECT_EQ(profiled->profile->nodes[0].rows_out,
            profiled->intermediate.rows.size());
  // Each profiled operator fed its per-kind wall-time histogram.
  std::string text = registry.RenderText();
  EXPECT_GT(SampleValue(text, "pcqe_query_operator_seconds_scan_count"), 0.0);
  EXPECT_GT(SampleValue(text, "pcqe_query_operator_seconds_join_count"), 0.0);

  // With pushdown on, the profiled prune operator feeds its own histogram.
  QueryRequest pushed{kSql, "u", "general", 0.0};
  pushed.profile = true;
  Result<QueryOutcome> pushed_profiled = engine.Submit(pushed);
  ASSERT_TRUE(pushed_profiled.ok()) << pushed_profiled.status().ToString();
  EXPECT_TRUE(pushed_profiled->intermediate.pushed_down);
  EXPECT_GT(SampleValue(registry.RenderText(),
                        "pcqe_query_operator_seconds_confidenceprune_count"),
            0.0);
}

}  // namespace
}  // namespace pcqe
