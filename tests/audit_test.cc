// Tests for the policy-compliance audit log: engine-recorded query
// decisions (β, confidence version, per-row verdicts), the blocked-row
// privacy contract (lineage identifiers only, never values), accepted
// proposals, ring wraparound, and the JSON export.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/pcqe_engine.h"
#include "telemetry/audit.h"
#include "telemetry/metrics.h"

namespace pcqe {
namespace {

constexpr const char* kSecretBlocked = "SECRET-BLOCKED-VALUE-42";
constexpr const char* kSecretReleased = "public-value";

/// One table `t(id, secret)` with a low-confidence middle row holding a
/// sensitive value; policy <R, general, 0.5> blocks exactly that row.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t = *catalog_.CreateTable(
        "t", Schema({{"id", DataType::kInt64, ""},
                     {"secret", DataType::kString, ""}}));
    ASSERT_TRUE(
        t->Insert({Value::Int(1), Value::String(kSecretReleased)}, 0.9).ok());
    blocked_id_ = *t->Insert({Value::Int(2), Value::String(kSecretBlocked)}, 0.2,
                             *MakeLinearCost(100.0));
    ASSERT_TRUE(
        t->Insert({Value::Int(3), Value::String(kSecretReleased)}, 0.7).ok());

    RoleGraph roles;
    ASSERT_TRUE(roles.AddRole("R").ok());
    ASSERT_TRUE(roles.AddUser("u").ok());
    ASSERT_TRUE(roles.AssignRole("u", "R").ok());
    PolicyStore policies;
    ASSERT_TRUE(policies.AddPolicy(roles, {"R", "general", 0.5}).ok());
    engine_ = std::make_unique<PcqeEngine>(&catalog_, std::move(roles),
                                           std::move(policies));
    engine_->AttachAudit(&audit_);
  }

  Catalog catalog_;
  AuditLog audit_;
  std::unique_ptr<PcqeEngine> engine_;
  BaseTupleId blocked_id_ = 0;
};

TEST_F(AuditTest, QueryDecisionIsReconstructible) {
  QueryOutcome outcome =
      *engine_->Submit({"SELECT id, secret FROM t", "u", "general", 1.0});
  ASSERT_NE(outcome.audit_id, 0u);
  std::optional<AuditRecord> record = audit_.Get(outcome.audit_id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, AuditRecord::Kind::kQuery);
  EXPECT_EQ(record->user, "u");
  EXPECT_EQ(record->purpose, "general");
  EXPECT_DOUBLE_EQ(record->beta, 0.5);
  EXPECT_EQ(record->confidence_version, catalog_.confidence_version());
  EXPECT_DOUBLE_EQ(record->required_fraction, 1.0);
  EXPECT_EQ(record->rows_total, outcome.intermediate.rows.size());
  EXPECT_EQ(record->rows_released, outcome.released.size());
  EXPECT_EQ(record->rows_blocked,
            outcome.intermediate.rows.size() - outcome.released.size());
  EXPECT_DOUBLE_EQ(record->released_fraction, outcome.released_fraction);
  EXPECT_EQ(record->rows_truncated, 0u);
  ASSERT_EQ(record->rows.size(), 3u);
  int blocked = 0;
  for (const AuditRowDecision& row : record->rows) {
    if (row.released) {
      EXPECT_GT(row.confidence, 0.5);
      EXPECT_TRUE(row.lineage.empty());
    } else {
      ++blocked;
      EXPECT_LT(row.confidence, 0.5);
      // The blocked row is identified by lineage (`t#<row>`), never value.
      EXPECT_NE(row.lineage.find("t#"), std::string::npos) << row.lineage;
    }
  }
  EXPECT_EQ(blocked, 1);
  // The shortfall (required 1.0, released 2/3) produced a solver proposal.
  EXPECT_TRUE(record->proposal_needed);
  EXPECT_EQ(record->proposal_needed, outcome.proposal.needed);
  EXPECT_FALSE(record->proposal_algorithm.empty());
}

// A batch records and counts each request as a lone Submit would.
TEST_F(AuditTest, BatchedRequestsAreAuditedAndCounted) {
  TelemetryRegistry registry;
  engine_->AttachTelemetry(&registry, nullptr);
  const QueryRequest q{"SELECT id, secret FROM t", "u", "general", 1.0};
  const uint64_t before = audit_.total_recorded();
  std::vector<QueryOutcome> outcomes = *engine_->SubmitBatch({q, q});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(audit_.total_recorded(), before + 2);
  EXPECT_NE(outcomes[0].audit_id, outcomes[1].audit_id);
  for (const QueryOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.audit_id, 0u);
    std::optional<AuditRecord> record = audit_.Get(outcome.audit_id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->rows_released, 2u);
    EXPECT_EQ(record->rows_blocked, 1u);
  }
  // The one joint proposal rides on the first outcome and its record.
  EXPECT_TRUE(audit_.Get(outcomes[0].audit_id)->proposal_needed);
  EXPECT_EQ(registry.GetCounter("pcqe_engine_rows_released_total")->value(), 4u);
  EXPECT_EQ(registry.GetCounter("pcqe_engine_rows_blocked_total")->value(), 2u);
  engine_->AttachTelemetry(nullptr, nullptr);
}

TEST_F(AuditTest, BlockedValuesNeverAppearInExports) {
  QueryOutcome outcome =
      *engine_->Submit({"SELECT id, secret FROM t", "u", "general", 1.0});
  ASSERT_NE(outcome.audit_id, 0u);
  std::optional<AuditRecord> record = audit_.Get(outcome.audit_id);
  ASSERT_TRUE(record.has_value());
  // Negative redaction test: neither rendering may carry any result value —
  // not even released ones; the audit describes decisions, not data.
  for (const std::string& rendered :
       {record->ToString(), record->ToJson(), audit_.RenderJson()}) {
    EXPECT_EQ(rendered.find(kSecretBlocked), std::string::npos) << rendered;
    EXPECT_EQ(rendered.find(kSecretReleased), std::string::npos) << rendered;
  }
}

TEST_F(AuditTest, AcceptProposalIsRecordedWithVersionBump) {
  QueryOutcome outcome =
      *engine_->Submit({"SELECT id, secret FROM t", "u", "general", 1.0});
  ASSERT_TRUE(outcome.proposal.needed);
  ASSERT_TRUE(outcome.proposal.feasible);
  uint64_t version_before = catalog_.confidence_version();
  ASSERT_TRUE(engine_->AcceptProposal(outcome.proposal).ok());
  std::vector<AuditRecord> records = audit_.Snapshot();
  ASSERT_FALSE(records.empty());
  const AuditRecord& accept = records.front();  // newest first
  EXPECT_EQ(accept.kind, AuditRecord::Kind::kAccept);
  EXPECT_EQ(accept.accept_actions, outcome.proposal.actions.size());
  EXPECT_DOUBLE_EQ(accept.accept_cost, outcome.proposal.total_cost);
  EXPECT_TRUE(accept.accept_ok);
  EXPECT_TRUE(accept.accept_error.empty());
  EXPECT_GT(accept.confidence_version, version_before);
  EXPECT_EQ(accept.confidence_version, catalog_.confidence_version());
  EXPECT_NE(accept.ToString().find("[accept]"), std::string::npos)
      << accept.ToString();
}

TEST_F(AuditTest, PerRowDetailIsCappedWithTruncationCount) {
  AuditLog small(8, 2);
  engine_->AttachAudit(&small);
  // Fraction 0 would qualify for β pushdown, which prunes the blocked row
  // out of the intermediate result — keep all 3 rows so the cap truncates.
  QueryRequest request{"SELECT id, secret FROM t", "u", "general", 0.0};
  request.pushdown = false;
  QueryOutcome outcome = *engine_->Submit(request);
  std::optional<AuditRecord> record = small.Get(outcome.audit_id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->rows_total, 3u);
  EXPECT_EQ(record->rows.size(), 2u);
  EXPECT_EQ(record->rows_truncated, 1u);
  engine_->AttachAudit(&audit_);
}

TEST(AuditLogTest, RingEvictsOldestAndKeepsIdsMonotonic) {
  TelemetryRegistry registry;
  AuditLog log(3);
  log.AttachTelemetry(&registry);
  Counter* evicted = registry.GetCounter("pcqe_audit_evicted_total");
  for (int i = 0; i < 5; ++i) {
    AuditRecord record;
    record.user = "u" + std::to_string(i);
    EXPECT_EQ(log.Record(std::move(record)), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(log.total_recorded(), 5u);
  EXPECT_EQ(evicted->value(), 2u);
  EXPECT_EQ(registry.GetCounter("pcqe_audit_records_total")->value(), 5u);
  std::vector<AuditRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().id, 5u);  // newest first
  EXPECT_EQ(records.back().id, 3u);
  EXPECT_FALSE(log.Get(1).has_value());  // evicted, id never reused
  ASSERT_TRUE(log.Get(4).has_value());
  EXPECT_EQ(log.Get(4)->user, "u3");
  // Ids continue past the wraparound.
  EXPECT_EQ(log.Record(AuditRecord{}), 6u);
}

TEST(AuditLogTest, DisabledLogRecordsNothing) {
  AuditLog off(0);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.Record(AuditRecord{}), 0u);
  EXPECT_EQ(off.total_recorded(), 0u);
  EXPECT_TRUE(off.Snapshot().empty());
}

TEST(AuditLogTest, RenderJsonIsBalancedAndEscaped) {
  AuditLog log(4);
  AuditRecord record;
  record.user = "needs\"escaping\\here";
  record.sql = "SELECT 1;\n-- comment";
  AuditRowDecision row;
  row.row = 0;
  row.confidence = 0.25;
  row.lineage = "t#0";
  record.rows.push_back(row);
  record.rows_total = 1;
  record.rows_blocked = 1;
  (void)log.Record(std::move(record));
  std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"audit\":["), std::string::npos) << json;
  EXPECT_NE(json.find("needs\\\"escaping\\\\here"), std::string::npos) << json;
  EXPECT_NE(json.find("\\n-- comment"), std::string::npos) << json;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace pcqe
