// Crash-point recovery harness for the durable catalog. Each test arms one
// of the storage.* fault sites, drives a transaction into the failure,
// "crashes" by dropping all in-memory state (fresh Catalog + fresh
// StorageManager over the same directory), recovers, and asserts the
// rebuilt catalog is bit-identical — confidences via EXPECT_EQ on doubles,
// plus the exact `confidence_version` — to the pre-crash *committed* state.
// The accepted-before-crash / in-flight-at-crash boundary is the core
// claim: everything acknowledged survives, nothing half-done leaks.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "cost/cost_function.h"
#include "engine/pcqe_engine.h"
#include "policy/confidence_policy.h"
#include "policy/rbac.h"
#include "relational/catalog.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"

namespace pcqe {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One in-memory incarnation of the system: catalog + engine + storage over
/// a shared directory. Constructing a second incarnation on the same
/// directory *is* the crash — nothing in memory carries over.
struct Incarnation {
  explicit Incarnation(const std::string& dir) {
    Table* table =
        *catalog.CreateTable("t", Schema({{"x", DataType::kDouble, ""}}));
    ids.push_back(*table->Insert({Value::Double(1.0)}, 0.2));
    ids.push_back(*table->Insert({Value::Double(2.0)}, 0.4));
    ids.push_back(*table->Insert({Value::Double(3.0)}, 0.5,
                                 *MakeLinearCost(10.0), 0.9));
    engine = std::make_unique<PcqeEngine>(&catalog, RoleGraph(), PolicyStore());
    open_status = storage.Open({.dir = dir}, &catalog);
    if (open_status.ok()) engine->AttachStorage(&storage);
  }

  /// Accepts a single-tuple increment through the engine (the logged path).
  Status Accept(BaseTupleId id, double to) {
    StrategyProposal proposal;
    proposal.needed = true;
    proposal.feasible = true;
    proposal.actions = {{id, 0.0, to, 0.0}};
    return engine->AcceptProposal(proposal);
  }

  std::vector<double> Confidences() const {
    std::vector<double> out;
    for (BaseTupleId id : ids) out.push_back(catalog.FindTuple(id)->confidence());
    return out;
  }

  Catalog catalog;
  std::vector<BaseTupleId> ids;
  std::unique_ptr<PcqeEngine> engine;
  StorageManager storage;
  Status open_status = Status::OK();
};

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

TEST_F(RecoveryTest, RecoversCommittedAcceptsBitIdentically) {
  std::string dir = FreshDir("rec_basic");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok()) << live.open_status.ToString();
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    ASSERT_TRUE(live.Accept(live.ids[1], 0.61).ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.77).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
    ASSERT_EQ(version, 3u);
  }  // crash: every in-memory structure is destroyed

  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok()) << revived.open_status.ToString();
  EXPECT_EQ(revived.Confidences(), committed);  // bit-identical doubles
  EXPECT_EQ(revived.catalog.confidence_version(), version);
  StorageSnapshot snap = revived.storage.snapshot();
  EXPECT_EQ(snap.recovered_records, 4u);  // version record + 3 commits
  EXPECT_EQ(snap.recovered_version, version);
}

TEST_F(RecoveryTest, MultiActionAcceptReplaysAtomically) {
  std::string dir = FreshDir("rec_multi");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    StrategyProposal proposal;
    proposal.needed = true;
    proposal.actions = {{live.ids[0], 0.0, 0.5, 0.0},
                        {live.ids[1], 0.0, 0.8, 0.0},
                        {live.ids[2], 0.0, 0.9, 0.0}};
    ASSERT_TRUE(live.engine->AcceptProposal(proposal).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
    ASSERT_EQ(version, 3u);  // one commit record, three version bumps
  }
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
  EXPECT_EQ(revived.storage.snapshot().recovered_records, 2u);
}

TEST_F(RecoveryTest, AppendFaultRollsBackAndCommittedStateSurvives) {
  std::string dir = FreshDir("rec_append_fault");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();

    // In-flight accept dies at the append boundary: no catalog mutation,
    // no version bump — the transaction never happened.
    FaultInjector::Global().Arm(fault_sites::kWalAppend, {});
    Status failed = live.Accept(live.ids[1], 0.9);
    ASSERT_TRUE(failed.IsInternal()) << failed.ToString();
    EXPECT_NE(failed.message().find("rolled back"), std::string::npos);
    EXPECT_EQ(live.Confidences(), committed);
    EXPECT_EQ(live.catalog.confidence_version(), version);
  }  // crash with the fault still armed

  FaultInjector::Global().DisarmAll();
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
}

TEST_F(RecoveryTest, SyncFaultRollsBackAndCommittedStateSurvives) {
  std::string dir = FreshDir("rec_sync_fault");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();

    FaultInjector::Global().Arm(fault_sites::kWalSync, {});
    ASSERT_FALSE(live.Accept(live.ids[1], 0.9).ok());
    EXPECT_EQ(live.Confidences(), committed);
    EXPECT_EQ(live.catalog.confidence_version(), version);
    FaultInjector::Global().Disarm(fault_sites::kWalSync);

    // The same transaction retried after the fault clears goes through —
    // the rollback left the WAL consistent.
    ASSERT_TRUE(live.Accept(live.ids[1], 0.9).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
  }
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
}

TEST_F(RecoveryTest, CheckpointFaultLeavesPreviousStateAuthoritative) {
  std::string dir = FreshDir("rec_ckpt_fault");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    StorageSnapshot before = live.storage.snapshot();

    FaultInjector::Global().Arm(fault_sites::kCheckpoint, {});
    ASSERT_FALSE(live.storage.Checkpoint(live.catalog).ok());
    FaultInjector::Global().Disarm(fault_sites::kCheckpoint);
    // The old checkpoint + segment stay published and the writer keeps
    // logging into the old segment.
    StorageSnapshot after = live.storage.snapshot();
    EXPECT_EQ(after.checkpoint, before.checkpoint);
    EXPECT_EQ(after.wal, before.wal);
    ASSERT_TRUE(live.Accept(live.ids[1], 0.9).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
  }
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
}

TEST_F(RecoveryTest, ManifestFaultAbortsCheckpointBeforePublish) {
  std::string dir = FreshDir("rec_manifest_fault");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    StorageSnapshot before = live.storage.snapshot();

    // The fault fires at the publish step: snapshot and fresh segment are
    // already on disk, but the manifest — the commit point — is untouched.
    FaultInjector::Global().Arm(fault_sites::kManifest, {});
    ASSERT_FALSE(live.storage.Checkpoint(live.catalog).ok());
    FaultInjector::Global().Disarm(fault_sites::kManifest);
    EXPECT_EQ(live.storage.snapshot().checkpoint, before.checkpoint);
    ASSERT_TRUE(live.Accept(live.ids[1], 0.9).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
  }
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
}

TEST_F(RecoveryTest, SuccessfulCheckpointSurvivesCrashWithLaterCommits) {
  std::string dir = FreshDir("rec_ckpt_then_commits");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    ASSERT_TRUE(live.storage.Checkpoint(live.catalog).ok());
    // Commits after the checkpoint live only in the new segment.
    ASSERT_TRUE(live.Accept(live.ids[1], 0.9).ok());
    ASSERT_TRUE(live.Accept(live.ids[2], 0.85).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
  }
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
  // Only the post-checkpoint records replay.
  EXPECT_EQ(revived.storage.snapshot().recovered_records, 3u);
}

TEST_F(RecoveryTest, CheckpointKeepsCostParametersExact) {
  // Long cost parameters must survive checkpoint + recovery bit for bit:
  // a recovered catalog that prices increments differently would change
  // every later plan.
  std::string dir = FreshDir("rec_cost_precision");
  const std::vector<CostFunctionPtr> costs = {
      *MakeLinearCost(12.345678901234567),
      *MakePolynomialCost(12.345678901234567, 2.0),
      *MakeExponentialCost(3.1415926535897931, 1.2345678901234567),
      *MakeLogarithmicCost(2.7182818284590451, 7.1234567890123453),
      *MakeStepCost(12.345678901234567, 0.12345678901234568)};
  Catalog catalog;
  Table* table = *catalog.CreateTable("t", Schema({{"x", DataType::kInt64, ""}}));
  std::vector<BaseTupleId> ids;
  for (size_t i = 0; i < costs.size(); ++i) {
    ids.push_back(*table->Insert({Value::Int(static_cast<int64_t>(i))}, 0.1, costs[i]));
  }
  PcqeEngine engine(&catalog, RoleGraph(), PolicyStore());
  StorageManager storage;
  ASSERT_TRUE(storage.Open({.dir = dir}, &catalog).ok());
  engine.AttachStorage(&storage);
  StrategyProposal proposal;
  proposal.needed = true;
  proposal.actions = {{ids[1], 0.0, 0.5, 0.0}};
  ASSERT_TRUE(engine.AcceptProposal(proposal).ok());
  ASSERT_TRUE(storage.Checkpoint(catalog).ok());

  ASSERT_TRUE(storage.Recover().ok());
  EXPECT_EQ(catalog.FindTuple(ids[1])->confidence(), 0.5);
  for (size_t i = 0; i < costs.size(); ++i) {
    const CostFunctionPtr& got = catalog.FindTuple(ids[i])->cost_function();
    EXPECT_NE(got.get(), costs[i].get());  // really reloaded
    for (double p : {0.1, 0.37, 0.5, 1.0}) {
      EXPECT_EQ(got->Level(p), costs[i]->Level(p)) << costs[i]->ToString();
    }
    EXPECT_EQ(got->Increment(0.1, 0.5), costs[i]->Increment(0.1, 0.5))
        << costs[i]->ToString();
  }
}

TEST_F(RecoveryTest, ReplayFaultFailsRecoveryCleanlyThenSucceeds) {
  std::string dir = FreshDir("rec_replay_fault");
  std::vector<double> committed;
  uint64_t version = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
  }

  FaultInjector::Global().Arm(fault_sites::kRecoveryReplay, {});
  {
    Incarnation crashed_twice(dir);
    EXPECT_TRUE(crashed_twice.open_status.IsInternal())
        << crashed_twice.open_status.ToString();
    EXPECT_FALSE(crashed_twice.storage.open());
    // A failed recovery refuses logging until it succeeds.
    EXPECT_TRUE(
        crashed_twice.storage.LogAccept(0, {{crashed_twice.ids[0], 0, 0.9, 0}})
            .IsInternal());
    // Recovery is idempotent: disarm and re-run on the same manager.
    FaultInjector::Global().Disarm(fault_sites::kRecoveryReplay);
    ASSERT_TRUE(crashed_twice.storage.Recover().ok());
    EXPECT_TRUE(crashed_twice.storage.open());
    EXPECT_EQ(crashed_twice.Confidences(), committed);
    EXPECT_EQ(crashed_twice.catalog.confidence_version(), version);
  }
}

TEST_F(RecoveryTest, TornFinalRecordLosesOnlyTheUnsyncedTail) {
  std::string dir = FreshDir("rec_torn_tail");
  std::vector<double> after_first;
  uint64_t version_after_first = 0;
  std::string wal_path;
  uint64_t valid_before_last = 0;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    after_first = live.Confidences();
    version_after_first = live.catalog.confidence_version();
    wal_path = dir + "/" + live.storage.snapshot().wal;
    valid_before_last = live.storage.snapshot().wal_file_bytes;
    ASSERT_TRUE(live.Accept(live.ids[1], 0.9).ok());
  }

  // The crash tears the last commit record in half mid-write.
  uint64_t full = std::filesystem::file_size(wal_path);
  ASSERT_GT(full, valid_before_last);
  std::filesystem::resize_file(wal_path, valid_before_last + (full - valid_before_last) / 2);

  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok()) << revived.open_status.ToString();
  // The second accept was in flight at the crash: recovery lands exactly on
  // the first committed state and the torn bytes are discarded.
  EXPECT_EQ(revived.Confidences(), after_first);
  EXPECT_EQ(revived.catalog.confidence_version(), version_after_first);

  // New accepts after the torn-tail truncation append cleanly.
  ASSERT_TRUE(revived.Accept(revived.ids[1], 0.9).ok());
  auto read = ReadWal(dir + "/" + revived.storage.snapshot().wal);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->torn_bytes, 0u);
}

TEST_F(RecoveryTest, GarbageAppendedToSegmentIsSkipped) {
  std::string dir = FreshDir("rec_garbage_tail");
  std::vector<double> committed;
  uint64_t version = 0;
  std::string wal_path;
  {
    Incarnation live(dir);
    ASSERT_TRUE(live.open_status.ok());
    ASSERT_TRUE(live.Accept(live.ids[0], 0.55).ok());
    committed = live.Confidences();
    version = live.catalog.confidence_version();
    wal_path = dir + "/" + live.storage.snapshot().wal;
  }
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out << "\xff\xff\xff\xff garbage from a crashed writer";
  }
  Incarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok());
  EXPECT_EQ(revived.Confidences(), committed);
  EXPECT_EQ(revived.catalog.confidence_version(), version);
}

/// `Incarnation` variant with a role and a policy (<R, general, 0.5>) so
/// pushdown queries resolve a β, plus four all-below-β base tuples.
struct PushdownIncarnation {
  explicit PushdownIncarnation(const std::string& dir) {
    Table* table =
        *catalog.CreateTable("t", Schema({{"x", DataType::kDouble, ""}}));
    for (int i = 0; i < 4; ++i) {
      ids.push_back(*table->Insert({Value::Double(static_cast<double>(i))}, 0.2,
                                   *MakeLinearCost(10.0)));
    }
    RoleGraph roles;
    PCQE_CHECK(roles.AddRole("R").ok());
    PCQE_CHECK(roles.AddUser("u").ok());
    PCQE_CHECK(roles.AssignRole("u", "R").ok());
    PolicyStore policies;
    PCQE_CHECK(policies.AddPolicy(roles, {"R", "general", 0.5}).ok());
    engine = std::make_unique<PcqeEngine>(&catalog, std::move(roles),
                                          std::move(policies));
    open_status = storage.Open({.dir = dir}, &catalog);
    if (open_status.ok()) engine->AttachStorage(&storage);
  }

  Status Accept(BaseTupleId id, double to) {
    StrategyProposal proposal;
    proposal.needed = true;
    proposal.feasible = true;
    proposal.actions = {{id, 0.0, to, 0.0}};
    return engine->AcceptProposal(proposal);
  }

  Result<QueryOutcome> Query(bool pushdown) {
    QueryRequest request{"SELECT x FROM t", "u", "general", 0.0};
    request.pushdown = pushdown;
    return engine->Submit(request);
  }

  Catalog catalog;
  std::vector<BaseTupleId> ids;
  std::unique_ptr<PcqeEngine> engine;
  StorageManager storage;
  Status open_status = Status::OK();
};

TEST_F(RecoveryTest, PushdownAfterCrashPrunesPerRecoveredConfidences) {
  std::string dir = FreshDir("rec_pushdown");
  {
    PushdownIncarnation live(dir);
    ASSERT_TRUE(live.open_status.ok()) << live.open_status.ToString();
    // Everything starts below β = 0.5: the pushed query prunes all 4 rows.
    Result<QueryOutcome> before = live.Query(true);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_TRUE(before->intermediate.pushed_down);
    EXPECT_TRUE(before->released.empty());
    EXPECT_EQ(before->intermediate.vec_stats.pruned_rows, 4u);
    // Two logged accepts lift ids[1] and ids[3] above β.
    ASSERT_TRUE(live.Accept(live.ids[1], 0.8).ok());
    ASSERT_TRUE(live.Accept(live.ids[3], 0.7).ok());
  }  // crash

  PushdownIncarnation revived(dir);
  ASSERT_TRUE(revived.open_status.ok()) << revived.open_status.ToString();
  // The revived engine's (empty) index rebuilds over the replayed state:
  // exactly the accepted rows clear β, and the pushed run stays
  // release-identical to the unpushed reference.
  Result<QueryOutcome> pushed = revived.Query(true);
  Result<QueryOutcome> unpushed = revived.Query(false);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_TRUE(unpushed.ok()) << unpushed.status().ToString();
  EXPECT_TRUE(pushed->intermediate.pushed_down);
  EXPECT_FALSE(unpushed->intermediate.pushed_down);
  ASSERT_EQ(pushed->released.size(), 2u);
  ASSERT_EQ(unpushed->released.size(), 2u);
  for (size_t i = 0; i < pushed->released.size(); ++i) {
    EXPECT_EQ(pushed->intermediate.rows[pushed->released[i]].confidence,
              unpushed->intermediate.rows[unpushed->released[i]].confidence);
  }
  EXPECT_EQ(pushed->intermediate.vec_stats.pruned_rows, 2u);
}

TEST_F(RecoveryTest, IndexRebuildFaultDegradesToRowExactPruning) {
  std::string dir = FreshDir("rec_index_fault");
  PushdownIncarnation live(dir);
  ASSERT_TRUE(live.open_status.ok()) << live.open_status.ToString();
  ASSERT_TRUE(live.Accept(live.ids[0], 0.8).ok());

  // Every rebuild attempt fails: no zone map is ever published, the prune
  // node falls back to row-exact tests — same released set, no chunk
  // skipping — and the query itself still succeeds.
  FaultInjector::Global().Arm(fault_sites::kIndexRebuild, {});
  Result<QueryOutcome> degraded = live.Query(true);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->intermediate.pushed_down);
  ASSERT_EQ(degraded->released.size(), 1u);
  EXPECT_EQ(degraded->intermediate.vec_stats.pruned_chunks, 0u);
  EXPECT_EQ(degraded->intermediate.vec_stats.pruned_rows, 3u);
  EXPECT_GT(FaultInjector::Global().hits(fault_sites::kIndexRebuild), 0u);

  // Disarm: the rebuild succeeds on the next query and the released set is
  // unchanged.
  FaultInjector::Global().Disarm(fault_sites::kIndexRebuild);
  Result<QueryOutcome> healed = live.Query(true);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ASSERT_EQ(healed->released.size(), 1u);
  EXPECT_EQ(healed->intermediate.rows[healed->released[0]].confidence,
            degraded->intermediate.rows[degraded->released[0]].confidence);
  EXPECT_EQ(healed->intermediate.vec_stats.pruned_rows, 3u);
}

TEST_F(RecoveryTest, ValidationFailureSkipsLoggingEntirely) {
  // An accept that fails validation (target above the tuple's ceiling) must
  // not reach the WAL at all: the log stays free of aborted garbage.
  std::string dir = FreshDir("rec_validation");
  Incarnation live(dir);
  ASSERT_TRUE(live.open_status.ok());
  StorageSnapshot before = live.storage.snapshot();
  ASSERT_FALSE(live.Accept(live.ids[2], 0.95).ok());  // ceiling is 0.9
  StorageSnapshot after = live.storage.snapshot();
  EXPECT_EQ(after.wal_appends, before.wal_appends);
  EXPECT_EQ(after.wal_file_bytes, before.wal_file_bytes);
  EXPECT_EQ(live.catalog.confidence_version(), 0u);
}

}  // namespace
}  // namespace pcqe
