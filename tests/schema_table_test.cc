// Unit tests for relational schema, tuple, table and catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/math_util.h"
#include "common/random.h"
#include "relational/catalog.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace pcqe {
namespace {

Schema ProposalSchema() {
  return Schema({{"company", DataType::kString, ""},
                 {"proposal", DataType::kString, ""},
                 {"funding", DataType::kDouble, ""}});
}

TEST(SchemaTest, IndexOfUnqualified) {
  Schema s = ProposalSchema();
  EXPECT_EQ(*s.IndexOf("company"), 0u);
  EXPECT_EQ(*s.IndexOf("FUNDING"), 2u);  // case-insensitive
  EXPECT_TRUE(s.IndexOf("missing").status().IsNotFound());
}

TEST(SchemaTest, QualifiedLookup) {
  Schema s = ProposalSchema().WithQualifier("p");
  EXPECT_EQ(*s.IndexOf("p.company"), 0u);
  EXPECT_EQ(*s.IndexOf("P.Company"), 0u);
  EXPECT_TRUE(s.IndexOf("q.company").status().IsNotFound());
  EXPECT_EQ(s.column(0).QualifiedName(), "p.company");
}

TEST(SchemaTest, AmbiguousUnqualifiedReferenceIsBindError) {
  Schema joined = ProposalSchema().WithQualifier("a").Concat(
      ProposalSchema().WithQualifier("b"));
  EXPECT_TRUE(joined.IndexOf("company").status().IsBindError());
  EXPECT_EQ(*joined.IndexOf("a.company"), 0u);
  EXPECT_EQ(*joined.IndexOf("b.company"), 3u);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema s = ProposalSchema().Concat(Schema({{"income", DataType::kDouble, ""}}));
  EXPECT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(s.column(3).name, "income");
}

TEST(SchemaTest, ToStringListsColumns) {
  Schema s({{"a", DataType::kInt64, "t"}});
  EXPECT_EQ(s.ToString(), "(t.a BIGINT)");
}

TEST(TableTest, SetConfidenceClampsWithinEpsilonOfCeiling) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}));
  BaseTupleId id = *t.Insert({Value::Int(1)}, 0.5, nullptr, 0.8);
  EXPECT_DOUBLE_EQ(t.tuple(0).max_confidence(), 0.8);
  // A target within kEpsilon above the ceiling stores the ceiling itself.
  ASSERT_TRUE(t.SetConfidence(id, 0.8 + kEpsilon / 2).ok());
  EXPECT_EQ(t.tuple(0).confidence(), 0.8);
  EXPECT_EQ(t.column_data().confidence(0), 0.8);
  EXPECT_TRUE(t.SetConfidence(id, 0.95).IsInvalidArgument());
  EXPECT_EQ(t.tuple(0).confidence(), 0.8);
  ASSERT_TRUE(t.SetConfidence(id, 0.5).ok());
  EXPECT_EQ(t.tuple(0).confidence(), 0.5);
}

TEST(TableTest, NullCostReadsBackAsUnitLinearDefault) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}));
  ASSERT_TRUE(t.Insert({Value::Int(1)}, 0.3).ok());
  const CostFunctionPtr& cost = t.tuple(0).cost_function();
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost, DefaultCostFunction());
  EXPECT_NEAR(cost->Increment(0.3, 0.5), 0.2, 1e-12);
}

TEST(TableTest, TupleToStringIncludesConfidence) {
  Table t("x", Schema({{"s", DataType::kString, ""}, {"n", DataType::kInt64, ""}}));
  ASSERT_TRUE(t.Insert({Value::String("x"), Value::Int(2)}, 0.3).ok());
  EXPECT_EQ(t.tuple(0).ToString(), "(x, 2) @ p=0.3");
}

TEST(TableTest, ViewTakenBeforeSetConfidenceReadsNewValue) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}), 3);
  BaseTupleId id = *t.Insert({Value::Int(1)}, 0.2);
  Tuple by_row = t.tuple(0);
  Tuple by_id = *t.FindTuple(id);
  ASSERT_TRUE(t.SetConfidence(id, 0.6).ok());
  EXPECT_EQ(by_row.confidence(), 0.6);
  EXPECT_EQ(by_id.confidence(), 0.6);
  // Appends (which add chunks) leave earlier views valid.
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(t.Insert({Value::Int(i)}, 0.1).ok());
  EXPECT_EQ(by_row.confidence(), 0.6);
  EXPECT_EQ(by_row.value(0), Value::Int(1));
}

TEST(TableTest, ValuesRoundTripEveryCellKind) {
  Table t("x", Schema({{"b", DataType::kBool, ""},
                       {"s", DataType::kString, ""},
                       {"d", DataType::kDouble, ""},
                       {"n", DataType::kInt64, ""}}));
  ASSERT_TRUE(
      t.Insert({Value::Bool(true), Value::String("a,b"), Value::Int(-7), Value::Null()}, 0.5)
          .ok());
  ASSERT_TRUE(
      t.Insert({Value::Null(), Value::Null(), Value::Null(), Value::Int(9)}, 0.5).ok());
  std::vector<Value> first = t.tuple(0).values();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0].type(), DataType::kBool);
  EXPECT_EQ(*first[0].AsBool(), true);
  EXPECT_EQ(*first[1].AsString(), "a,b");
  // The BIGINT literal widened into the DOUBLE column.
  EXPECT_EQ(first[2].type(), DataType::kDouble);
  EXPECT_EQ(*first[2].AsDouble(), -7.0);
  EXPECT_TRUE(first[3].is_null());
  std::vector<Value> second = t.tuple(1).values();
  EXPECT_TRUE(second[0].is_null());
  EXPECT_TRUE(second[1].is_null());
  EXPECT_TRUE(second[2].is_null());
  EXPECT_EQ(second[3].type(), DataType::kInt64);
  EXPECT_EQ(*second[3].AsInt(), 9);
}

TEST(TableTest, InsertValidatesArity) {
  Table t("proposal", ProposalSchema());
  EXPECT_TRUE(t.Insert({Value::String("a")}, 0.5).status().IsInvalidArgument());
}

TEST(TableTest, InsertValidatesTypes) {
  Table t("proposal", ProposalSchema());
  auto bad = t.Insert({Value::Int(1), Value::String("p"), Value::Double(1.0)}, 0.5);
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  // NULL accepted anywhere; BIGINT widens into DOUBLE columns.
  auto ok = t.Insert({Value::Null(), Value::String("p"), Value::Int(100)}, 0.5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(t.tuple(0).value(2).type(), DataType::kDouble);
}

TEST(TableTest, InsertValidatesConfidence) {
  Table t("proposal", ProposalSchema());
  std::vector<Value> row = {Value::String("a"), Value::String("p"), Value::Double(1.0)};
  EXPECT_TRUE(t.Insert(row, -0.1).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert(row, 1.1).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert(row, 0.5, nullptr, 0.4).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert(row, 0.5, nullptr, 0.9).ok());
}

TEST(TableTest, TupleIdsEncodeTableAndRow) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}), /*table_id=*/7);
  BaseTupleId id0 = *t.Insert({Value::Int(1)}, 0.1);
  BaseTupleId id1 = *t.Insert({Value::Int(2)}, 0.2);
  EXPECT_EQ(id0 >> 32, 7u);
  EXPECT_EQ(id1, id0 + 1);
  EXPECT_EQ(t.FindTuple(id1)->value(0), Value::Int(2));
  EXPECT_TRUE(t.FindTuple((8ULL << 32)).status().IsNotFound());
  EXPECT_TRUE(t.FindTuple(id1 + 1).status().IsNotFound());
}

TEST(TableTest, SetConfidence) {
  Table t("x", Schema({{"a", DataType::kInt64, ""}}), 1);
  BaseTupleId id = *t.Insert({Value::Int(1)}, 0.3, nullptr, 0.9);
  EXPECT_TRUE(t.SetConfidence(id, 0.7).ok());
  EXPECT_DOUBLE_EQ(t.FindTuple(id)->confidence(), 0.7);
  EXPECT_TRUE(t.SetConfidence(id, 0.95).IsInvalidArgument());
  EXPECT_TRUE(t.SetConfidence(id + 100, 0.5).IsNotFound());
}

TEST(CatalogTest, CreateAndGet) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("Proposal", ProposalSchema()).ok());
  EXPECT_TRUE(c.GetTable("proposal").ok());  // case-insensitive
  EXPECT_TRUE(c.GetTable("PROPOSAL").ok());
  EXPECT_TRUE(c.CreateTable("proposal", ProposalSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(c.GetTable("other").status().IsNotFound());
  EXPECT_TRUE(c.CreateTable("", ProposalSchema()).status().IsInvalidArgument());
}

TEST(CatalogTest, TupleIdsUniqueAcrossTables) {
  Catalog c;
  Table* a = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  Table* b = *c.CreateTable("b", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId ia = *a->Insert({Value::Int(1)}, 0.1);
  BaseTupleId ib = *b->Insert({Value::Int(1)}, 0.2);
  EXPECT_NE(ia, ib);
  EXPECT_DOUBLE_EQ(c.FindTuple(ia)->confidence(), 0.1);
  EXPECT_DOUBLE_EQ(c.FindTuple(ib)->confidence(), 0.2);
}

TEST(CatalogTest, SetConfidenceRoutesToOwningTable) {
  Catalog c;
  Table* a = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId id = *a->Insert({Value::Int(1)}, 0.1);
  EXPECT_TRUE(c.SetConfidence(id, 0.4).ok());
  EXPECT_DOUBLE_EQ(c.FindTuple(id)->confidence(), 0.4);
  EXPECT_TRUE(c.SetConfidence((99ULL << 32), 0.4).IsNotFound());
}

TEST(CatalogTest, DropTableRetiresIdSpace) {
  Catalog c;
  Table* a = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId stale = *a->Insert({Value::Int(1)}, 0.1);
  ASSERT_TRUE(c.DropTable("a").ok());
  EXPECT_TRUE(c.DropTable("a").IsNotFound());
  // Re-created table gets a fresh id prefix; the stale id resolves nowhere.
  Table* a2 = *c.CreateTable("a", Schema({{"x", DataType::kInt64, ""}}));
  BaseTupleId fresh = *a2->Insert({Value::Int(2)}, 0.2);
  EXPECT_NE(stale >> 32, fresh >> 32);
  EXPECT_TRUE(c.FindTuple(stale).status().IsNotFound());
}

TEST(CatalogTest, TableNamesInCreationOrder) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("zeta", ProposalSchema()).ok());
  ASSERT_TRUE(c.CreateTable("alpha", ProposalSchema()).ok());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"zeta", "alpha"}));
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// NaN fails every comparison, so range checks must be written to fail it.
// Each boundary rejects it and leaves version and generation where they were.
TEST(CatalogTest, NaNConfidenceIsRejectedEverywhere) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""}}));
  BaseTupleId id = *t->Insert({Value::Int(1)}, 0.3, nullptr, 0.9);
  const uint64_t version = catalog.confidence_version();
  const uint64_t generation = catalog.generation();

  EXPECT_TRUE(t->Insert({Value::Int(2)}, kNaN).status().IsInvalidArgument());
  EXPECT_TRUE(t->Insert({Value::Int(2)}, 0.5, nullptr, kNaN).status().IsInvalidArgument());
  EXPECT_TRUE(t->SetConfidence(id, kNaN).IsInvalidArgument());
  EXPECT_TRUE(catalog.SetConfidence(id, kNaN).IsInvalidArgument());

  EXPECT_EQ(t->num_tuples(), 1u);
  EXPECT_EQ(t->tuple(0).confidence(), 0.3);
  EXPECT_EQ(catalog.confidence_version(), version);
  EXPECT_EQ(catalog.generation(), generation);
}

TEST(CatalogTest, EveryWriteBumpsGenerationAndClearNeverResetsIt) {
  Catalog catalog;
  uint64_t last = catalog.generation();
  auto bumped = [&] {
    const uint64_t now = catalog.generation();
    const bool moved = now == last + 1;
    last = now;
    return moved;
  };
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""}}));
  EXPECT_TRUE(bumped());
  BaseTupleId id = *t->Insert({Value::Int(1)}, 0.3);
  EXPECT_TRUE(bumped());
  ASSERT_TRUE(t->SetConfidence(id, 0.4).ok());
  EXPECT_TRUE(bumped());
  ASSERT_TRUE(catalog.SetConfidence(id, 0.5).ok());
  EXPECT_TRUE(bumped());
  ASSERT_TRUE(catalog.CreateTableWithId("u", Schema({{"b", DataType::kInt64, ""}}), 9).ok());
  EXPECT_TRUE(bumped());
  ASSERT_TRUE(catalog.DropTable("u").ok());
  EXPECT_TRUE(bumped());
  // Failed writes change nothing.
  EXPECT_FALSE(t->Insert({Value::String("x")}, 0.5).ok());
  EXPECT_FALSE(catalog.DropTable("u").ok());
  EXPECT_EQ(catalog.generation(), last);
  catalog.Clear();
  EXPECT_TRUE(bumped());
  EXPECT_EQ(catalog.confidence_version(), 0u);

  // A standalone table has no generation to bump.
  Table standalone("s", Schema({{"a", DataType::kInt64, ""}}));
  ASSERT_TRUE(standalone.Insert({Value::Int(1)}, 0.5).ok());
  EXPECT_EQ(catalog.generation(), last);
}

/// Checks chunk `c`'s stored confidence bounds against a rescan.
void ExpectBoundsMatchRescan(const TableColumnData& data, size_t c) {
  const std::vector<double>& conf = data.confidence_chunk(c);
  ASSERT_FALSE(conf.empty());
  EXPECT_EQ(data.conf_min(c), *std::min_element(conf.begin(), conf.end())) << "chunk " << c;
  EXPECT_EQ(data.conf_max(c), *std::max_element(conf.begin(), conf.end())) << "chunk " << c;
}

// The bounds β pushdown skips chunks by are written with the confidences, so
// after every write they equal a rescan: appends, raises, lowers, moves onto
// a chunk's current bound and moves of the row holding a bound off it.
TEST(TableTest, ChunkConfidenceBoundsEqualRescanAfterEveryWrite) {
  constexpr size_t kRows = 3 * kColumnChunkCapacity + 100;  // four chunks
  constexpr int kWrites = 400;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Catalog catalog;
    Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""}}));
    const TableColumnData& data = t->column_data();
    std::vector<BaseTupleId> ids;
    for (size_t r = 0; r < kRows; ++r) {
      ids.push_back(*t->Insert({Value::Int(static_cast<int64_t>(r))},
                               rng.Uniform(0.2, 0.8)));
      ExpectBoundsMatchRescan(data, TableColumnData::ChunkOf(r));
    }
    ASSERT_EQ(data.num_chunks(), 4u);
    for (int w = 0; w < kWrites; ++w) {
      const size_t c = static_cast<size_t>(rng.UniformInt(0, 3));
      const std::vector<double>& conf = data.confidence_chunk(c);
      size_t offset = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(conf.size()) - 1));
      const double lo = data.conf_min(c);
      const double hi = data.conf_max(c);
      double to = 0.0;
      switch (rng.UniformInt(0, 5)) {
        case 0:  // raise
          to = rng.Uniform(conf[offset], 1.0);
          break;
        case 1:  // lower
          to = rng.Uniform(0.0, conf[offset]);
          break;
        case 2:  // onto a bound
          to = rng.Bernoulli(0.5) ? lo : hi;
          break;
        case 3:  // the min holder moves inward
          offset = static_cast<size_t>(std::min_element(conf.begin(), conf.end()) - conf.begin());
          to = rng.Uniform(lo, hi);
          break;
        case 4:  // the max holder moves inward
          offset = static_cast<size_t>(std::max_element(conf.begin(), conf.end()) - conf.begin());
          to = rng.Uniform(lo, hi);
          break;
        default:  // a bound holder crosses to the other side
          offset = static_cast<size_t>(std::min_element(conf.begin(), conf.end()) - conf.begin());
          to = rng.Uniform(hi, 1.0);
          break;
      }
      const BaseTupleId id = ids[c * kColumnChunkCapacity + offset];
      // Both write paths: the catalog's and the table's own.
      ASSERT_TRUE((w % 2 == 0 ? catalog.SetConfidence(id, to) : t->SetConfidence(id, to)).ok());
      ASSERT_EQ(data.confidence(c * kColumnChunkCapacity + offset), to);
      for (size_t k = 0; k < data.num_chunks(); ++k) ExpectBoundsMatchRescan(data, k);
    }
  }
}

}  // namespace
}  // namespace pcqe
