// Unit tests for relational schema, tuple, table and catalog.

#include <gtest/gtest.h>

#include "common/math_util.h"
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

}  // namespace
}  // namespace pcqe
