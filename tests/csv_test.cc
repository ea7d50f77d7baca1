// Tests for CSV import/export.

#include "relational/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace pcqe {
namespace {

TEST(ParseCsvTest, SimpleRows) {
  auto rows = *ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseCsvTest, QuotedFields) {
  auto rows = *ParseCsv("\"a,b\",\"line\nbreak\",\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "line\nbreak");
  EXPECT_EQ(rows[0][2], "say \"hi\"");
}

TEST(ParseCsvTest, CrlfAndMissingTrailingNewline) {
  auto rows = *ParseCsv("a,b\r\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "2");
}

TEST(ParseCsvTest, EmptyFieldsPreserved) {
  auto rows = *ParseCsv("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "");
  EXPECT_EQ(rows[1].size(), 3u);
}

TEST(ParseCsvTest, AlternateDelimiter) {
  auto rows = *ParseCsv("a;b\n1;2\n", ';');
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
}

TEST(ParseCsvTest, UnterminatedQuoteIsError) {
  EXPECT_TRUE(ParseCsv("\"oops\n").status().IsParseError());
}

TEST(ImportCsvTest, InfersTypes) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t",
                        "name,age,score,active\n"
                        "ann,30,1.5,true\n"
                        "bob,41,2.0,false\n");
  const Schema& s = t->schema();
  EXPECT_EQ(s.column(0).type, DataType::kString);
  EXPECT_EQ(s.column(1).type, DataType::kInt64);
  EXPECT_EQ(s.column(2).type, DataType::kDouble);
  EXPECT_EQ(s.column(3).type, DataType::kBool);
  ASSERT_EQ(t->num_tuples(), 2u);
  EXPECT_EQ(t->tuple(0).value(1), Value::Int(30));
  EXPECT_EQ(t->tuple(1).value(3), Value::Bool(false));
  // Default confidence 1.0 without a confidence column.
  EXPECT_DOUBLE_EQ(t->tuple(0).confidence(), 1.0);
}

TEST(ImportCsvTest, MixedNumbersWidenToDouble) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t", "x\n1\n2.5\n");
  EXPECT_EQ(t->schema().column(0).type, DataType::kDouble);
  EXPECT_EQ(t->tuple(0).value(0), Value::Double(1.0));
  // A leading space or `+` still reads as a number, as strtod reads it.
  Table* signed_cells = *ImportCsv(&catalog, "s", "x,y\n1, 2.5\n+3,-4\n");
  EXPECT_EQ(signed_cells->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(signed_cells->schema().column(1).type, DataType::kDouble);
  EXPECT_EQ(signed_cells->tuple(1).value(0), Value::Int(3));
  EXPECT_EQ(signed_cells->tuple(0).value(1), Value::Double(2.5));
}

TEST(ImportCsvTest, EmptyFieldsBecomeNull) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t", "x,y\n1,\n,b\n");
  EXPECT_TRUE(t->tuple(0).value(1).is_null());
  EXPECT_TRUE(t->tuple(1).value(0).is_null());
  EXPECT_EQ(t->schema().column(0).type, DataType::kInt64);
}

TEST(ImportCsvTest, ConfidenceColumnConsumed) {
  Catalog catalog;
  CsvOptions options;
  options.confidence_column = "conf";
  Table* t = *ImportCsv(&catalog, "t", "name,conf\nann,0.3\nbob,0.8\n", options);
  EXPECT_EQ(t->schema().num_columns(), 1u);  // conf stripped from data
  EXPECT_DOUBLE_EQ(t->tuple(0).confidence(), 0.3);
  EXPECT_DOUBLE_EQ(t->tuple(1).confidence(), 0.8);
}

TEST(ImportCsvTest, MissingConfidenceColumnIsError) {
  Catalog catalog;
  CsvOptions options;
  options.confidence_column = "trust";
  EXPECT_TRUE(
      ImportCsv(&catalog, "t", "name\nann\n", options).status().IsInvalidArgument());
}

TEST(ImportCsvTest, BadConfidenceValueIsError) {
  Catalog catalog;
  CsvOptions options;
  options.confidence_column = "conf";
  EXPECT_TRUE(ImportCsv(&catalog, "t", "name,conf\nann,high\n", options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ImportCsvTest, RaggedRowsRejected) {
  Catalog catalog;
  EXPECT_TRUE(
      ImportCsv(&catalog, "t", "a,b\n1,2,3\n").status().IsInvalidArgument());
}

TEST(ImportCsvTest, HeaderlessInput) {
  Catalog catalog;
  CsvOptions options;
  options.has_header = false;
  Table* t = *ImportCsv(&catalog, "t", "1,x\n2,y\n", options);
  EXPECT_EQ(t->schema().column(0).name, "col0");
  EXPECT_EQ(t->num_tuples(), 2u);
}

TEST(ImportCsvTest, DefaultCostFunctionAttached) {
  Catalog catalog;
  CsvOptions options;
  options.default_cost = *MakeLinearCost(500.0);
  Table* t = *ImportCsv(&catalog, "t", "x\n1\n", options);
  EXPECT_NEAR(t->tuple(0).cost_function()->Increment(0.0, 0.1), 50.0, 1e-9);
}

TEST(ExportCsvTest, RoundTripsWithConfidence) {
  // Values containing quotes, delimiters and newlines survive a
  // export -> import cycle; confidences ride along in their own column.
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"name", DataType::kString, ""},
                                               {"score", DataType::kDouble, ""}}));
  ASSERT_TRUE(t->Insert({Value::String("ann"), Value::Double(1.5)}, 0.3).ok());
  ASSERT_TRUE(
      t->Insert({Value::String("has\"quote, comma\nand newline"), Value::Double(2.0)},
                0.9)
          .ok());

  CsvOptions options;
  options.confidence_column = "confidence";
  std::string exported = ExportCsv(*t, options);
  Catalog catalog2;
  Table* t2 = *ImportCsv(&catalog2, "t", exported, options);
  ASSERT_EQ(t2->num_tuples(), 2u);
  EXPECT_EQ(t2->tuple(1).value(0), Value::String("has\"quote, comma\nand newline"));
  EXPECT_DOUBLE_EQ(t2->tuple(0).confidence(), 0.3);
  EXPECT_DOUBLE_EQ(t2->tuple(1).confidence(), 0.9);
}

TEST(ImportCsvTest, BareQuoteMidFieldIsParseError) {
  Catalog catalog;
  EXPECT_TRUE(
      ImportCsv(&catalog, "t", "name\nhas\"quote\n").status().IsParseError());
}

TEST(ExportCsvTest, NullsExportEmpty) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""},
                                               {"b", DataType::kString, ""}}));
  ASSERT_TRUE(t->Insert({Value::Null(), Value::String("x")}, 0.5).ok());
  EXPECT_EQ(ExportCsv(*t), "a,b\n,x\n");
}

TEST(CsvFileTest, FileRoundTrip) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", Schema({{"a", DataType::kInt64, ""}}));
  ASSERT_TRUE(t->Insert({Value::Int(7)}, 0.5).ok());
  std::string path = ::testing::TempDir() + "/pcqe_csv_test.csv";
  ASSERT_TRUE(ExportCsvFile(*t, path).ok());
  Catalog catalog2;
  Table* t2 = *ImportCsvFile(&catalog2, "t", path);
  ASSERT_EQ(t2->num_tuples(), 1u);
  EXPECT_EQ(t2->tuple(0).value(0), Value::Int(7));
  EXPECT_TRUE(ImportCsvFile(&catalog2, "u", "/nonexistent/file.csv").status().IsNotFound());
}

TEST(ParseCsvTest, ReportsQuotedFields) {
  std::vector<std::vector<bool>> quoted;
  auto rows = *ParseCsv("a,\"\",\"x\"\n,\"\"\n", ',', &quoted);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "x"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", ""}));
  ASSERT_EQ(quoted.size(), 2u);
  EXPECT_EQ(quoted[0], (std::vector<bool>{false, true, true}));
  EXPECT_EQ(quoted[1], (std::vector<bool>{false, true}));
}

// In a VARCHAR column `""` is the empty string and an empty field is NULL;
// in other columns both are NULL, and inference reads `""` as empty.
TEST(ImportCsvTest, QuotedEmptyIsEmptyStringUnquotedIsNull) {
  Catalog catalog;
  Table* t = *ImportCsv(&catalog, "t", "s,n\nx,1\n\"\",\"\"\n,\n");
  ASSERT_EQ(t->schema().column(0).type, DataType::kString);
  ASSERT_EQ(t->schema().column(1).type, DataType::kInt64);
  ASSERT_EQ(t->num_tuples(), 3u);
  EXPECT_EQ(t->tuple(1).value(0), Value::String(""));
  EXPECT_TRUE(t->tuple(1).value(1).is_null());
  EXPECT_TRUE(t->tuple(2).value(0).is_null());
  EXPECT_TRUE(t->tuple(2).value(1).is_null());
  EXPECT_EQ(ExportCsv(*t), "s,n\nx,1\n\"\",\n,\n");
}

// `.save` writes what `.load` reads back bit for bit: doubles and
// confidences with 17 significant digits, '' apart from NULL.
TEST(ExportCsvTest, RoundTripIsExact) {
  Catalog catalog;
  // `w` holds integral doubles only. Written as bare digits they would read
  // back as a BIGINT column, and -0.0 as 0; value equality alone cannot see
  // either, so the check below compares column types and bits.
  Table* t = *catalog.CreateTable("t", Schema({{"s", DataType::kString, ""},
                                               {"x", DataType::kDouble, ""},
                                               {"w", DataType::kDouble, ""}}));
  ASSERT_TRUE(t->Insert({Value::String(""), Value::Double(-0.12345678901234566),
                         Value::Double(3.0)},
                        0.30000000000000004)
                  .ok());
  ASSERT_TRUE(
      t->Insert({Value::Null(), Value::Double(1e-300), Value::Double(-0.0)}, 0.1).ok());
  ASSERT_TRUE(
      t->Insert({Value::String("big"), Value::Double(2.5), Value::Double(1e16)}, 0.5).ok());
  // Subnormals, which strtod flags with ERANGE: the smallest one, the
  // largest one, and a subnormal confidence.
  ASSERT_TRUE(t->Insert({Value::String("min"), Value::Double(4.9406564584124654e-324),
                         Value::Double(7.0)},
                        1e-310)
                  .ok());
  ASSERT_TRUE(t->Insert({Value::String("max"), Value::Double(2.2250738585072009e-308),
                         Value::Double(-8.0)},
                        0.25)
                  .ok());
  CsvOptions options;
  options.confidence_column = "conf";
  const std::string exported = ExportCsv(*t, options);
  EXPECT_EQ(exported,
            "s,x,w,conf\n\"\",-0.12345678901234566,3.0,0.30000000000000004\n"
            ",1e-300,-0.0,0.10000000000000001\n"
            "big,2.5,10000000000000000.0,0.5\n"
            "min,4.9406564584124654e-324,7.0,9.9999999999999694e-311\n"
            "max,2.2250738585072009e-308,-8.0,0.25\n");
  Catalog again;
  auto imported = ImportCsv(&again, "t", exported, options);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  Table* t2 = *imported;
  ASSERT_EQ(t2->num_tuples(), 5u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(t2->schema().column(c).type, t->schema().column(c).type) << "column " << c;
  }
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      SCOPED_TRACE(::testing::Message() << "row " << r << " column " << c);
      const Value want = t->tuple(r).value(c);
      const Value got = t2->tuple(r).value(c);
      EXPECT_EQ(got, want);
      ASSERT_EQ(got.type(), want.type());
      if (want.type() == DataType::kDouble) {
        EXPECT_EQ(std::bit_cast<uint64_t>(*got.AsDouble()),
                  std::bit_cast<uint64_t>(*want.AsDouble()));
      }
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(t2->tuple(r).confidence()),
              std::bit_cast<uint64_t>(t->tuple(r).confidence()))
        << r;
  }
  EXPECT_EQ(ExportCsv(*t2, options), exported);
}

TEST(ImportCsvTest, FailedImportLeavesNoTable) {
  CsvOptions options;
  options.confidence_column = "conf";
  for (const char* bad : {"a,conf\n1,0.5\n2,0.5\n3,1.5\n", "a,conf\n1,0.5\n2,nan\n",
                          "a,conf\n1,0.5\n2,high\n"}) {
    SCOPED_TRACE(bad);
    Catalog catalog;
    EXPECT_TRUE(ImportCsv(&catalog, "t", bad, options).status().IsInvalidArgument());
    EXPECT_TRUE(catalog.TableNames().empty());
    EXPECT_TRUE(static_cast<const Catalog&>(catalog).GetTable("t").status().IsNotFound());
    // A retry with a fixed file succeeds.
    Table* t = *ImportCsv(&catalog, "t", "a,conf\n1,0.5\n", options);
    EXPECT_EQ(t->num_tuples(), 1u);
  }
}

}  // namespace
}  // namespace pcqe
