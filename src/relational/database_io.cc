#include "relational/database_io.h"

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "common/text_io.h"
#include "relational/csv.h"

namespace pcqe {

namespace {

Result<DataType> ParseDataType(const std::string& name) {
  for (DataType t : {DataType::kNull, DataType::kBool, DataType::kInt64,
                     DataType::kDouble, DataType::kString}) {
    if (DataTypeToString(t) == name) return t;
  }
  return Status::ParseError(StrFormat("unknown data type '%s'", name.c_str()));
}

/// A `__confidence` / `__max_confidence` cell: the whole field must be a
/// number in [0, 1]. A garbage cell read as 0.0 would leak through policy
/// filtering as "everything blocked".
Result<double> ParseConfidenceCell(const std::string& field, const char* what) {
  std::optional<double> v = ParseDouble(field);
  if (!v) {
    return Status::InvalidArgument(
        StrFormat("%s cell '%s' is not a number", what, field.c_str()));
  }
  if (!(*v >= 0.0 && *v <= 1.0)) {
    return Status::InvalidArgument(StrFormat("%s %.17g outside [0, 1]", what, *v));
  }
  return *v;
}

/// An unsigned-integer field of the manifest header.
Result<uint64_t> ParseU64Field(std::string_view field, const char* what) {
  std::optional<uint64_t> v = ParseUint64(field);
  if (!v) {
    return Status::InvalidArgument(StrCat({what, " '", field, "' is not an unsigned integer"}));
  }
  return *v;
}

}  // namespace

Status SaveDatabase(const Catalog& catalog, const std::string& dir) {
  // Format-2 header: version counter first, so cache-invalidation state
  // survives a checkpoint/restore round-trip; then explicit table ids, so
  // persisted BaseTupleIds (WAL actions, exported lineage) stay valid.
  std::string manifest = StrFormat(
      "PCQE_DB 2\nconfidence_version %llu\n",
      static_cast<unsigned long long>(catalog.confidence_version()));
  for (const std::string& name : catalog.TableNames()) {
    PCQE_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    manifest += StrFormat("table %u ", table->table_id()) + name + "\n";

    // Schema sidecar.
    std::string schema_text;
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      const Column& col = table->schema().column(c);
      schema_text += col.name + "\t" + DataTypeToString(col.type) + "\n";
    }
    PCQE_RETURN_NOT_OK(WriteFile(dir + "/" + name + ".schema", schema_text));

    // Rows with the reserved annotation columns, written straight from the
    // chunks' typed arrays. Doubles carry 17 significant digits (and cost
    // parameters too), so a reload reproduces every value bit for bit.
    std::string csv;
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      AppendCsvField(&csv, table->schema().column(c).name);
      csv += ',';
    }
    csv += "__confidence,__max_confidence,__cost\n";
    const TableColumnData& data = table->column_data();
    std::string cost;  // reused: one cost cell at a time
    for (size_t row = 0; row < data.num_rows(); ++row) {
      const size_t ch = TableColumnData::ChunkOf(row);
      const size_t i = TableColumnData::OffsetOf(row);
      for (size_t c = 0; c < data.num_columns(); ++c) {
        AppendCsvCell(&csv, data.chunk(c, ch), i);
        csv += ',';
      }
      AppendDouble(&csv, data.confidence(row), 17);
      csv += ',';
      AppendDouble(&csv, data.max_confidence(row), 17);
      csv += ',';
      cost.clear();
      data.cost_function(row)->AppendDescription(&cost, 17);
      AppendCsvField(&csv, cost);
      csv += '\n';
    }
    PCQE_RETURN_NOT_OK(WriteFile(dir + "/" + name + ".csv", csv));
  }
  return WriteFile(dir + "/manifest.pcqe", manifest);
}

namespace {

/// `LoadDatabase` without the rollback; names every table it creates in `created`.
Status LoadTables(const std::string& dir, Catalog* catalog,
                  std::vector<std::string>* created) {
  PCQE_ASSIGN_OR_RETURN(std::string manifest, ReadFile(dir + "/manifest.pcqe"));
  std::istringstream lines(manifest);
  std::string line;

  // Header. Format 2 starts with "PCQE_DB 2"; a manifest whose first line
  // does not announce a format is a legacy (headerless) v1 list of names.
  uint64_t confidence_version = 0;
  bool v2 = false;
  std::streampos body_start = lines.tellg();
  if (std::getline(lines, line) && StartsWith(TrimAscii(line), "PCQE_DB")) {
    v2 = true;
    PCQE_ASSIGN_OR_RETURN(uint64_t format,
                          ParseU64Field(TrimAscii(line).substr(7), "database format version"));
    if (format != 2) {
      return Status::InvalidArgument(
          StrFormat("unsupported database format version %llu (expected 2)",
                    static_cast<unsigned long long>(format)));
    }
    if (!std::getline(lines, line) || !StartsWith(TrimAscii(line), "confidence_version ")) {
      return Status::InvalidArgument(
          "truncated database header: missing confidence_version line");
    }
    PCQE_ASSIGN_OR_RETURN(confidence_version,
                          ParseU64Field(TrimAscii(line).substr(19), "confidence_version"));
  } else {
    lines.clear();
    lines.seekg(body_start);
  }

  while (std::getline(lines, line)) {
    std::string entry(TrimAscii(line));
    if (entry.empty()) continue;

    std::string name = entry;
    uint32_t table_id = 0;  // 0 = assign fresh (legacy manifests)
    if (v2) {
      // `rest` is trimmed, so a space in it has a name after it.
      std::string_view rest =
          StartsWith(entry, "table ") ? TrimAscii(std::string_view(entry).substr(6)) : "";
      const size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        return Status::ParseError(
            StrFormat("malformed manifest line '%s' (expected 'table <id> <name>')",
                      entry.c_str()));
      }
      PCQE_ASSIGN_OR_RETURN(uint64_t id, ParseU64Field(rest.substr(0, space), "table id"));
      if (id == 0 || id > UINT32_MAX) {
        return Status::InvalidArgument(StrFormat(
            "table id %llu out of range", static_cast<unsigned long long>(id)));
      }
      table_id = static_cast<uint32_t>(id);
      name = std::string(TrimAscii(rest.substr(space + 1)));
    }

    // Schema sidecar.
    PCQE_ASSIGN_OR_RETURN(std::string schema_text, ReadFile(dir + "/" + name + ".schema"));
    Schema schema;
    std::istringstream schema_lines(schema_text);
    std::string schema_line;
    while (std::getline(schema_lines, schema_line)) {
      if (TrimAscii(schema_line).empty()) continue;
      size_t tab = schema_line.find('\t');
      if (tab == std::string::npos) {
        return Status::ParseError(
            StrFormat("malformed schema line '%s' for table '%s'",
                      schema_line.c_str(), name.c_str()));
      }
      PCQE_ASSIGN_OR_RETURN(DataType type, ParseDataType(schema_line.substr(tab + 1)));
      schema.AddColumn({schema_line.substr(0, tab), type, ""});
    }

    Table* table = nullptr;
    if (table_id != 0) {
      PCQE_ASSIGN_OR_RETURN(table, catalog->CreateTableWithId(name, schema, table_id));
    } else {
      PCQE_ASSIGN_OR_RETURN(table, catalog->CreateTable(name, schema));
    }
    created->push_back(name);

    // Rows.
    PCQE_ASSIGN_OR_RETURN(std::string csv, ReadFile(dir + "/" + name + ".csv"));
    std::vector<std::vector<bool>> quoted;
    PCQE_ASSIGN_OR_RETURN(auto rows, ParseCsv(csv, ',', &quoted));
    const size_t ncols = schema.num_columns();
    // One row: its cells, then __confidence, __max_confidence and __cost.
    auto load_row = [&](const std::vector<std::string>& fields,
                        const std::vector<bool>& fields_quoted) -> Status {
      if (fields.size() != ncols + 3) {
        return Status::ParseError(
            StrFormat("%zu fields, expected %zu", fields.size(), ncols + 3));
      }
      std::vector<Value> values;
      values.reserve(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        auto v = ParseCsvCell(fields[c], fields_quoted[c], schema.column(c).type);
        if (!v.ok()) {
          return v.status().WithContext(StrCat({"column '", schema.column(c).name, "'"}));
        }
        values.push_back(std::move(*v));
      }
      PCQE_ASSIGN_OR_RETURN(double confidence,
                            ParseConfidenceCell(fields[ncols], "__confidence"));
      PCQE_ASSIGN_OR_RETURN(double max_confidence,
                            ParseConfidenceCell(fields[ncols + 1], "__max_confidence"));
      PCQE_ASSIGN_OR_RETURN(CostFunctionPtr cost, ParseCostFunction(fields[ncols + 2]));
      return table->Insert(std::move(values), confidence, std::move(cost), max_confidence)
          .status();
    };
    for (size_t r = 1; r < rows.size(); ++r) {  // rows[0] is the header
      PCQE_RETURN_NOT_OK(load_row(rows[r], quoted[r])
                             .WithContext(StrFormat("table '%s' row %zu", name.c_str(), r)));
    }
  }
  if (v2) catalog->RestoreConfidenceVersion(confidence_version);
  return Status::OK();
}

}  // namespace

Status LoadDatabase(const std::string& dir, Catalog* catalog) {
  std::vector<std::string> created;
  Status loaded = LoadTables(dir, catalog, &created);
  if (!loaded.ok()) {
    // All or nothing: the tables this call created go again, so a retry
    // with fixed files starts from where this call started.
    for (const std::string& name : created) (void)catalog->DropTable(name);
  }
  return loaded;
}

}  // namespace pcqe
