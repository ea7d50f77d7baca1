#include "relational/database_io.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "relational/csv.h"

namespace pcqe {

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument(StrFormat("cannot write '%s'", path.c_str()));
  out << content;
  return out.good() ? Status::OK()
                    : Status::Internal(StrFormat("write to '%s' failed", path.c_str()));
}

Result<DataType> ParseDataType(const std::string& name) {
  for (DataType t : {DataType::kNull, DataType::kBool, DataType::kInt64,
                     DataType::kDouble, DataType::kString}) {
    if (DataTypeToString(t) == name) return t;
  }
  return Status::ParseError(StrFormat("unknown data type '%s'", name.c_str()));
}

/// Strict parse of a `__confidence` / `__max_confidence` cell: the whole
/// field must be a number in [0, 1]. The permissive alternative (strtod
/// with no error check) silently loads garbage cells as 0.0, which then
/// leaks through policy filtering as "everything blocked".
Result<double> ParseConfidenceCell(const std::string& field, const char* what) {
  errno = 0;
  char* end = nullptr;
  double v = field.empty() ? 0.0 : std::strtod(field.c_str(), &end);
  if (field.empty() || errno != 0 || end != field.c_str() + field.size()) {
    return Status::InvalidArgument(
        StrFormat("%s cell '%s' is not a number", what, field.c_str()));
  }
  if (!(v >= 0.0 && v <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("%s %.17g outside [0, 1]", what, v));
  }
  return v;
}

/// Strict unsigned-integer field parse for manifest headers.
Result<uint64_t> ParseU64Field(const std::string& field, const char* what) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v =
      field.empty() ? 0 : std::strtoull(field.c_str(), &end, 10);
  if (field.empty() || errno != 0 || end != field.c_str() + field.size()) {
    return Status::InvalidArgument(
        StrFormat("%s '%s' is not an unsigned integer", what, field.c_str()));
  }
  return static_cast<uint64_t>(v);
}

/// `quoted` tells '' (`""`) from NULL (an empty field) in a VARCHAR column.
Result<Value> ParseTypedValue(const std::string& field, bool quoted, DataType type) {
  if (field.empty()) {
    return quoted && type == DataType::kString ? Value::String("") : Value::Null();
  }
  char* end = nullptr;
  switch (type) {
    case DataType::kBool:
      if (EqualsIgnoreCaseAscii(field, "true")) return Value::Bool(true);
      if (EqualsIgnoreCaseAscii(field, "false")) return Value::Bool(false);
      return Status::ParseError(StrFormat("'%s' is not a BOOLEAN", field.c_str()));
    case DataType::kInt64: {
      errno = 0;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (errno != 0 || end != field.c_str() + field.size()) {
        return Status::ParseError(StrFormat("'%s' is not a BIGINT", field.c_str()));
      }
      return Value::Int(v);
    }
    case DataType::kDouble: {
      errno = 0;
      double v = std::strtod(field.c_str(), &end);
      if (errno != 0 || end != field.c_str() + field.size()) {
        return Status::ParseError(StrFormat("'%s' is not a DOUBLE", field.c_str()));
      }
      return Value::Double(v);
    }
    case DataType::kString:
    case DataType::kNull:
      return Value::String(field);
  }
  return Status::Internal("unreachable type");
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
  if (std::getline(lines, line) &&
      std::string(TrimAscii(line)).rfind("PCQE_DB", 0) == 0) {
    v2 = true;
    std::string tail(TrimAscii(std::string(TrimAscii(line)).substr(7)));
    PCQE_ASSIGN_OR_RETURN(uint64_t format,
                          ParseU64Field(tail, "database format version"));
    if (format != 2) {
      return Status::InvalidArgument(
          StrFormat("unsupported database format version %llu (expected 2)",
                    static_cast<unsigned long long>(format)));
    }
    if (!std::getline(lines, line) ||
        std::string(TrimAscii(line)).rfind("confidence_version ", 0) != 0) {
      return Status::InvalidArgument(
          "truncated database header: missing confidence_version line");
    }
    PCQE_ASSIGN_OR_RETURN(
        confidence_version,
        ParseU64Field(std::string(TrimAscii(std::string(TrimAscii(line)).substr(19))),
                      "confidence_version"));
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
      if (entry.rfind("table ", 0) != 0) {
        return Status::ParseError(
            StrFormat("malformed manifest line '%s' (expected 'table <id> <name>')",
                      entry.c_str()));
      }
      std::string rest(TrimAscii(entry.substr(6)));
      size_t space = rest.find(' ');
      if (space == std::string::npos) {
        return Status::ParseError(
            StrFormat("malformed manifest line '%s' (expected 'table <id> <name>')",
                      entry.c_str()));
      }
      PCQE_ASSIGN_OR_RETURN(uint64_t id,
                            ParseU64Field(rest.substr(0, space), "table id"));
      if (id == 0 || id > UINT32_MAX) {
        return Status::InvalidArgument(StrFormat(
            "table id %llu out of range", static_cast<unsigned long long>(id)));
      }
      table_id = static_cast<uint32_t>(id);
      name = std::string(TrimAscii(rest.substr(space + 1)));
      if (name.empty()) {
        return Status::ParseError(
            StrFormat("malformed manifest line '%s' (empty table name)",
                      entry.c_str()));
      }
    }

    // Schema sidecar.
    PCQE_ASSIGN_OR_RETURN(std::string schema_text, ReadFile(dir + "/" + name + ".schema"));
    Schema schema;
    std::istringstream schema_lines(schema_text);
    std::string schema_line;
    while (std::getline(schema_lines, schema_line)) {
      if (std::string(TrimAscii(schema_line)).empty()) continue;
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
    const size_t expected = ncols + 3;  // + confidence, max, cost
    for (size_t r = 1; r < rows.size(); ++r) {  // rows[0] is the header
      if (rows[r].size() != expected) {
        return Status::ParseError(
            StrFormat("table '%s' row %zu has %zu fields, expected %zu", name.c_str(),
                      r, rows[r].size(), expected));
      }
      std::vector<Value> values;
      values.reserve(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        auto v = ParseTypedValue(rows[r][c], quoted[r][c], schema.column(c).type);
        if (!v.ok()) {
          return v.status().WithContext(
              StrFormat("table '%s' row %zu column '%s'", name.c_str(), r,
                        schema.column(c).name.c_str()));
        }
        values.push_back(std::move(*v));
      }
      auto confidence = ParseConfidenceCell(rows[r][ncols], "__confidence");
      if (!confidence.ok()) {
        return confidence.status().WithContext(
            StrFormat("table '%s' row %zu", name.c_str(), r));
      }
      auto max_confidence = ParseConfidenceCell(rows[r][ncols + 1], "__max_confidence");
      if (!max_confidence.ok()) {
        return max_confidence.status().WithContext(
            StrFormat("table '%s' row %zu", name.c_str(), r));
      }
      PCQE_ASSIGN_OR_RETURN(CostFunctionPtr cost, ParseCostFunction(rows[r][ncols + 2]));
      auto inserted =
          table->Insert(std::move(values), *confidence, std::move(cost), *max_confidence);
      if (!inserted.ok()) {
        return inserted.status().WithContext(
            StrFormat("table '%s' row %zu", name.c_str(), r));
      }
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
