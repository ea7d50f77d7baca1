#include "relational/csv.h"

#include <algorithm>
#include <span>

#include "common/string_util.h"
#include "common/text_io.h"

namespace pcqe {

Result<std::vector<std::vector<std::string>>> ParseCsv(const std::string& text,
                                                       char delimiter,
                                                       std::vector<std::vector<bool>>* quoted) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::vector<bool> quoted_row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // row has content (handles trailing newline)
  bool field_quoted = false;

  size_t i = 0;
  const size_t n = text.size();
  auto end_field = [&]() {
    row.push_back(std::move(field));
    quoted_row.push_back(field_quoted);
    field.clear();
    field_started = false;
    field_quoted = false;
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
    if (quoted != nullptr) quoted->push_back(std::move(quoted_row));
    quoted_row.clear();
  };

  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      field_started = true;
      field_quoted = true;
      ++i;
      continue;
    }
    if (c == delimiter) {
      end_field();
      field_started = true;  // a delimiter implies at least two fields
      ++i;
      continue;
    }
    if (c == '\r') {
      ++i;  // tolerate CRLF
      continue;
    }
    if (c == '\n') {
      if (field_started || !field.empty() || !row.empty()) end_row();
      ++i;
      continue;
    }
    field += c;
    field_started = true;
    ++i;
  }
  if (in_quotes) return Status::ParseError("unterminated quoted CSV field");
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

namespace {

/// Infers the narrowest type whose decoder reads every non-empty field of a
/// column: BOOLEAN, then BIGINT, then DOUBLE, else VARCHAR.
DataType InferColumnType(std::span<const std::vector<std::string>> rows, size_t col) {
  std::vector<DataType> candidates = {DataType::kBool, DataType::kInt64, DataType::kDouble};
  bool any_value = false;
  for (const auto& row : rows) {
    if (col >= row.size() || row[col].empty()) continue;
    any_value = true;
    std::erase_if(candidates,
                  [&](DataType t) { return !ParseCsvCell(row[col], false, t).ok(); });
    if (candidates.empty()) return DataType::kString;
  }
  return any_value ? candidates.front() : DataType::kString;  // all-NULL: text
}

/// Whether a field must be quoted on export.
bool NeedsQuoting(std::string_view s, char delimiter) {
  for (char c : s) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

void AppendCsvField(std::string* out, std::string_view field, char delimiter) {
  if (!NeedsQuoting(field, delimiter)) {
    out->append(field);
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

void AppendCsvCell(std::string* out, const ColumnChunk& chunk, size_t offset,
                   char delimiter) {
  if (chunk.IsNull(offset)) return;
  const size_t start = out->size();
  switch (chunk.type()) {
    case DataType::kNull:
      return;
    case DataType::kString:
      if (chunk.StringAt(offset).empty()) {
        *out += "\"\"";  // '' is quoted; an empty field is NULL
        return;
      }
      AppendCsvField(out, chunk.StringAt(offset), delimiter);
      return;
    case DataType::kBool:
      *out += chunk.BoolAt(offset) ? "true" : "false";
      break;
    case DataType::kInt64:
      AppendInt(out, chunk.IntAt(offset));
      break;
    case DataType::kDouble:
      AppendDouble(out, chunk.DoubleAt(offset), 17);
      // Bare digits ("3", "-0") would read back as BIGINT, losing -0.0's sign.
      if (out->find_first_not_of("-0123456789", start) == std::string::npos) *out += ".0";
      break;
  }
  // Digits and booleans need quotes only under an unusual delimiter.
  if (NeedsQuoting(std::string_view(*out).substr(start), delimiter)) {
    std::string field = out->substr(start);
    out->resize(start);
    AppendCsvField(out, field, delimiter);
  }
}

Result<Value> ParseCsvCell(std::string_view field, bool quoted, DataType type) {
  if (field.empty()) {
    return quoted && type == DataType::kString ? Value::String("") : Value::Null();
  }
  switch (type) {
    case DataType::kBool:
      if (EqualsIgnoreCaseAscii(field, "true")) return Value::Bool(true);
      if (EqualsIgnoreCaseAscii(field, "false")) return Value::Bool(false);
      break;
    case DataType::kInt64:
      if (std::optional<int64_t> v = ParseInt64(field)) return Value::Int(*v);
      break;
    case DataType::kDouble:
      if (std::optional<double> v = ParseDouble(field)) return Value::Double(*v);
      break;
    case DataType::kString:
    case DataType::kNull:
      return Value::String(std::string(field));
  }
  return Status::ParseError(StrCat({"'", field, "' is not a ", DataTypeToString(type)}));
}

Result<Table*> ImportCsv(Catalog* catalog, const std::string& table_name,
                         const std::string& csv_text, const CsvOptions& options) {
  std::vector<std::vector<bool>> quoted;
  PCQE_ASSIGN_OR_RETURN(auto rows, ParseCsv(csv_text, options.delimiter, &quoted));
  if (rows.empty()) return Status::InvalidArgument("CSV input has no rows");

  std::vector<std::string> header;
  size_t data_begin = 0;
  if (options.has_header) {
    header = rows[0];
    data_begin = 1;
  } else {
    for (size_t c = 0; c < rows[0].size(); ++c) header.push_back(StrFormat("col%zu", c));
  }

  // Locate and strip the confidence column.
  size_t conf_col = header.size();
  if (!options.confidence_column.empty()) {
    for (size_t c = 0; c < header.size(); ++c) {
      if (EqualsIgnoreCaseAscii(header[c], options.confidence_column)) {
        conf_col = c;
        break;
      }
    }
    if (conf_col == header.size()) {
      return Status::InvalidArgument(StrFormat("confidence column '%s' not in header",
                                               options.confidence_column.c_str()));
    }
  }

  const std::span<const std::vector<std::string>> data(rows.data() + data_begin,
                                                       rows.size() - data_begin);
  for (size_t r = 0; r < data.size(); ++r) {
    if (data[r].size() != header.size()) {
      return Status::InvalidArgument(
          StrFormat("CSV row %zu has %zu fields, header has %zu", r + data_begin + 1,
                    data[r].size(), header.size()));
    }
  }

  // Schema over the non-confidence columns.
  Schema schema;
  std::vector<size_t> value_cols;
  for (size_t c = 0; c < header.size(); ++c) {
    if (c == conf_col) continue;
    value_cols.push_back(c);
    schema.AddColumn({header[c], InferColumnType(data, c), ""});
  }

  PCQE_ASSIGN_OR_RETURN(Table * table, catalog->CreateTable(table_name, schema));
  // A bad row fails the whole import: the table goes again, so a retry with
  // a fixed file starts from where this call started.
  auto fail = [&](Status error) {
    (void)catalog->DropTable(table_name);
    return error;
  };

  for (size_t r = 0; r < data.size(); ++r) {
    const size_t line = r + data_begin + 1;
    std::vector<Value> values;
    values.reserve(value_cols.size());
    for (size_t out_c = 0; out_c < value_cols.size(); ++out_c) {
      const size_t c = value_cols[out_c];
      auto value = ParseCsvCell(data[r][c], quoted[r + data_begin][c],
                                schema.column(out_c).type);
      if (!value.ok()) return fail(value.status().WithContext(StrFormat("CSV row %zu", line)));
      values.push_back(std::move(*value));
    }
    double confidence = options.default_confidence;
    if (conf_col < header.size() && !data[r][conf_col].empty()) {
      std::optional<double> parsed = ParseDouble(data[r][conf_col]);
      if (!parsed) {
        return fail(Status::InvalidArgument(StrFormat(
            "row %zu: confidence '%s' is not numeric", line, data[r][conf_col].c_str())));
      }
      confidence = *parsed;
    }
    auto inserted = table->Insert(std::move(values), confidence, options.default_cost);
    if (!inserted.ok()) {
      return fail(inserted.status().WithContext(StrFormat("CSV row %zu", line)));
    }
  }
  return table;
}

Result<Table*> ImportCsvFile(Catalog* catalog, const std::string& table_name,
                             const std::string& path, const CsvOptions& options) {
  PCQE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ImportCsv(catalog, table_name, text, options);
}

std::string ExportCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  const char d = options.delimiter;
  if (options.has_header) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      if (c > 0) out += d;
      AppendCsvField(&out, table.schema().column(c).name, d);
    }
    if (!options.confidence_column.empty()) {
      if (table.schema().num_columns() > 0) out += d;
      AppendCsvField(&out, options.confidence_column, d);
    }
    out += '\n';
  }
  const TableColumnData& data = table.column_data();
  const size_t ncols = data.num_columns();
  for (size_t ch = 0; ch < data.num_chunks(); ++ch) {
    const std::vector<double>& confidences = data.confidence_chunk(ch);
    for (size_t i = 0; i < confidences.size(); ++i) {
      for (size_t c = 0; c < ncols; ++c) {
        if (c > 0) out += d;
        AppendCsvCell(&out, data.chunk(c, ch), i, d);
      }
      if (!options.confidence_column.empty()) {
        if (ncols > 0) out += d;
        AppendDouble(&out, confidences[i], 17);
      }
      out += '\n';
    }
  }
  return out;
}

Status ExportCsvFile(const Table& table, const std::string& path,
                     const CsvOptions& options) {
  return WriteFile(path, ExportCsv(table, options));
}

}  // namespace pcqe
