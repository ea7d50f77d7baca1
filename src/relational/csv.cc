#include "relational/csv.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

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

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& s, bool* out) {
  if (EqualsIgnoreCaseAscii(s, "true")) {
    *out = true;
    return true;
  }
  if (EqualsIgnoreCaseAscii(s, "false")) {
    *out = false;
    return true;
  }
  return false;
}

/// Infers the narrowest type covering every non-empty field of a column.
DataType InferColumnType(const std::vector<std::vector<std::string>>& rows, size_t col) {
  bool all_int = true, all_double = true, all_bool = true, any_value = false;
  for (const auto& row : rows) {
    if (col >= row.size() || row[col].empty()) continue;
    any_value = true;
    int64_t i;
    double d;
    bool b;
    if (!ParseInt(row[col], &i)) all_int = false;
    if (!ParseDouble(row[col], &d)) all_double = false;
    if (!ParseBool(row[col], &b)) all_bool = false;
    if (!all_int && !all_double && !all_bool) return DataType::kString;
  }
  if (!any_value) return DataType::kString;  // all-NULL column defaults to text
  if (all_bool) return DataType::kBool;
  if (all_int) return DataType::kInt64;
  if (all_double) return DataType::kDouble;
  return DataType::kString;
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

  std::vector<std::vector<std::string>> data(rows.begin() + static_cast<long>(data_begin),
                                             rows.end());
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
    std::vector<Value> values;
    values.reserve(value_cols.size());
    for (size_t out_c = 0; out_c < value_cols.size(); ++out_c) {
      const std::string& field = data[r][value_cols[out_c]];
      if (field.empty()) {
        // A quoted empty field is '' in a VARCHAR column; anything else
        // empty is NULL.
        const bool quoted_empty = quoted[r + data_begin][value_cols[out_c]] &&
                                  schema.column(out_c).type == DataType::kString;
        values.push_back(quoted_empty ? Value::String("") : Value::Null());
        continue;
      }
      switch (schema.column(out_c).type) {
        case DataType::kBool: {
          bool b = false;
          ParseBool(field, &b);
          values.push_back(Value::Bool(b));
          break;
        }
        case DataType::kInt64: {
          int64_t v = 0;
          ParseInt(field, &v);
          values.push_back(Value::Int(v));
          break;
        }
        case DataType::kDouble: {
          double v = 0;
          ParseDouble(field, &v);
          values.push_back(Value::Double(v));
          break;
        }
        default:
          values.push_back(Value::String(field));
      }
    }
    double confidence = options.default_confidence;
    if (conf_col < header.size()) {
      const std::string& field = data[r][conf_col];
      if (!field.empty() && !ParseDouble(field, &confidence)) {
        return fail(Status::InvalidArgument(
            StrFormat("row %zu: confidence '%s' is not numeric", r + data_begin + 1,
                      field.c_str())));
      }
    }
    auto inserted = table->Insert(std::move(values), confidence, options.default_cost);
    if (!inserted.ok()) {
      return fail(inserted.status().WithContext(StrFormat("CSV row %zu", r + data_begin + 1)));
    }
  }
  return table;
}

Result<Table*> ImportCsvFile(Catalog* catalog, const std::string& table_name,
                             const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ImportCsv(catalog, table_name, buffer.str(), options);
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
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument(StrFormat("cannot write '%s'", path.c_str()));
  out << ExportCsv(table, options);
  return out.good() ? Status::OK()
                    : Status::Internal(StrFormat("write to '%s' failed", path.c_str()));
}

}  // namespace pcqe
