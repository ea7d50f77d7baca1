// Copyright (c) PCQE contributors.
// CSV import/export for confidence-annotated tables.

#ifndef PCQE_RELATIONAL_CSV_H_
#define PCQE_RELATIONAL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"

namespace pcqe {

/// \brief Options for CSV import and export.
struct CsvOptions {
  char delimiter = ',';
  /// Import: first row holds column names. Export: write a header row.
  bool has_header = true;
  /// Import: name of a column carrying per-row confidence in [0, 1]; it is
  /// consumed (not stored as data). Empty means "no confidence column".
  /// Export: when non-empty, append a confidence column under this name.
  std::string confidence_column;
  /// Confidence for rows without a confidence column.
  double default_confidence = 1.0;
  /// Cost function attached to imported tuples; null uses the default.
  CostFunctionPtr default_cost;
};

/// \brief Parses CSV text into a new table in `catalog`.
///
/// RFC-4180 quoting is supported: fields may be wrapped in double quotes,
/// `""` escapes a quote, and quoted fields may contain delimiters and
/// newlines. Column types are inferred from the data: a column whose
/// non-empty fields all parse as integers is BIGINT, all-numeric is DOUBLE,
/// all true/false is BOOLEAN, anything else VARCHAR; empty fields import as
/// NULL. A file with no data rows yields an all-VARCHAR table.
[[nodiscard]] Result<Table*> ImportCsv(Catalog* catalog, const std::string& table_name,
                         const std::string& csv_text, const CsvOptions& options = {});

/// Reads `path` and imports it via `ImportCsv`.
[[nodiscard]] Result<Table*> ImportCsvFile(Catalog* catalog, const std::string& table_name,
                             const std::string& path, const CsvOptions& options = {});

/// \brief Serializes `table` as CSV (quoting fields when needed).
std::string ExportCsv(const Table& table, const CsvOptions& options = {});

/// Writes `ExportCsv(table)` to `path`.
[[nodiscard]] Status ExportCsvFile(const Table& table, const std::string& path,
                     const CsvOptions& options = {});

/// Splits raw CSV text into rows of fields (exposed for tests).
[[nodiscard]] Result<std::vector<std::vector<std::string>>> ParseCsv(const std::string& text,
                                                       char delimiter = ',');

/// Appends one field for CSV output to `out`: quoted (with `""` for each
/// quote) when it contains the delimiter, quotes or newlines, untouched
/// otherwise.
void AppendCsvField(std::string* out, std::string_view field, char delimiter = ',');

/// How `AppendCsvCell` prints DOUBLE cells.
enum class CsvDoubleFormat {
  kDisplay,  ///< as `FormatDouble` prints them (`ExportCsv`)
  kExact,    ///< 17 significant digits, which read back bit for bit (snapshots)
};

/// \brief Appends cell `offset` of `chunk` to `out` as one CSV field,
/// straight from the typed array: empty for NULL, `true`/`false`, the
/// integer's digits, the double per `doubles`, or the string, each quoted
/// when it needs it. Writes no line end and no delimiter.
void AppendCsvCell(std::string* out, const ColumnChunk& chunk, size_t offset,
                   CsvDoubleFormat doubles, char delimiter = ',');

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_CSV_H_
