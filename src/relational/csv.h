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
/// all true/false is BOOLEAN, anything else VARCHAR (a quoted empty field
/// `""` counts as empty here). Empty fields import as NULL, except that a
/// quoted empty field in a VARCHAR column is the empty string. A file with
/// no data rows yields an all-VARCHAR table. On any error no table is left
/// behind.
[[nodiscard]] Result<Table*> ImportCsv(Catalog* catalog, const std::string& table_name,
                         const std::string& csv_text, const CsvOptions& options = {});

/// Reads `path` and imports it via `ImportCsv`.
[[nodiscard]] Result<Table*> ImportCsvFile(Catalog* catalog, const std::string& table_name,
                             const std::string& path, const CsvOptions& options = {});

/// \brief Serializes `table` as CSV (quoting fields when needed), in the
/// form `ImportCsv` reads back exactly: NULL is an empty field, '' is `""`,
/// and DOUBLE cells and confidences carry 17 significant digits.
std::string ExportCsv(const Table& table, const CsvOptions& options = {});

/// Writes `ExportCsv(table)` to `path`.
[[nodiscard]] Status ExportCsvFile(const Table& table, const std::string& path,
                     const CsvOptions& options = {});

/// Splits raw CSV text into rows of fields. When `quoted` is non-null it
/// receives, aligned with the fields, whether each one was quoted, which
/// tells `""` from an empty field.
[[nodiscard]] Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text, char delimiter = ',',
    std::vector<std::vector<bool>>* quoted = nullptr);

/// Appends one field for CSV output to `out`: quoted (with `""` for each
/// quote) when it contains the delimiter, quotes or newlines, untouched
/// otherwise.
void AppendCsvField(std::string* out, std::string_view field, char delimiter = ',');

/// \brief Appends cell `offset` of `chunk` to `out` as one CSV field,
/// straight from the typed array: empty for NULL, `true`/`false`, the
/// integer's digits, the double with 17 significant digits (which reads
/// back bit for bit; an integral one keeps a `.0`, as in `3.0` or `-0.0`,
/// so type inference reads it back as DOUBLE, sign of zero included), or
/// the string, quoted when it needs it and `""` when empty. Writes no line
/// end and no delimiter.
void AppendCsvCell(std::string* out, const ColumnChunk& chunk, size_t offset,
                   char delimiter = ',');

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_CSV_H_
