// Copyright (c) PCQE contributors.
// Whole-database persistence: schemas, rows, confidences and cost models.

#ifndef PCQE_RELATIONAL_DATABASE_IO_H_
#define PCQE_RELATIONAL_DATABASE_IO_H_

#include <string>

#include "common/result.h"
#include "relational/catalog.h"

namespace pcqe {

/// \brief Serializes every table of `catalog` into `dir`.
///
/// Layout (plain text, diff-friendly):
/// - `dir/manifest.pcqe` — a format-2 header (`PCQE_DB 2`, then
///   `confidence_version <v>`), followed by one `table <id> <name>` line per
///   table in creation order;
/// - `dir/<table>.schema` — one `name<TAB>TYPE` line per column;
/// - `dir/<table>.csv` — the rows, plus three reserved columns
///   `__confidence`, `__max_confidence` and `__cost` (the cost function in
///   its `ToString` form, e.g. `exponential(a=2, b=3)`, but with 17
///   significant digits per parameter). DOUBLE cells and the confidences
///   carry 17 significant digits too, and an empty VARCHAR is written `""`
///   while NULL is an empty field, so a reload is exact.
///
/// `dir` must already exist; files are overwritten.
[[nodiscard]] Status SaveDatabase(const Catalog& catalog, const std::string& dir);

/// \brief Loads a database saved by `SaveDatabase` into `catalog`.
///
/// Column types come from the schema sidecars (no inference), so empty
/// tables and all-NULL columns round-trip exactly. Table creation errors
/// (e.g. a name collision with an existing table) abort the load.
///
/// The load is all or nothing: on any error every table this call created
/// is dropped again before the error returns, so the catalog holds the
/// tables it held before the call and a retry with fixed files can succeed.
///
/// Format-2 snapshots restore each table under its persisted table id —
/// `BaseTupleId`s embed the table id, so a reload reproduces the exact
/// tuple-id assignment (the durability WAL depends on this) — and raise
/// `Catalog::confidence_version()` to the persisted value (monotone; exact
/// after `Catalog::Clear()`). A malformed or truncated header, a non-numeric
/// confidence cell, or a confidence outside [0, 1] fails the load with a
/// clean `kInvalidArgument`/`kParseError` instead of loading garbage.
/// Legacy headerless manifests (bare table names) still load, with fresh
/// table ids and no version restore.
[[nodiscard]] Status LoadDatabase(const std::string& dir, Catalog* catalog);

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_DATABASE_IO_H_
