// Copyright (c) PCQE contributors.
// Column-chunk storage: the one store of a table's tuples. Both executors,
// the writers and every annotation lookup read it (`Tuple` is a view over
// one row of it; see relational/tuple.h).
//
// Layout follows the in-memory column-chunk design of modern factorized
// engines: a table is a sequence of fixed-capacity chunks; each chunk holds
// one typed value vector per column plus the per-row annotations
// (confidence, ceiling, cost handle) aligned row-for-row with the values.
// Tuple ids are implicit — `MakeTupleId(table_id, row)` exactly as
// relational/table.h assigns them — so a chunk never stores ids, and a
// scan's factorized lineage column is just the row range.

#ifndef PCQE_RELATIONAL_COLUMN_CHUNK_H_
#define PCQE_RELATIONAL_COLUMN_CHUNK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "cost/cost_function.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace pcqe {

/// Rows per column chunk. A power of two so row → (chunk, offset) routing is
/// a shift and a mask.
inline constexpr size_t kColumnChunkCapacity = 2048;
inline constexpr size_t kColumnChunkShift = 11;
inline constexpr size_t kColumnChunkMask = kColumnChunkCapacity - 1;

static_assert((size_t{1} << kColumnChunkShift) == kColumnChunkCapacity,
              "chunk shift must match capacity");

/// \brief One column × up to `kColumnChunkCapacity` rows of typed storage.
///
/// Non-null values of a column always carry the column's declared type
/// (`Append` widens BIGINT values into a DOUBLE column), so one typed array
/// per chunk suffices; NULLs occupy a zeroed slot and are tracked by a lazily
/// allocated null mask (absent while the chunk holds no NULLs — the common
/// case scans branch-free).
class ColumnChunk {
 public:
  explicit ColumnChunk(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return size_; }

  /// True when row `i` of this chunk is NULL.
  bool IsNull(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  /// True when no row of this chunk is NULL (enables branch-free kernels).
  bool AllNonNull() const { return nulls_.empty(); }

  /// \name Typed accessors; valid only for the matching `type()` and
  /// non-null rows.
  /// @{
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }
  const int64_t* IntData() const { return ints_.data(); }
  const double* DoubleData() const { return doubles_.data(); }
  /// @}

  /// Boxes row `i` back into a `Value` (boundary use only; operators should
  /// stay on the typed arrays).
  Value ValueAt(size_t i) const;

  /// Appends one value. The caller guarantees type compatibility (the table
  /// validated on insert) and capacity.
  void Append(const Value& v);

 private:
  DataType type_;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  // empty until the first NULL lands
  // Exactly one of these is populated, per type_ (kNull columns hold none).
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
};

/// \brief The storage of one table: chunked typed columns plus per-chunk
/// confidence, ceiling and cost-handle vectors.
///
/// Written only by `Table::Insert` / `Table::SetConfidence` (which validate
/// first), so a scan never transposes: it borrows these arrays zero-copy.
/// Row indices are table row indices (the low 32 bits of the `BaseTupleId`).
class TableColumnData {
 public:
  TableColumnData() = default;

  /// Declares the column layout; must be called before the first append and
  /// whenever the schema is (re)set on an empty table.
  void Reset(const Schema& schema);

  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return chunks_.size(); }
  size_t num_columns() const { return column_types_.size(); }

  static size_t ChunkOf(size_t row) { return row >> kColumnChunkShift; }
  static size_t OffsetOf(size_t row) { return row & kColumnChunkMask; }

  /// Column `col` of chunk `chunk_index`.
  const ColumnChunk& chunk(size_t col, size_t chunk_index) const {
    return chunks_[chunk_index]->cols[col];
  }

  /// Per-chunk confidence vector, aligned with the chunk's rows.
  const std::vector<double>& confidence_chunk(size_t chunk_index) const {
    return chunks_[chunk_index]->confidences;
  }

  /// Smallest and largest confidence of chunk `chunk_index`: β pushdown's
  /// chunk bounds. Written by `AppendRow` and `StoreConfidence` together
  /// with the confidences themselves, so they always equal a rescan.
  double conf_min(size_t chunk_index) const { return chunks_[chunk_index]->conf_min; }
  double conf_max(size_t chunk_index) const { return chunks_[chunk_index]->conf_max; }

  /// Confidence of table row `row`.
  double confidence(size_t row) const {
    return chunks_[ChunkOf(row)]->confidences[OffsetOf(row)];
  }

  /// Confidence ceiling of table row `row`.
  double max_confidence(size_t row) const {
    return chunks_[ChunkOf(row)]->max_confidences[OffsetOf(row)];
  }

  /// Cost function of table row `row`; never null.
  const CostFunctionPtr& cost_function(size_t row) const {
    return chunks_[ChunkOf(row)]->costs[OffsetOf(row)];
  }

  /// Boxed value of (`col`, table row `row`).
  Value value(size_t col, size_t row) const {
    return chunks_[ChunkOf(row)]->cols[col].ValueAt(OffsetOf(row));
  }

  /// True when (`col`, `row`) is NULL.
  bool IsNull(size_t col, size_t row) const {
    return chunks_[ChunkOf(row)]->cols[col].IsNull(OffsetOf(row));
  }

  /// Appends one row (called by `Table::Insert` after validation; `cost`
  /// is non-null).
  void AppendRow(const std::vector<Value>& values, double confidence,
                 double max_confidence, CostFunctionPtr cost);

  /// Stores a validated, clamped confidence (called by
  /// `Table::SetConfidence`) and keeps its chunk's bounds exact: a value
  /// outside them widens them; overwriting a bound with a value inside them
  /// rescans that one chunk.
  void StoreConfidence(size_t row, double confidence);

 private:
  struct Chunk {
    std::vector<ColumnChunk> cols;
    std::vector<double> confidences;
    std::vector<double> max_confidences;
    std::vector<CostFunctionPtr> costs;
    // Start empty-inverted: the first row's confidence, in [0, 1], sets both.
    double conf_min = 1.0;
    double conf_max = 0.0;
  };

  std::vector<DataType> column_types_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t num_rows_ = 0;
};

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_COLUMN_CHUNK_H_
