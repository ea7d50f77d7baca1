// Copyright (c) PCQE contributors.
// Tables: named collections of confidence-annotated tuples.

#ifndef PCQE_RELATIONAL_TABLE_H_
#define PCQE_RELATIONAL_TABLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/column_chunk.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace pcqe {

/// \brief A base relation: schema plus row storage.
///
/// The column chunks (`column_data()`) are the one store of the rows and
/// their annotations; `tuple` and `FindTuple` return `Tuple` views over it.
/// Tuple ids are assigned at insertion as `(table_id << 32) | row_index`, so
/// they are unique across a catalog (the catalog hands each table a distinct
/// `table_id`; standalone tables built in tests use table_id 0).
class Table {
 public:
  /// Creates an empty table. `table_id` seeds tuple-id assignment.
  Table(std::string name, Schema schema, uint32_t table_id = 0)
      : name_(std::move(name)), schema_(std::move(schema)), table_id_(table_id) {
    columns_.Reset(schema_);
  }

  /// Table name as registered in the catalog.
  const std::string& name() const { return name_; }

  /// The declared schema.
  const Schema& schema() const { return schema_; }

  /// Number of stored tuples.
  size_t num_tuples() const { return columns_.num_rows(); }

  /// View of the tuple at `row` (insertion order); `row` must be in range.
  Tuple tuple(size_t row) const {
    return Tuple(&columns_, (static_cast<BaseTupleId>(table_id_) << 32) |
                                static_cast<BaseTupleId>(row));
  }

  /// \brief Appends a row.
  ///
  /// Validates arity and per-column types (NULL is accepted in any column;
  /// BIGINT widens into DOUBLE columns), `confidence` in [0, 1] and
  /// `max_confidence` in [confidence, 1]. A null `cost` stores
  /// `DefaultCostFunction()`. Returns the assigned tuple id.
  [[nodiscard]] Result<BaseTupleId> Insert(std::vector<Value> values, double confidence,
                             CostFunctionPtr cost = nullptr, double max_confidence = 1.0);

  /// Looks up a tuple by id within this table.
  [[nodiscard]] Result<Tuple> FindTuple(BaseTupleId id) const;

  /// Sets the confidence of tuple `id`, clamped into [0, ceiling] (a target
  /// within `kEpsilon` above the ceiling stores the ceiling). Returns
  /// `kNotFound` for foreign ids and `kInvalidArgument` when `confidence` is
  /// negative or exceeds the tuple's ceiling by more than `kEpsilon`.
  [[nodiscard]] Status SetConfidence(BaseTupleId id, double confidence);

  /// The id-space prefix of this table, exposed so the catalog can route a
  /// `BaseTupleId` back to its owning table.
  uint32_t table_id() const { return table_id_; }

  /// The table's storage, written only by `Insert` and `SetConfidence`.
  /// Vectorized scans and the writers borrow its chunks zero-copy.
  const TableColumnData& column_data() const { return columns_; }

 private:
  /// Row index encoded in `id`, or an error if `id` belongs elsewhere.
  [[nodiscard]] Result<size_t> RowOf(BaseTupleId id) const;

  std::string name_;
  Schema schema_;
  uint32_t table_id_;
  TableColumnData columns_;
};

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_TABLE_H_
