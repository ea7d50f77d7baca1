// Copyright (c) PCQE contributors.
// Confidence-annotated base tuples — element (1) of the paper's framework.

#ifndef PCQE_RELATIONAL_TUPLE_H_
#define PCQE_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_function.h"
#include "relational/column_chunk.h"
#include "relational/value.h"

namespace pcqe {

/// Catalog-wide identifier of a base tuple. The lineage layer uses these ids
/// as boolean variables ("p02", "p13" in the paper's running example).
using BaseTupleId = uint64_t;

/// Sentinel for "no tuple".
inline constexpr BaseTupleId kInvalidBaseTupleId = ~0ULL;

/// The id of row `row` of the table whose id is `table_id`:
/// `(table_id << 32) | row`. Table ids are unique in a catalog, so tuple
/// ids are too.
inline constexpr BaseTupleId MakeTupleId(uint32_t table_id, uint32_t row) {
  return (static_cast<BaseTupleId>(table_id) << 32) | row;
}

/// The table id half of a tuple id.
inline constexpr uint32_t TupleTableId(BaseTupleId id) { return static_cast<uint32_t>(id >> 32); }

/// The row half of a tuple id.
inline constexpr uint32_t TupleRow(BaseTupleId id) { return static_cast<uint32_t>(id); }

/// \brief A view of one stored row: values plus the paper's confidence
/// annotations.
///
/// Beyond the row data, a base tuple carries
/// - `confidence`: trustworthiness in [0, 1] (assigned by the confidence
///   assignment component, e.g. the provenance technique of Dai et al. 2008);
/// - `max_confidence`: the ceiling achievable by quality improvement (the
///   paper's "1 or its maximum possible confidence level");
/// - a `CostFunction` pricing confidence increments for this tuple.
///
/// The table's column chunks are the only store of all four; a `Tuple` is a
/// cheap ⟨chunks, id⟩ handle that reads them on each call. The annotation
/// accessors box nothing; `value`, `values` and `ToString` box on demand. A
/// view stays valid while its table lives, and it sees later
/// `Table::SetConfidence` writes.
class Tuple {
 public:
  /// Catalog-wide id.
  BaseTupleId id() const { return id_; }

  /// Number of values in the row.
  size_t num_values() const { return data_->num_columns(); }

  /// Value of column `i`, boxed; `i` must be in range.
  Value value(size_t i) const { return data_->value(i, row()); }

  /// The whole row, boxed.
  std::vector<Value> values() const;

  /// Current confidence in [0, max_confidence].
  double confidence() const { return data_->confidence(row()); }

  /// Ceiling for quality improvement.
  double max_confidence() const { return data_->max_confidence(row()); }

  /// Cost model for raising this tuple's confidence; never null.
  const CostFunctionPtr& cost_function() const { return data_->cost_function(row()); }

  /// "(v1, v2, ...) @ p=<confidence>" for diagnostics.
  std::string ToString() const;

 private:
  friend class Table;  // the only source of views

  /// Views row `TupleRow(id)` of `data`.
  Tuple(const TableColumnData* data, BaseTupleId id) : data_(data), id_(id) {}

  size_t row() const { return TupleRow(id_); }

  const TableColumnData* data_;
  BaseTupleId id_;
};

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_TUPLE_H_
