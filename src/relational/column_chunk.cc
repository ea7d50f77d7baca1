#include "relational/column_chunk.h"

#include <algorithm>

namespace pcqe {

Value ColumnChunk::ValueAt(size_t i) const {
  PCQE_DCHECK(i < size_);
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(bools_[i] != 0);
    case DataType::kInt64:
      return Value::Int(ints_[i]);
    case DataType::kDouble:
      return Value::Double(doubles_[i]);
    case DataType::kString:
      return Value::String(strings_[i]);
  }
  return Value::Null();
}

void ColumnChunk::Append(const Value& v) {
  PCQE_DCHECK(size_ < kColumnChunkCapacity);
  if (v.is_null()) {
    if (nulls_.empty()) nulls_.assign(kColumnChunkCapacity, 0);
    nulls_[size_] = 1;
  }
  switch (type_) {
    case DataType::kNull:
      break;  // a NULL-typed column stores no payload
    case DataType::kBool:
      bools_.push_back(!v.is_null() && *v.AsBool() ? 1 : 0);
      break;
    case DataType::kInt64:
      ints_.push_back(v.is_null() ? 0 : *v.AsInt());
      break;
    case DataType::kDouble:
      doubles_.push_back(v.is_null() ? 0.0 : *v.AsDouble());
      break;
    case DataType::kString:
      strings_.push_back(v.is_null() ? std::string() : *v.AsString());
      break;
  }
  ++size_;
}

void TableColumnData::Reset(const Schema& schema) {
  PCQE_CHECK(num_rows_ == 0) << "column layout changed on a non-empty table";
  column_types_.clear();
  column_types_.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    column_types_.push_back(schema.column(c).type);
  }
  chunks_.clear();
}

void TableColumnData::AppendRow(const std::vector<Value>& values, double confidence,
                                double max_confidence, CostFunctionPtr cost) {
  PCQE_DCHECK(values.size() == column_types_.size());
  PCQE_DCHECK(cost != nullptr);
  if (OffsetOf(num_rows_) == 0) {
    auto chunk = std::make_unique<Chunk>();
    chunk->cols.reserve(column_types_.size());
    for (DataType t : column_types_) chunk->cols.emplace_back(t);
    chunk->confidences.reserve(kColumnChunkCapacity);
    chunk->max_confidences.reserve(kColumnChunkCapacity);
    chunk->costs.reserve(kColumnChunkCapacity);
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = *chunks_.back();
  for (size_t c = 0; c < values.size(); ++c) chunk.cols[c].Append(values[c]);
  chunk.conf_min = std::min(chunk.conf_min, confidence);
  chunk.conf_max = std::max(chunk.conf_max, confidence);
  chunk.confidences.push_back(confidence);
  chunk.max_confidences.push_back(max_confidence);
  chunk.costs.push_back(std::move(cost));
  ++num_rows_;
}

void TableColumnData::StoreConfidence(size_t row, double confidence) {
  PCQE_DCHECK(row < num_rows_);
  Chunk& chunk = *chunks_[ChunkOf(row)];
  double& slot = chunk.confidences[OffsetOf(row)];
  const double old = slot;
  slot = confidence;
  if ((old == chunk.conf_min && confidence > old) ||
      (old == chunk.conf_max && confidence < old)) {
    // A bound moved inward and may no longer be attained.
    const auto [lo, hi] =
        std::minmax_element(chunk.confidences.begin(), chunk.confidences.end());
    chunk.conf_min = *lo;
    chunk.conf_max = *hi;
    return;
  }
  chunk.conf_min = std::min(chunk.conf_min, confidence);
  chunk.conf_max = std::max(chunk.conf_max, confidence);
}

}  // namespace pcqe
