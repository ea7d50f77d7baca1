#include "relational/table.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/string_util.h"

namespace pcqe {

namespace {

// Whether a value may be stored into a column of the declared type.
bool TypeAccepts(DataType declared, const Value& v) {
  if (v.is_null()) return true;
  if (v.type() == declared) return true;
  // Integer literals widen into DOUBLE columns.
  return declared == DataType::kDouble && v.type() == DataType::kInt64;
}

}  // namespace

Result<BaseTupleId> Table::Insert(std::vector<Value> values, double confidence,
                                  CostFunctionPtr cost, double max_confidence) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("table '%s' expects %zu values, got %zu", name_.c_str(),
                  schema_.num_columns(), values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!TypeAccepts(schema_.column(i).type, values[i])) {
      return Status::InvalidArgument(StrFormat(
          "table '%s' column '%s' declared %s, got %s", name_.c_str(),
          schema_.column(i).name.c_str(), DataTypeToString(schema_.column(i).type).c_str(),
          DataTypeToString(values[i].type()).c_str()));
    }
  }
  // Written as `!(lo <= c && c <= hi)` so that NaN fails them too.
  if (!(0.0 <= confidence && confidence <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("confidence %g outside [0, 1]", confidence));
  }
  if (!(confidence <= max_confidence && max_confidence <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "max_confidence %g must lie in [confidence=%g, 1]", max_confidence, confidence));
  }
  const size_t row = columns_.num_rows();
  if (row >= (1ULL << 32)) {
    return Status::ResourceExhausted(
        StrFormat("table '%s' exceeds 2^32 tuples", name_.c_str()));
  }
  // The range checks above leave nothing to clamp: the row stores the
  // annotations as given.
  columns_.AppendRow(values, confidence, max_confidence,
                     cost ? std::move(cost) : DefaultCostFunction());
  if (generation_ != nullptr) generation_->Bump();
  return tuple(row).id();
}

Result<size_t> Table::RowOf(BaseTupleId id) const {
  if (TupleTableId(id) != table_id_) {
    return Status::NotFound(
        StrFormat("tuple id %llu does not belong to table '%s'",
                  static_cast<unsigned long long>(id), name_.c_str()));
  }
  size_t row = TupleRow(id);
  if (row >= columns_.num_rows()) {
    return Status::NotFound(StrFormat("tuple id %llu out of range for table '%s'",
                                      static_cast<unsigned long long>(id), name_.c_str()));
  }
  return row;
}

Result<Tuple> Table::FindTuple(BaseTupleId id) const {
  PCQE_ASSIGN_OR_RETURN(size_t row, RowOf(id));
  return tuple(row);
}

Status Table::SetConfidence(BaseTupleId id, double confidence) {
  PCQE_ASSIGN_OR_RETURN(size_t row, RowOf(id));
  const double ceiling = columns_.max_confidence(row);
  if (!(0.0 <= confidence && confidence <= ceiling + kEpsilon)) {
    return Status::InvalidArgument(
        StrFormat("confidence %g outside [0, max=%g] for tuple %llu", confidence,
                  ceiling, static_cast<unsigned long long>(id)));
  }
  columns_.StoreConfidence(row, std::min(confidence, ceiling));
  if (generation_ != nullptr) generation_->Bump();
  return Status::OK();
}

}  // namespace pcqe
