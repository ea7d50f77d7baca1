#include "relational/catalog.h"

#include <algorithm>

#include "common/string_util.h"

namespace pcqe {

std::string Catalog::Key(const std::string& name) { return ToLowerAscii(name); }

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  return CreateTableWithId(name, std::move(schema), next_table_id_);
}

Result<Table*> Catalog::CreateTableWithId(const std::string& name, Schema schema,
                                          uint32_t table_id) {
  if (name.empty()) return Status::InvalidArgument("table name must be non-empty");
  if (table_id == 0) return Status::InvalidArgument("table id must be nonzero");
  std::string key = Key(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists(StrFormat("table '%s' already exists", name.c_str()));
  }
  for (const auto& [existing_key, table] : tables_) {
    (void)existing_key;
    if (table->table_id() == table_id) {
      return Status::AlreadyExists(
          StrFormat("table id %u already belongs to '%s'", table_id,
                    table->name().c_str()));
    }
  }
  auto table = std::make_unique<Table>(name, std::move(schema), table_id, &generation_);
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  creation_order_.push_back(name);
  if (table_id >= next_table_id_) next_table_id_ = table_id + 1;
  generation_.Bump();
  return raw;
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("table '%s' not found", name.c_str()));
  }
  return it->second.get();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("table '%s' not found", name.c_str()));
  }
  return static_cast<const Table*>(it->second.get());
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("table '%s' not found", name.c_str()));
  }
  tables_.erase(it);
  creation_order_.erase(
      std::remove_if(creation_order_.begin(), creation_order_.end(),
                     [&](const std::string& n) { return Key(n) == Key(name); }),
      creation_order_.end());
  generation_.Bump();
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const { return creation_order_; }

void Catalog::RestoreConfidenceVersion(uint64_t version) {
  uint64_t current = confidence_version_.load(std::memory_order_relaxed);
  while (current < version &&
         !confidence_version_.compare_exchange_weak(current, version,
                                                    std::memory_order_release,
                                                    std::memory_order_relaxed)) {
  }
}

void Catalog::Clear() {
  tables_.clear();
  creation_order_.clear();
  next_table_id_ = 1;
  confidence_version_.store(0, std::memory_order_release);
  generation_.Bump();
}

Result<Tuple> Catalog::FindTuple(BaseTupleId id) const {
  for (const auto& [key, table] : tables_) {
    (void)key;
    if (table->table_id() == TupleTableId(id)) return table->FindTuple(id);
  }
  return Status::NotFound(StrFormat("no table owns tuple id %llu",
                                    static_cast<unsigned long long>(id)));
}

Status Catalog::SetConfidence(BaseTupleId id, double confidence) {
  for (auto& [key, table] : tables_) {
    (void)key;
    if (table->table_id() == TupleTableId(id)) {
      // The table bumps `generation_`.
      PCQE_RETURN_NOT_OK(table->SetConfidence(id, confidence));
      confidence_version_.fetch_add(1, std::memory_order_release);
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no table owns tuple id %llu",
                                    static_cast<unsigned long long>(id)));
}

}  // namespace pcqe
