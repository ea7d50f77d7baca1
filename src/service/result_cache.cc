#include "service/result_cache.h"

#include <cctype>

namespace pcqe {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool pending_space = false;
  // Inside a '...' literal. A '' escape closes and reopens it, and both
  // quotes are kept, so toggling on every quote copies the literal exactly.
  bool quoted = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    const char c = sql[i];
    if (!quoted) {
      if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
        // A line comment separates tokens as whitespace does.
        while (i + 1 < sql.size() && sql[i + 1] != '\n') ++i;
        pending_space = !out.empty();
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        pending_space = !out.empty();
        continue;
      }
      if (pending_space) {
        out.push_back(' ');
        pending_space = false;
      }
    }
    if (c == '\'') quoted = !quoted;
    out.push_back(c);
  }
  // Whitespace is never emitted last. The grammar allows one trailing ';'; a
  // second is a parse error, so it keeps the text's own key.
  if (!out.empty() && out.back() == ';') out.pop_back();
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

void ConfidenceResultCache::AttachTelemetry(TelemetryRegistry* registry) {
  MutexLock guard(mu_);
  hits_counter_ = registry->GetCounter("pcqe_cache_hits_total",
                                       "Confidence-result cache lookup hits");
  misses_counter_ = registry->GetCounter("pcqe_cache_misses_total",
                                         "Confidence-result cache lookup misses");
  evictions_counter_ = registry->GetCounter(
      "pcqe_cache_evictions_total", "Entries evicted by the LRU capacity bound");
}

std::shared_ptr<const QueryResult> ConfidenceResultCache::Lookup(
    const std::string& normalized_sql, uint64_t generation) {
  MutexLock guard(mu_);
  auto it = index_.find(Key(normalized_sql, generation));
  if (it == index_.end()) {
    ++misses_;
    if (misses_counter_ != nullptr) misses_counter_->Increment();
    return nullptr;
  }
  ++hits_;
  if (hits_counter_ != nullptr) hits_counter_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

std::shared_ptr<const QueryResult> ConfidenceResultCache::Insert(
    const std::string& normalized_sql, uint64_t generation, QueryResult result) {
  auto shared = std::make_shared<const QueryResult>(std::move(result));
  if (capacity_ == 0) return shared;
  MutexLock guard(mu_);
  Key key(normalized_sql, generation);
  if (auto it = index_.find(key); it != index_.end()) {
    it->second->second = shared;
    lru_.splice(lru_.begin(), lru_, it->second);
    return shared;
  }
  lru_.emplace_front(key, shared);
  index_.emplace(std::move(key), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
    if (evictions_counter_ != nullptr) evictions_counter_->Increment();
  }
  return shared;
}

ConfidenceResultCache::Stats ConfidenceResultCache::stats() const {
  MutexLock guard(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  return s;
}

}  // namespace pcqe
