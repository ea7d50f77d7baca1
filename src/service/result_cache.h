// Copyright (c) PCQE contributors.
// Cross-request cache of policy-independent query evaluations.
//
// Lineage-based confidence computation is the expensive step of the PCQE
// pipeline (exact confidence computation in probabilistic databases is
// #P-hard in general), while the per-subject part — policy resolution and
// threshold filtering — is linear in the result size. The cache therefore
// stores the *pre-policy* `QueryResult`: two sessions with different
// thresholds β share one lineage evaluation and diverge only at the cheap
// filter.
//
// Invalidation protocol: keys embed the catalog generation
// (`Catalog::generation()`), which every catalog write bumps — table
// creation and drops, inserts, confidence writes, `Clear`, and so snapshot
// loads and recovery too. Entries computed against an older catalog simply
// stop matching and age out of the LRU; no component ever has to enumerate
// or clear them.

#ifndef PCQE_SERVICE_RESULT_CACHE_H_
#define PCQE_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/annotations.h"
#include "query/query_engine.h"
#include "telemetry/metrics.h"

namespace pcqe {

/// Canonicalizes SQL text for cache keying in one pass, without lexing:
/// collapses whitespace runs outside string literals to one space, drops
/// `--` line comments, trims the ends and drops one trailing ';'. Literals
/// ('' escapes included) are kept byte for byte. Deliberately conservative
/// — it never changes case (string literals are case-sensitive), so two
/// queries differing only in keyword case occupy two entries.
std::string NormalizeSql(const std::string& sql);

/// \brief Thread-safe LRU cache from (normalized SQL, catalog generation) to
/// a shared, immutable `QueryResult`.
///
/// Entries are handed out as `shared_ptr<const QueryResult>`, so a reader
/// keeps its result alive even if the entry is evicted mid-request.
class ConfidenceResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  /// `capacity` is the maximum entry count; 0 disables caching (every
  /// lookup misses, inserts are dropped).
  explicit ConfidenceResultCache(size_t capacity) : capacity_(capacity) {}

  ConfidenceResultCache(const ConfidenceResultCache&) = delete;
  ConfidenceResultCache& operator=(const ConfidenceResultCache&) = delete;

  /// Mirrors hit/miss/eviction counts onto `pcqe_cache_*` registry counters
  /// (the internal `Stats` keep working either way). Stale entries that
  /// age out of the LRU are indistinguishable from capacity evictions and
  /// count as such. The registry must outlive the cache.
  void AttachTelemetry(TelemetryRegistry* registry);

  /// Returns the cached evaluation for (`normalized_sql`, `generation`), or
  /// null on a miss. A hit refreshes the entry's LRU position.
  std::shared_ptr<const QueryResult> Lookup(const std::string& normalized_sql,
                                            uint64_t generation);

  /// Stores an evaluation and returns the shared handle (also when capacity
  /// is 0, in which case nothing is retained). Re-inserting an existing key
  /// replaces the entry.
  std::shared_ptr<const QueryResult> Insert(const std::string& normalized_sql,
                                            uint64_t generation, QueryResult result);

  Stats stats() const;

 private:
  using Key = std::pair<std::string, uint64_t>;
  using Entry = std::pair<Key, std::shared_ptr<const QueryResult>>;

  mutable Mutex mu_;
  size_t capacity_;
  // front = most recently used
  std::list<Entry> lru_ PCQE_GUARDED_BY(mu_);
  std::map<Key, std::list<Entry>::iterator> index_ PCQE_GUARDED_BY(mu_);
  uint64_t hits_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t misses_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ PCQE_GUARDED_BY(mu_) = 0;
  // Registry mirrors; null until AttachTelemetry.
  Counter* hits_counter_ PCQE_GUARDED_BY(mu_) = nullptr;
  Counter* misses_counter_ PCQE_GUARDED_BY(mu_) = nullptr;
  Counter* evictions_counter_ PCQE_GUARDED_BY(mu_) = nullptr;
};

}  // namespace pcqe

#endif  // PCQE_SERVICE_RESULT_CACHE_H_
