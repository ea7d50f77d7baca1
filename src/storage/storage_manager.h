// Copyright (c) PCQE contributors.
// StorageManager: the durable-catalog front door — WAL logging of accepts,
// checkpoint rotation, and startup/on-demand recovery over one directory.

#ifndef PCQE_STORAGE_STORAGE_MANAGER_H_
#define PCQE_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/manifest.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"

namespace pcqe {

class Catalog;

/// \brief Durability knobs, threaded through `ServiceOptions`.
struct DurabilityOptions {
  /// Storage directory (created if missing). Empty disables durability.
  std::string dir;
  /// fsync the WAL inside every `LogAccept` (the paper-grade guarantee:
  /// an acknowledged accept survives any crash). Off trades that window
  /// for accept throughput; the buffer still reaches disk at the next
  /// checkpoint or sync.
  bool sync_each_commit = true;
  bool enabled() const { return !dir.empty(); }
};

/// \brief Point-in-time introspection for tests and the shell's `.wal`.
struct StorageSnapshot {
  std::string dir;
  std::string checkpoint;
  std::string wal;
  uint64_t truncate_lsn = 0;
  uint64_t next_lsn = 0;
  uint64_t wal_buffered_bytes = 0;
  uint64_t wal_file_bytes = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t syncs = 0;
  uint64_t checkpoints = 0;
  uint64_t recovered_records = 0;
  uint64_t recovered_version = 0;
};

/// \brief Owns one storage directory: a live WAL segment plus the
/// checkpoint the manifest points at.
///
/// Locking: all state is guarded by an internal `pcqe::Mutex`. Callers
/// (the engine under `catalog_mu` exclusive for `LogAccept`, the service
/// under `catalog_mu` shared for `Checkpoint` / exclusive for `Recover`)
/// hold the engine lock *first*, making the order catalog_mu -> mu_
/// program-wide; nothing here calls back out while holding `mu_` except
/// into the borrowed catalog, which the caller's engine lock already
/// protects.
class StorageManager {
 public:
  StorageManager() = default;
  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Opens `options.dir` against `catalog` (borrowed; must outlive the
  /// manager). With an existing `MANIFEST` this *recovers*: the catalog's
  /// contents are replaced by checkpoint + replay. A fresh directory gets
  /// an initial checkpoint of the catalog as passed. The caller must hold
  /// the catalog's writer lock (recovery rewrites it).
  [[nodiscard]] Status Open(const DurabilityOptions& options, Catalog* catalog);

  /// Logs one accept transaction: appends a commit record carrying
  /// `actions` and (by default) syncs it to disk. `catalog_version` is the
  /// version *before* the accept applies; the record logs the post-apply
  /// version so replay is self-verifying. On any failure the record is
  /// rolled back entirely — the caller then skips the catalog mutation, so
  /// an unlogged accept can never be observed.
  [[nodiscard]] Status LogAccept(uint64_t catalog_version,
                                 const std::vector<WalAction>& actions);

  /// Writes a fresh checkpoint of `catalog` and rotates to a new WAL
  /// segment, publishing both via the manifest (the commit point). A crash
  /// or injected fault anywhere before the publish leaves the previous
  /// checkpoint + segment authoritative. The caller must hold at least the
  /// catalog's reader lock across the call so the snapshot is consistent.
  [[nodiscard]] Status Checkpoint(const Catalog& catalog);

  /// Re-runs recovery on the attached catalog (checkpoint load + replay),
  /// discarding all non-durable in-memory state — the test seam that
  /// models a crash without exiting the process. Caller holds the
  /// catalog's writer lock. On failure the manager refuses further logging
  /// until a successful `Recover`, and the catalog holds no table when the
  /// checkpoint failed to load (recovery clears it first, and a failed
  /// `LoadDatabase` drops every table it created), or the checkpoint with
  /// part of the log replayed when replay failed.
  [[nodiscard]] Status Recover();

  /// Registers the `pcqe_storage_*` counters on `registry` (borrowed) and
  /// seeds them with tallies accumulated so far. Call once, after `Open`,
  /// before serving.
  void AttachTelemetry(TelemetryRegistry* registry);

  /// True between a successful `Open`/`Recover` and a failure that
  /// suspended logging.
  bool open() const;

  StorageSnapshot snapshot() const;

 private:
  [[nodiscard]] Status OpenLocked(const DurabilityOptions& options,
                                  Catalog* catalog) PCQE_REQUIRES(mu_);
  [[nodiscard]] Status RecoverLocked() PCQE_REQUIRES(mu_);
  [[nodiscard]] Status CheckpointLocked(const Catalog& catalog) PCQE_REQUIRES(mu_);

  /// Cached instrument pointers (null until `AttachTelemetry`).
  struct StorageMetrics {
    Counter* wal_appends = nullptr;
    Counter* wal_bytes = nullptr;
    Counter* syncs = nullptr;
    Counter* checkpoints = nullptr;
    Counter* recovered_records = nullptr;
  };

  mutable Mutex mu_;
  DurabilityOptions options_ PCQE_GUARDED_BY(mu_);
  Catalog* catalog_ PCQE_GUARDED_BY(mu_) = nullptr;  // borrowed
  std::unique_ptr<WalWriter> writer_ PCQE_GUARDED_BY(mu_);
  DurabilityManifest manifest_ PCQE_GUARDED_BY(mu_);
  uint64_t next_lsn_ PCQE_GUARDED_BY(mu_) = 1;

  // Plain tallies under mu_ (mirrored into telemetry counters when
  // attached, so they survive attach order and writer rotation).
  uint64_t wal_appends_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t wal_bytes_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t syncs_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t checkpoints_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t recovered_records_ PCQE_GUARDED_BY(mu_) = 0;
  uint64_t recovered_version_ PCQE_GUARDED_BY(mu_) = 0;
  StorageMetrics metrics_ PCQE_GUARDED_BY(mu_);
};

}  // namespace pcqe

#endif  // PCQE_STORAGE_STORAGE_MANAGER_H_
