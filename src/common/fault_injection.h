// Copyright (c) PCQE contributors.
// Deterministic fault injection: named probe points on failure-prone paths
// (solver loops, the result cache, the catalog accept path, the service
// worker pool) that tests can arm to force an error — or a synthetic
// deadline expiry — at an exact, replayable probe index.

#ifndef PCQE_COMMON_FAULT_INJECTION_H_
#define PCQE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace pcqe {

/// \brief Compile-time registry of probe-site names.
///
/// Every `PCQE_INJECT_FAULT` / `SolveControl` probe point in the codebase
/// uses one of these constants, and `FaultInjector::KnownSites()` enumerates
/// them so tests can assert each site is reachable. Sites ending in
/// `.deadline` are consulted by `SolveControl` as synthetic budget expiries;
/// the rest return an injected `Status` from the enclosing function.
namespace fault_sites {
inline constexpr const char* kHeuristicWave = "strategy.heuristic.wave";
inline constexpr const char* kHeuristicDeadline = "strategy.heuristic.deadline";
inline constexpr const char* kGreedySolve = "strategy.greedy.solve";
inline constexpr const char* kGreedyDeadline = "strategy.greedy.deadline";
inline constexpr const char* kDncGroup = "strategy.dnc.group";
inline constexpr const char* kDncDeadline = "strategy.dnc.deadline";
inline constexpr const char* kEngineEvaluate = "engine.evaluate";
inline constexpr const char* kCatalogAccept = "engine.catalog.accept";
inline constexpr const char* kCacheLookup = "service.cache.lookup";
inline constexpr const char* kAdmission = "service.admission";
inline constexpr const char* kWorkerProcess = "service.worker.process";
/// Durability crash points (src/storage/): each one is probed at the exact
/// boundary a real crash would hit, so the recovery tests can arm a site,
/// "crash" (drop the in-memory state) and assert replay reconstructs the
/// committed state bit-for-bit. kWalAppend fires before the commit record
/// is buffered; kWalSync before it reaches disk — both roll the accept
/// back. kCheckpoint / kManifest interrupt checkpointing before the new
/// manifest is published; kRecoveryReplay interrupts startup replay.
inline constexpr const char* kWalAppend = "storage.wal_append";
inline constexpr const char* kWalSync = "storage.wal_sync";
inline constexpr const char* kCheckpoint = "storage.checkpoint";
inline constexpr const char* kManifest = "storage.manifest";
inline constexpr const char* kRecoveryReplay = "storage.recovery.replay";
}  // namespace fault_sites

/// \brief Process-wide, deterministic fault injector.
///
/// Disarmed (the default, and the only production state) every probe is a
/// single relaxed atomic load. Tests `Arm()` a site with a `SiteConfig`
/// describing *which* probe indices fire; firing is a pure function of
/// (site, probe index, seed), so a failing run replays exactly.
///
/// Thread-safe: probes may arrive concurrently from solver lanes and
/// service workers. The injector never calls back into the rest of the
/// library, so holding any library lock across a probe cannot deadlock.
class FaultInjector {
 public:
  /// How an armed site decides whether a given probe fires.
  struct SiteConfig {
    /// Probes to let pass before the site starts firing (0 = immediately).
    uint64_t fire_after = 0;
    /// Number of firing probes once triggered; UINT64_MAX = until disarmed.
    uint64_t fire_count = UINT64_MAX;
    /// Independent per-probe firing probability once past `fire_after`,
    /// decided by a hash of (site, probe index, seed) — deterministic.
    double probability = 1.0;
    /// Seed for the probability hash; same seed, same firing pattern.
    uint64_t seed = 0;
    /// Status returned by error-kind probes when firing.
    StatusCode code = StatusCode::kInternal;
    /// Optional message; defaults to "injected fault at <site>".
    std::string message;
  };

  /// The process-wide instance every probe point consults.
  static FaultInjector& Global();

  /// All probe-site names compiled into the library (see `fault_sites`).
  static const std::vector<const char*>& KnownSites();

  /// Arms `site` (any string; typically a `fault_sites` constant) with
  /// `config`, replacing any previous arming and resetting its probe count.
  void Arm(const std::string& site, SiteConfig config);

  /// Disarms one site / every site. Probe counts are forgotten.
  void Disarm(const std::string& site);
  void DisarmAll();

  /// True when at least one site is armed. The production fast path.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Error-kind probe: OK unless `site` is armed and this probe index
  /// fires, in which case the configured Status is returned.
  Status Probe(const char* site);

  /// Deadline-kind probe for `SolveControl`: true when `site` is armed and
  /// this probe index fires. With the default unlimited `fire_count` the
  /// site keeps firing once triggered, which models a real (sticky)
  /// deadline expiry.
  bool DeadlineFires(const char* site);

  /// Number of probes `site` has received since it was last armed
  /// (0 if not armed). Lets tests both assert reachability and count a
  /// run's probes to position `fire_after` for an exact replay.
  uint64_t hits(const std::string& site) const;

 private:
  struct SiteState {
    SiteConfig config;
    uint64_t probes = 0;
  };

  FaultInjector() = default;
  bool FireDecision(const char* site) PCQE_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, SiteState> sites_ PCQE_GUARDED_BY(mu_);
  std::atomic<bool> enabled_{false};
};

/// Returns the injected Status from the enclosing function when `site` is
/// armed and firing; a single relaxed load otherwise. Use only in functions
/// returning `Status` or `Result<T>`.
#define PCQE_INJECT_FAULT(site)                                          \
  do {                                                                   \
    if (::pcqe::FaultInjector::Global().enabled()) {                     \
      PCQE_RETURN_NOT_OK(::pcqe::FaultInjector::Global().Probe(site));   \
    }                                                                    \
  } while (false)

}  // namespace pcqe

#endif  // PCQE_COMMON_FAULT_INJECTION_H_
