// Copyright (c) PCQE contributors.

#include "common/fault_injection.h"

#include "common/string_util.h"

namespace pcqe {
namespace {

/// splitmix64: the firing decision must be a pure function of
/// (site, probe index, seed) so armed runs replay bit-for-bit.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashSite(const char* site) {
  // FNV-1a over the site name.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = site; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

const std::vector<const char*>& FaultInjector::KnownSites() {
  static const std::vector<const char*>* sites = new std::vector<const char*>{
      fault_sites::kHeuristicWave,  fault_sites::kHeuristicDeadline,
      fault_sites::kGreedySolve,    fault_sites::kGreedyDeadline,
      fault_sites::kDncGroup,       fault_sites::kDncDeadline,
      fault_sites::kEngineEvaluate, fault_sites::kCatalogAccept,
      fault_sites::kCacheLookup,    fault_sites::kAdmission,
      fault_sites::kWorkerProcess,  fault_sites::kWalAppend,
      fault_sites::kWalSync,        fault_sites::kCheckpoint,
      fault_sites::kManifest,       fault_sites::kRecoveryReplay,
  };
  return *sites;
}

void FaultInjector::Arm(const std::string& site, SiteConfig config) {
  MutexLock guard(mu_);
  sites_[site] = SiteState{std::move(config), 0};
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& site) {
  MutexLock guard(mu_);
  sites_.erase(site);
  if (sites_.empty()) enabled_.store(false, std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  MutexLock guard(mu_);
  sites_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::FireDecision(const char* site) {
  MutexLock guard(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  SiteState& state = it->second;
  const uint64_t index = state.probes++;
  const SiteConfig& config = state.config;
  if (index < config.fire_after) return false;
  if (config.fire_count != UINT64_MAX &&
      index - config.fire_after >= config.fire_count) {
    return false;
  }
  if (config.probability < 1.0) {
    uint64_t h = Mix64(HashSite(site) ^ Mix64(config.seed) ^ index);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    if (u >= config.probability) return false;
  }
  return true;
}

Status FaultInjector::Probe(const char* site) {
  if (!enabled()) return Status::OK();
  if (!FireDecision(site)) return Status::OK();
  MutexLock guard(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return Status::OK();
  const SiteConfig& config = it->second.config;
  std::string message = config.message.empty()
                            ? StrFormat("injected fault at %s", site)
                            : config.message;
  return Status(config.code, std::move(message));
}

bool FaultInjector::DeadlineFires(const char* site) {
  if (!enabled()) return false;
  return FireDecision(site);
}

uint64_t FaultInjector::hits(const std::string& site) const {
  MutexLock guard(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.probes;
}

}  // namespace pcqe
