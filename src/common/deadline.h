// Copyright (c) PCQE contributors.
// Deadline / CancelToken / SolveControl: the one cooperative-cancellation
// vocabulary shared by the service, the engine and all three solvers.
//
// A `Deadline` is an absolute point on the steady clock (infinite by
// default), so it composes across layers without re-arming: the service
// stamps it at admission, the engine forwards it into solver options, and
// every solver phase compares against the same instant. `SolveControl`
// bundles the deadline with an optional caller-owned `CancelToken` and a
// fault-injection site, and is the only thing solver loops poll — a raw
// `steady_clock::now()` comparison in src/strategy/ or src/service/ is a
// lint error (`deadline` rule in tools/pcqe_lint.py).

#ifndef PCQE_COMMON_DEADLINE_H_
#define PCQE_COMMON_DEADLINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/fault_injection.h"

namespace pcqe {

/// \brief An absolute budget on the steady clock; infinite by default.
///
/// Value type, trivially copyable; pass by value. `Expired()` is one clock
/// read — cheap enough for amortized per-node checks but still worth
/// striding (see `SolveControl::CheckEvery`).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterMillis(int64_t ms) {
    return After(Clock::now(), std::chrono::milliseconds(ms));
  }
  static Deadline AfterSeconds(double seconds) {
    return After(Clock::now(), std::chrono::duration<double>(seconds));
  }

  /// `budget` after `start`. A budget the steady clock cannot represent past
  /// `start` (centuries, infinity, NaN) means no deadline; a negative one is
  /// already past.
  template <typename Rep, typename Period>
  static Deadline After(Clock::time_point start, std::chrono::duration<Rep, Period> budget) {
    const double ticks = std::chrono::duration<double, Clock::period>(budget).count();
    const Clock::rep room = (Clock::time_point::max() - start).count();
    // `room` rounds to at most 2^63 as a double, so any `ticks` below it
    // converts to the clock's integer type; the integer test then keeps the
    // sum in range. The clamp keeps a negative budget's instant above min.
    if (!(ticks < static_cast<double>(room))) return Infinite();
    const Clock::duration whole(
        static_cast<Clock::rep>(std::max(ticks, -static_cast<double>(room))));
    return whole.count() >= room ? Infinite() : Deadline(start + whole);
  }

  /// The earlier of two deadlines (infinite is later than everything).
  static Deadline Sooner(Deadline a, Deadline b) {
    return a.at_ <= b.at_ ? a : b;
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }
  bool Expired() const { return !infinite() && Clock::now() >= at_; }

  /// Seconds until expiry: negative once expired, +infinity when infinite.
  double RemainingSeconds() const {
    if (infinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

  Clock::time_point time_point() const { return at_; }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}

  Clock::time_point at_ = Clock::time_point::max();
};

/// \brief Caller-owned cooperative cancellation flag.
///
/// The requester keeps the token alive for the duration of the call and may
/// `RequestCancel()` from any thread; solvers observe it within a bounded
/// number of steps and return their best anytime result tagged `partial`.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Why a `SolveControl` tripped.
enum class StopCause : uint8_t {
  kNone = 0,
  kDeadline = 1,
  kCancelled = 2,
};

/// \brief The poll object solver loops check at node/phase boundaries.
///
/// Bundles a `Deadline`, an optional `CancelToken` and a fault-injection
/// site (a `fault_sites::k*Deadline` constant) behind one `active()` flag
/// computed at construction: an inert control (no deadline, no token, no
/// armed injector) costs a single branch per check, which keeps the
/// un-deadlined determinism contract untouched.
///
/// `StopNow()` is thread-safe (the first observed cause wins via CAS) and
/// is what parallel lanes share; `CheckEvery()` adds a plain stride counter
/// and is for sequential loops only.
class SolveControl {
 public:
  /// Inert: never stops.
  SolveControl() = default;

  SolveControl(Deadline deadline, const CancelToken* cancel,
               const char* fault_site = nullptr)
      : deadline_(deadline),
        cancel_(cancel),
        fault_site_(fault_site),
        active_(cancel != nullptr || !deadline.infinite() ||
                (fault_site != nullptr && FaultInjector::Global().enabled())) {}

  bool active() const { return active_; }

  /// Full check: cancel token, deadline clock, injected deadline. Latches
  /// the first cause; later calls return true without re-probing.
  bool StopNow() {
    if (!active_) return false;
    if (cause_.load(std::memory_order_relaxed) != 0) return true;
    StopCause cause = StopCause::kNone;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      cause = StopCause::kCancelled;
    } else if (deadline_.Expired()) {
      cause = StopCause::kDeadline;
    } else if (fault_site_ != nullptr &&
               FaultInjector::Global().DeadlineFires(fault_site_)) {
      cause = StopCause::kDeadline;
    }
    if (cause == StopCause::kNone) return false;
    uint8_t expected = 0;
    cause_.compare_exchange_strong(expected, static_cast<uint8_t>(cause),
                                   std::memory_order_relaxed);
    return true;
  }

  /// Sequential-loop check: the cancel flag every call, the clock (and the
  /// injector) only every `stride` calls. Not thread-safe.
  bool CheckEvery(uint32_t stride) {
    if (!active_) return false;
    if (cause_.load(std::memory_order_relaxed) != 0) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) return StopNow();
    if (++tick_ % stride != 0) return false;
    return StopNow();
  }

  bool stopped() const { return cause_.load(std::memory_order_relaxed) != 0; }

  StopCause cause() const {
    return static_cast<StopCause>(cause_.load(std::memory_order_relaxed));
  }

 private:
  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  const char* fault_site_ = nullptr;
  bool active_ = false;
  uint32_t tick_ = 0;
  std::atomic<uint8_t> cause_{0};
};

}  // namespace pcqe

#endif  // PCQE_COMMON_DEADLINE_H_
