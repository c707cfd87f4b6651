// Dual-mode anytime budget meter for the optimizer portfolio (DESIGN.md §13).
//
// A WorkMeter counts abstract "work ticks" — units proportional to replayed
// or re-costed actions — charged by the incremental evaluator and the
// budget-aware improver loops. Two limits can be armed independently:
//
//   * a tick limit: deterministic virtual time. Charges are a pure function
//     of the optimization trajectory, so identical (instance, seed, limit)
//     runs exhaust at exactly the same point on any machine — the basis of
//     the bit-reproducible `--budget-ticks` mode;
//   * a wall-clock deadline for production `--budget-ms` runs, where
//     reproducibility is traded for a hard latency bound.
//
// Each pipeline charges its own meter from the one thread that drives it, in
// a fixed order, so totals observed at its poll points (between candidates,
// rounds) are deterministic. The counters are relaxed atomics, so polling a
// meter from another thread stays safe. An unarmed meter never reports
// exhaustion, and a null meter pointer on the evaluator is the default:
// unbudgeted runs are bit-identical to the pre-portfolio behavior.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rtsp {

class WorkMeter {
 public:
  using Clock = std::chrono::steady_clock;

  WorkMeter() = default;
  WorkMeter(const WorkMeter&) = delete;
  WorkMeter& operator=(const WorkMeter&) = delete;

  /// Arms the deterministic tick limit; 0 disarms it.
  void set_tick_limit(std::uint64_t limit) { tick_limit_ = limit; }
  /// Arms the wall-clock deadline.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  std::uint64_t tick_limit() const { return tick_limit_; }
  bool limited() const { return tick_limit_ != 0 || has_deadline_; }
  /// True when no wall-clock deadline is armed (tick-only or unlimited):
  /// exhaustion then depends only on the charge sequence.
  bool deterministic() const { return !has_deadline_; }

  /// Adds `n` ticks of work. Thread-safe.
  void charge(std::uint64_t n) { ticks_.fetch_add(n, std::memory_order_relaxed); }

  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// Whether either armed limit has been reached. Sticky: once exhausted a
  /// meter stays exhausted (ticks and time only move forward).
  bool exhausted() const {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (tick_limit_ != 0 && ticks() >= tick_limit_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  std::atomic<std::uint64_t> ticks_{0};
  mutable std::atomic<bool> expired_{false};
  std::uint64_t tick_limit_ = 0;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace rtsp
