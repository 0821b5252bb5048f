// Clocks for the emulated cluster.
//
// The fabric and device cost models charge *virtual* nanoseconds to a
// VirtualClock so experiments report deterministic modelled time; callers
// can additionally realize a fraction of the charged time as actual delay
// (benchmarks do, unit tests don't).
#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace skadi {

// Monotonic wall-clock time in nanoseconds.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Accumulates modelled time. Thread-safe. One instance per emulated cluster.
class VirtualClock {
 public:
  // Charges `nanos` of modelled time. If `realize_fraction` was configured
  // > 0, also blocks the calling thread for nanos * fraction (busy-sleeping
  // below a threshold for accuracy).
  void Charge(int64_t nanos) {
    if (nanos <= 0) {
      return;
    }
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    if (realize_fraction_ > 0.0) {
      RealizeDelay(static_cast<int64_t>(static_cast<double>(nanos) * realize_fraction_));
    }
  }

  // Accounts `nanos` of modelled time without ever blocking: the realized
  // share (if any) is the caller's to schedule — the fabric puts it on its
  // reactor's timer wheel instead of sleeping (see
  // Fabric::TransferBytesAsync). Returns the realized delay in actual
  // nanoseconds (0 when pure accounting).
  int64_t Account(int64_t nanos) {
    if (nanos <= 0) {
      return 0;
    }
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    if (realize_fraction_ <= 0.0) {
      return 0;
    }
    return static_cast<int64_t>(static_cast<double>(nanos) * realize_fraction_);
  }

  // Total modelled nanoseconds charged so far.
  int64_t total_nanos() const { return total_nanos_.load(std::memory_order_relaxed); }

  void Reset() { total_nanos_.store(0, std::memory_order_relaxed); }

  // Fraction of charged virtual time realized as actual thread delay.
  // 0 (default) = pure accounting; 1 = real-time emulation.
  void set_realize_fraction(double fraction) { realize_fraction_ = fraction; }
  double realize_fraction() const { return realize_fraction_; }

 private:
  static void RealizeDelay(int64_t nanos) {
    if (nanos <= 0) {
      return;
    }
    // sleep_for has ~50us granularity on Linux; spin for short delays so the
    // modelled latency shape survives in measured wall time.
    constexpr int64_t kSpinThresholdNanos = 50 * 1000;
    if (nanos < kSpinThresholdNanos) {
      const int64_t deadline = NowNanos() + nanos;
      while (NowNanos() < deadline) {
        // spin
      }
    } else {
      // Sleeping on the worker that runs the task is the point: the modelled
      // compute time shows up as that task's wall time.
      std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));  // lint:allow raw-thread (realizes modelled time)
    }
  }

  std::atomic<int64_t> total_nanos_{0};
  double realize_fraction_ = 0.0;
};

// RAII stopwatch measuring wall time.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNanos()) {}
  int64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedNanos()) / 1e6; }
  void Restart() { start_ = NowNanos(); }

 private:
  int64_t start_;
};

}  // namespace skadi

#endif  // SRC_COMMON_CLOCK_H_
