// Lightweight metrics: named atomic counters, gauges, and fixed-bucket
// latency histograms. Every experiment in EXPERIMENTS.md reads its
// deterministic numbers (bytes moved, control messages, hops) from a
// MetricsRegistry; WriteJson dumps the whole surface (counters, gauges,
// histogram percentiles) for tests, benches, and failure triage.
//
// Metric names in src/ are dot-case constants from
// src/common/metric_names.h (enforced by tools/lint.py's metric-name rule).
#ifndef SRC_COMMON_METRICS_H_
#define SRC_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/mutex.h"

namespace skadi {

class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A point-in-time level (queue depth, watcher count, outstanding futures).
// Unlike Counter it goes down; Set overwrites, Add tracks a level from
// balanced increment/decrement pairs.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-scale latency histogram: bucket i holds samples in [2^i, 2^(i+1)) ns.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(int64_t nanos) {
    if (nanos < 0) {
      nanos = 0;
    }
    size_t bucket = 0;
    uint64_t v = static_cast<uint64_t>(nanos);
    while (v > 1 && bucket < kNumBuckets - 1) {
      v >>= 1;
      ++bucket;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum_nanos() const { return sum_.load(std::memory_order_relaxed); }

  double mean_nanos() const {
    int64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum_nanos()) / static_cast<double>(c);
  }

  // Approximate quantile (bucket upper bound), q in [0, 1].
  int64_t QuantileNanos(double q) const {
    int64_t total = count();
    if (total == 0) {
      return 0;
    }
    int64_t target = static_cast<int64_t>(q * static_cast<double>(total));
    // target indexes the sample picked by rank; clamp to the last sample so
    // q = 1.0 (target == total, which `seen > target` can never exceed)
    // returns the max bucket instead of falling through to the sentinel.
    if (target >= total) {
      target = total - 1;
    }
    if (target < 0) {
      target = 0;
    }
    int64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen > target) {
        return static_cast<int64_t>(1ULL << (i + 1 < 63 ? i + 1 : 63));
      }
    }
    return static_cast<int64_t>(1ULL << 62);
  }

  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Percentile summary of one histogram, as dumped by WriteJson.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t sum_nanos = 0;
  double mean_nanos = 0.0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
};

// Registry of counters/gauges/histograms by name. Lookup allocates on first
// use; returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  // Lookups take the registry lock and search by name: resolve a handle
  // once and keep it rather than looking up per update (lint rule
  // metric-handle). A name already present costs no allocation.
  Counter& GetCounter(std::string_view name) {
    MutexLock lock(mu_);
    return FindOrAdd(counters_, name);
  }

  Gauge& GetGauge(std::string_view name) {
    MutexLock lock(mu_);
    return FindOrAdd(gauges_, name);
  }

  Histogram& GetHistogram(std::string_view name) {
    MutexLock lock(mu_);
    return FindOrAdd(histograms_, name);
  }

  // Snapshot of all counter values, sorted by name.
  std::vector<std::pair<std::string, int64_t>> SnapshotCounters() const {
    MutexLock lock(mu_);
    std::vector<std::pair<std::string, int64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      out.emplace_back(name, counter.value());
    }
    return out;
  }

  // Snapshot of all gauge values, sorted by name.
  std::vector<std::pair<std::string, int64_t>> SnapshotGauges() const {
    MutexLock lock(mu_);
    std::vector<std::pair<std::string, int64_t>> out;
    out.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      out.emplace_back(name, gauge.value());
    }
    return out;
  }

  // Percentile summaries of all histograms, sorted by name.
  std::vector<HistogramSnapshot> SnapshotHistograms() const;

  // Dumps the whole surface as one JSON object:
  //   {"counters": {...}, "gauges": {...},
  //    "histograms": {name: {count, sum_nanos, mean_nanos, p50, ...}}}
  // Values are coherent per metric, not across metrics (each atomic is read
  // once; the registry lock only protects the maps).
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

  void ResetAll() {
    MutexLock lock(mu_);
    for (auto& [name, counter] : counters_) {
      counter.Reset();
    }
    for (auto& [name, gauge] : gauges_) {
      gauge.Reset();
    }
    for (auto& [name, histogram] : histograms_) {
      histogram.Reset();
    }
  }

 private:
  // Metrics live in the map nodes themselves: nodes never move, so the
  // returned references stay valid, and a new name costs one node.
  template <typename T>
  using Family = std::map<std::string, T, std::less<>>;

  template <typename T>
  static T& FindOrAdd(Family<T>& family, std::string_view name) {
    auto it = family.lower_bound(name);
    if (it == family.end() || it->first != name) {
      it = family.emplace_hint(it, std::piecewise_construct, std::forward_as_tuple(name),
                               std::forward_as_tuple());
    }
    return it->second;
  }

  mutable Mutex mu_;
  Family<Counter> counters_ GUARDED_BY(mu_);
  Family<Gauge> gauges_ GUARDED_BY(mu_);
  Family<Histogram> histograms_ GUARDED_BY(mu_);
};

}  // namespace skadi

#endif  // SRC_COMMON_METRICS_H_
