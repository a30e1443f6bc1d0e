// Process-wide metrics registry: named counters, gauges, and log-scale
// latency histograms with percentile export (DESIGN.md §4h).
//
// Two cost tiers, chosen per call site:
//   * Counters/gauges are always live — one relaxed fetch_add on a
//     thread-sharded cache line — so `mbird stats` and the batch report
//     see traffic even without --metrics.
//   * Histograms and the per-call PlanIR engine metrics are gated behind
//     metrics_on(): one relaxed load + branch when disabled, so the
//     ~40ns zero-copy marshal path stays within the <2% overhead budget
//     (bench/BENCH_obs.json). --trace/--metrics and `mbird batch` flip
//     the gate on.
//
// One rule for components that also report per-instance stats
// (rpc::NodeStats, BufferPool, CrossCache, CacheStore, the serve loops):
// each such field is a Stat — Count or HighWater below — that owns the
// instance's value together with the registry instrument of the same
// meaning, so one add()/set_max() updates both views and no event is
// counted by two statements.
//
// MBIRD_OBS_OFF compiles the *tracing* layer (obs/trace.hpp spans) to
// no-ops; the registry itself stays functional because the per-instance
// stats above read through it.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace mbird::obs {

// Monotonic nanoseconds (steady_clock). Shared by timers and the tracer.
uint64_t now_ns();

// Small dense per-thread id; used to pick counter shards and trace tids.
uint32_t thread_index();

// Runtime gate for the timed/per-call tier (histograms, engine op counts,
// rpc call spans' duration notes). Off by default.
bool metrics_on();
void set_metrics_on(bool on);

// Monotonic counter, sharded across cache lines so concurrent writers
// (ThreadPool workers, rpc pumps on several nodes) do not bounce one line.
class Counter {
 public:
  void add(uint64_t n = 1) {
    slots_[thread_index() & kMask].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr uint32_t kShards = 8;
  static constexpr uint32_t kMask = kShards - 1;
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kShards];
};

// Last-value (or high-water, via set_max) gauge.
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  // Monotonic high-water update (HighWater below).
  void set_max(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log-scale histogram: 8 linear sub-buckets per power of two, so any
// reported quantile is an upper bound within 12.5% relative error of the
// true value (obs_test checks this against a sorted-vector oracle).
// record() is one relaxed fetch_add into a bucket plus count/sum updates.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;
  // Index layout: values < kSub map to themselves; above that each power
  // of two contributes kSub buckets. msb ranges kSubBits..63.
  static constexpr int kBuckets = kSub * (64 - kSubBits + 1);

  void record(uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  // Upper bound of the bucket holding the q-quantile (0 < q <= 1).
  uint64_t percentile(double q) const;

  static int bucket_index(uint64_t v);
  // Inclusive upper bound of bucket i's value range.
  static uint64_t bucket_upper_bound(int i);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// Records elapsed ns into a histogram — but only when metrics_on(); the
// disabled cost is one relaxed load and branch, no clock read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) {
    if (metrics_on()) {
      h_ = &h;
      t0_ = now_ns();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (h_) h_->record(now_ns() - t0_);
  }

 private:
  Histogram* h_ = nullptr;
  uint64_t t0_ = 0;
};

// Name → instrument registry. Registration (the first lookup of a name)
// takes a mutex; call sites cache the returned reference in a static or a
// Stat, so the hot path never touches the map. Instruments are never deallocated
// while the registry lives, so cached references stay valid.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct HistView {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
  };
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistView> histograms;

    // Counters/histogram counts minus `base` (gauges keep current value).
    // Entries that are zero in the delta are dropped, so a batch report
    // only shows instruments the run actually touched.
    Snapshot delta_since(const Snapshot& base) const;
    void write_json(std::ostream& os, int indent = 0) const;
    std::string to_json(int indent = 0) const;
    // Aligned text table (the `mbird stats` pretty-printer).
    std::string to_text() const;
  };
  Snapshot snapshot() const;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Shorthands on the global registry.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

// A per-instance value bound to the global registry instrument `name`,
// resolved once at construction. Count (a Counter) tallies events with
// add(); HighWater (a Gauge) tracks a maximum with set_max(), keeping the
// process-wide gauge at or above every instance's value. Reads as a plain
// number. Lock-free and safe for concurrent writers.
template <class Instrument>
class Stat {
 public:
  explicit Stat(std::string_view name);

  void add(uint64_t n = 1)
    requires std::is_same_v<Instrument, Counter>
  {
    v_.fetch_add(n, std::memory_order_relaxed);
    instrument_.add(n);
  }
  void set_max(uint64_t v)
    requires std::is_same_v<Instrument, Gauge>
  {
    uint64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur) {
      if (v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        instrument_.set_max(static_cast<int64_t>(v));
        return;
      }
    }
  }

  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return value(); }  // NOLINT(google-explicit-constructor)

 private:
  std::atomic<uint64_t> v_{0};
  Instrument& instrument_;
};

template <>
inline Stat<Counter>::Stat(std::string_view name) : instrument_(counter(name)) {}
template <>
inline Stat<Gauge>::Stat(std::string_view name) : instrument_(gauge(name)) {}

using Count = Stat<Counter>;
using HighWater = Stat<Gauge>;

}  // namespace mbird::obs
