// Shared plumbing of the benchmark harness: the seeded input generator,
// sample statistics, process introspection, allocation counting, trace
// analysis, and the result record every workload fills.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

// ---- inputs -----------------------------------------------------------------

/// xoshiro256** seeded through SplitMix64. The benchmark owns its generator
/// so that the inputs of a seed never change when the program's own
/// support/rng does.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t next();
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// An independent stream derived from this seed and a label.
  static Rng derive(uint64_t seed, std::string_view label);

 private:
  uint64_t s_[4];
};

/// FNV-1a over every input a run consumes or would consume first, so two
/// runs can be shown to have measured the same inputs.
class InputHash {
 public:
  void add(std::string_view bytes);
  void add_u64(uint64_t v);
  [[nodiscard]] std::string hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---- clocks and statistics --------------------------------------------------

inline uint64_t now_ns() { return mbird::obs::now_ns(); }

/// Exact quantiles over stored samples (linear interpolation between
/// closest ranks).
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  [[nodiscard]] size_t size() const { return v_.size(); }
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

double median(std::vector<double> v);

// ---- process introspection --------------------------------------------------

/// VmHWM of `pid` in MiB (0 when unreadable).
double vm_hwm_mib(pid_t pid);
/// Voluntary + involuntary context switches summed over every thread.
uint64_t ctx_switches(pid_t pid);
/// User+sys CPU seconds of `pid` through clock_getcpuclockid (ns
/// resolution; /proc/<pid>/stat counts 10 ms ticks).
double cpu_seconds(pid_t pid);
double self_cpu_seconds();

// ---- allocation counting ----------------------------------------------------

/// Counts operator new calls while enabled. Only the traced run enables it;
/// otherwise the replacement costs one relaxed load and a branch.
void count_allocs(bool on);
uint64_t alloc_count();

// ---- trace analysis ---------------------------------------------------------

struct Result;

/// Spans recorded by the program's tracer during a traced window, with the
/// window's own span as the time origin.
struct TraceSummary {
  /// Span durations in microseconds, by span name.
  std::map<std::string, std::vector<double>> dur_us;
  /// Self time (span minus its children) in microseconds, summed by name.
  std::map<std::string, double> self_us;
  /// Share of op time (union of op intervals) covered by no layer span.
  double unattributed_pct = 0;
  uint64_t dropped = 0;
};

/// An op interval on the steady clock (now_ns()).
struct Interval {
  uint64_t t0 = 0, t1 = 0;
};

/// Summarize the global tracer's events. `window_t0` is the now_ns() at
/// which the window span named "bench.window" was opened; layer spans are
/// its children and the children of "bench.op" spans. `ops` are the op
/// intervals of the window.
TraceSummary summarize_trace(uint64_t window_t0,
                             const std::vector<Interval>& ops);

/// Record each span's self time per op in the run's info, and the
/// unattributed share as trace.unattributed_pct.
void report_trace(Result& r, const TraceSummary& ts, double ops);

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// One run's outcome. The last stdout line is its JSON form.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Per-layer metrics this workload does not exercise, with the reason.
  std::map<std::string, std::string> absent;
  /// Host, build, input and daemon record (printed before the result).
  std::map<std::string, std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(uint64_t n = 1) { failed += n; }
};

std::string json_str(std::string_view s);
std::string json_num(double v);

/// Run options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string mbird;    // path of the mbird CLI binary
  std::string workdir;  // per-run scratch directory (inside the checkout)
  bool tiny = false;    // self-test size: small corpus, few set-ups
  bool plant_wrong = false;  // corrupt one expected answer (oracle check)
};

/// Set-up repetitions per run (setup_s is their median): `n` at full size,
/// one in the self-test.
inline int setup_count(const Options& o, int n) { return o.tiny ? 1 : n; }

/// Per-layer metric catalogue: every traced run reports each of these,
/// either measured or listed under "absent" with a reason.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Fill every catalogue metric the workload did not measure as absent.
void mark_unmeasured_absent(Result& r, const std::string& why);

/// Registry counter delta between two snapshots (0 when missing in both).
uint64_t counter_delta(const mbird::obs::Registry::Snapshot& before,
                       const mbird::obs::Registry::Snapshot& after,
                       const std::string& name, bool* present = nullptr);

}  // namespace perfbench
