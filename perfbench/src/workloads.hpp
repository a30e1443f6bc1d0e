// The four workloads. Each fills `r` with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run), counts every checked op in
// `attempted` and every wrong or missing answer in `failed`.
#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

void run_compile_cold(const Options& o, Result& r);
void run_serve_compile(const Options& o, Result& r);
void run_echo_bulk(const Options& o, Result& r);
void run_stub_call(const Options& o, Result& r);

/// The timed window of one run: every completed op's end time and
/// latency, the window's bounds, and the worker process's CPU time over it.
struct Window {
  uint64_t start = 0, end = 0;  // now_ns()
  std::vector<std::pair<uint64_t, double>> done;  // (end ns, latency us)
  double cpu_s = 0;
  std::vector<Interval> intervals;  // op intervals, traced windows only

  void add(uint64_t t0, uint64_t t1, bool traced) {
    done.push_back({t1, static_cast<double>(t1 - t0) / 1e3});
    if (traced) intervals.push_back({t0, t1});
  }
  [[nodiscard]] uint64_t ops() const { return done.size(); }
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(end - start) / 1e9;
  }
  [[nodiscard]] double ops_per_s() const {
    return end > start ? static_cast<double>(ops()) / wall_s() : 0;
  }
};

/// Record the end-to-end metrics every workload reports.
void report_end_to_end(Result& r, Window& w, const std::vector<double>& setups,
                       double peak_rss_mib);

/// trace.overhead_pct from the untraced and traced halves of a traced run.
void report_trace_overhead(Result& r, const Window& untraced,
                           const Window& traced);

/// A traced run spends half its --seconds untraced and half traced.
inline double half_seconds(const Options& o) { return o.seconds / 2; }

}  // namespace perfbench
