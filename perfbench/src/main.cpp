// perfbench: the repository benchmark's harness. One invocation runs one
// workload for one seed and prints, as its last stdout line, a JSON object
// with `correct`, `attempted`, `failed` and `metrics`. perfbench/run.py
// builds this binary and the `mbird` CLI from source and invokes it; see
// perfbench/README.md for the workloads and the metrics.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "daemon.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace perfbench {

void report_end_to_end(Result& r, Window& w, const std::vector<double>& setups,
                       double peak_rss_mib) {
  // Throughput and latency quantiles are medians over equal slices of the
  // window, so a burst of host noise in a minority of slices moves them
  // little. A slice needs 1000 ops (ten beyond p99); with fewer than three
  // such slices the whole window is one slice.
  const size_t n = w.done.size();
  const size_t k = n / 1000 >= 3 ? std::min<size_t>(10, n / 1000) : 1;
  const uint64_t span = std::max<uint64_t>(w.end - w.start, 1);
  std::vector<Samples> lat(k);
  for (const auto& [t_end, us] : w.done) {
    const uint64_t off = t_end > w.start ? t_end - w.start : 0;
    lat[std::min<size_t>(k - 1, off * k / span)].add(us);
  }
  std::vector<double> rate, p50, p90, p99;
  const double slice_s = static_cast<double>(span) / 1e9 / static_cast<double>(k);
  for (auto& s : lat) {
    rate.push_back(static_cast<double>(s.size()) / slice_s);
    p50.push_back(s.quantile(0.50));
    p90.push_back(s.quantile(0.90));
    p99.push_back(s.quantile(0.99));
  }
  r.set("setup_s", median(setups), "s");
  r.set("ops_per_s", median(rate), "ops/s");
  r.set("latency_p50_us", median(p50), "us");
  r.set("latency_p90_us", median(p90), "us");
  r.set("latency_p99_us", median(p99), "us");
  r.set("peak_rss_mb", peak_rss_mib, "MiB");
  r.set("daemon_cpu_us_per_op",
        n > 0 ? w.cpu_s * 1e6 / static_cast<double>(n) : 0, "us");
  r.info["samples"] = std::to_string(n);
  r.info["slices"] = std::to_string(k);
}

void report_trace_overhead(Result& r, const Window& untraced,
                           const Window& traced) {
  const double base = untraced.ops_per_s(), with = traced.ops_per_s();
  r.set("trace.overhead_pct", with > 0 ? 100.0 * (base / with - 1.0) : 0, "%");
  r.info["untraced_ops_per_s"] = json_num(base);
  r.info["traced_ops_per_s"] = json_num(with);
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <compile_cold|serve_compile|"
               "echo_bulk|stub_call> --seed N --seconds S --trace 0|1\n"
               "                 --mbird <path> --workdir <dir> [--tiny] "
               "[--plant-wrong] [--source-id ID]\n";
  return 2;
}

/// Pin this process, and so the daemons it forks, to the last CPU it may
/// use. With client and daemon on separate CPUs the request/reply
/// ping-pong waits on wakeups of idle vCPUs, whose latency on a shared VM
/// swings from run to run (see perfbench/README.md). Returns the CPU.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
    } else if (a == "--seed") {
      o.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(val().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = val() != "0";
    } else if (a == "--mbird") {
      o.mbird = val();
    } else if (a == "--workdir") {
      o.workdir = val();
    } else if (a == "--source-id") {
      source_id = val();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--plant-wrong") {
      o.plant_wrong = true;
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || o.mbird.empty() || o.workdir.empty() ||
      o.seconds <= 0) {
    return usage();
  }
  install_reaper();
  // Fixed glibc thresholds for this process (daemons keep the defaults).
  // With the dynamic ones the echo client settled, run by run, into one of
  // two modes; in one it returned its ~10 MB Value buffers to the kernel
  // and re-faulted about 5,200 pages per op, a third more CPU per op.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Result r;
  r.info["workload"] = o.workload;
  r.info["seed"] = std::to_string(o.seed);
  r.info["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  r.info["cpu_model"] = cpu_model();
  r.info["compiler"] = "g++ " __VERSION__;
  r.info["build_type"] = PERFBENCH_BUILD_TYPE;
  r.info["source_id"] = source_id;
  r.info["trace"] = o.trace ? "1" : "0";
  r.info["pinned_cpu"] = std::to_string(pin_to_one_cpu());
  int rc = 0;
  try {
    if (o.workload == "compile_cold") {
      run_compile_cold(o, r);
    } else if (o.workload == "serve_compile") {
      run_serve_compile(o, r);
    } else if (o.workload == "echo_bulk") {
      run_echo_bulk(o, r);
    } else if (o.workload == "stub_call") {
      run_stub_call(o, r);
    } else {
      std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    // A set-up that cannot complete leaves no result to print.
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (r.attempted == 0) {
    std::cerr << "perfbench: no op completed\n";
    return 1;
  }

  std::cout << "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    std::cout << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
    first = false;
  }
  std::cout << "}}\n";
  if (o.trace) {
    std::cout << "{\"absent\": {";
    first = true;
    for (const auto& [k, v] : r.absent) {
      std::cout << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
      first = false;
    }
    std::cout << "}}\n";
  }
  const bool correct = r.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  first = true;
  for (const auto& [k, m] : r.metrics) {
    std::cout << (first ? "" : ", ") << json_str(k)
              << ": {\"value\": " << json_num(m.value)
              << ", \"unit\": " << json_str(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  if (!correct) rc = 1;
  return rc;
}
