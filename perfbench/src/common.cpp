#include "common.hpp"

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>

#include "obs/trace.hpp"

// ---- allocation counting ----------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void count_allocs(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

// ---- inputs -----------------------------------------------------------------

namespace {
uint64_t splitmix(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = splitmix(seed);
}

uint64_t Rng::next() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::derive(uint64_t seed, std::string_view label) {
  InputHash h;
  h.add_u64(seed);
  h.add(label);
  return Rng(std::strtoull(h.hex().c_str(), nullptr, 16));
}

void InputHash::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

void InputHash::add_u64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  add(std::string_view(buf, 8));
}

std::string InputHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// ---- statistics -------------------------------------------------------------

double Samples::quantile(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(v_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::mean() const {
  if (v_.empty()) return 0;
  double s = 0;
  for (double x : v_) s += x;
  return s / static_cast<double>(v_.size());
}

double median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.quantile(0.5);
}

// ---- process introspection --------------------------------------------------

namespace {
/// Sum of the named "Key:   N ..." fields of a /proc status file.
uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t klen = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::strtoull(line.c_str() + klen + 1, nullptr, 10);
    }
  }
  return 0;
}
}  // namespace

double vm_hwm_mib(pid_t pid) {
  return static_cast<double>(
             status_field("/proc/" + std::to_string(pid) + "/status", "VmHWM")) /
         1024.0;
}

uint64_t ctx_switches(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  uint64_t total = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = dir + "/" + e->d_name + "/status";
      total += status_field(st, "voluntary_ctxt_switches") +
               status_field(st, "nonvoluntary_ctxt_switches");
    }
    ::closedir(d);
  }
  return total;
}

double cpu_seconds(pid_t pid) {
  clockid_t cid;
  if (::clock_getcpuclockid(pid, &cid) != 0) return 0;
  timespec ts{};
  if (::clock_gettime(cid, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- trace analysis ---------------------------------------------------------

namespace {
/// Total length of the union of intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur0 = 0, cur1 = -1;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur1) {
      if (open) total += cur1 - cur0;
      cur0 = a;
      cur1 = b;
      open = true;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  if (open) total += cur1 - cur0;
  return total;
}
}  // namespace

TraceSummary summarize_trace(uint64_t window_t0,
                             const std::vector<Interval>& ops) {
  using mbird::obs::Tracer;
  TraceSummary out;
  const auto events = Tracer::global().events();
  out.dropped = Tracer::global().dropped_count();

  // The window span anchors the tracer's epoch to the steady clock.
  uint64_t window_span = 0;
  double epoch_ns = 0;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "bench.window") {
      window_span = e.span_id;
      epoch_ns = static_cast<double>(window_t0) - static_cast<double>(e.t0_ns);
      break;
    }
  }

  // Layer spans are the window's children and, for workloads that wrap
  // each op in a "bench.op" span, the op spans' children.
  std::map<uint64_t, double> child_ns;  // span id -> children's total
  std::set<uint64_t> layer_parent{window_span};
  for (const auto& e : events) {
    if (e.parent_span_id != 0) child_ns[e.parent_span_id] += static_cast<double>(e.dur_ns);
    if (std::string_view(e.name) == "bench.op") layer_parent.insert(e.span_id);
  }
  std::vector<std::pair<double, double>> layer;  // absolute ns
  for (const auto& e : events) {
    const std::string name = e.name;
    if (name == "bench.window") continue;
    out.dur_us[name].push_back(static_cast<double>(e.dur_ns) / 1e3);
    double self = static_cast<double>(e.dur_ns);
    if (auto it = child_ns.find(e.span_id); it != child_ns.end()) {
      self -= it->second;
    }
    out.self_us[name] += std::max(0.0, self) / 1e3;
    if (window_span != 0 && name != "bench.op" &&
        layer_parent.count(e.parent_span_id) != 0) {
      const double a = epoch_ns + static_cast<double>(e.t0_ns);
      layer.push_back({a, a + static_cast<double>(e.dur_ns)});
    }
  }

  // Op time = union of op intervals; covered = layer spans clipped to it.
  std::vector<std::pair<double, double>> op_iv;
  op_iv.reserve(ops.size());
  for (const auto& o : ops) {
    op_iv.push_back({static_cast<double>(o.t0), static_cast<double>(o.t1)});
  }
  const double op_total = union_length(op_iv);
  std::sort(op_iv.begin(), op_iv.end());
  std::vector<std::pair<double, double>> clipped;
  for (const auto& [a, b] : layer) {
    // Clip against every op interval the span overlaps (a span may start
    // just before its op's first timestamp).
    auto it = std::upper_bound(op_iv.begin(), op_iv.end(),
                               std::make_pair(a, 1e300));
    if (it != op_iv.begin()) --it;
    for (; it != op_iv.end() && it->first < b; ++it) {
      const double lo = std::max(a, it->first), hi = std::min(b, it->second);
      if (hi > lo) clipped.push_back({lo, hi});
    }
  }
  const double covered = union_length(clipped);
  out.unattributed_pct =
      op_total > 0 ? 100.0 * std::max(0.0, op_total - covered) / op_total : 0;
  return out;
}

void report_trace(Result& r, const TraceSummary& ts, double ops) {
  std::string self;
  for (const auto& [name, us] : ts.self_us) {
    if (!self.empty()) self += " ";
    self += name + "=" + json_num(us / ops);
  }
  r.info["span_self_us_per_op"] = self;
  r.info["trace_dropped_spans"] = std::to_string(ts.dropped);
  r.set("trace.unattributed_pct", ts.unattributed_pct, "%");
}

// ---- results ----------------------------------------------------------------

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> k = {
      {"frontend.parse_ms", "ms"},
      {"lower.lower_ms", "ms"},
      {"mtype.graph_nodes", "count"},
      {"canon.freeze_ms", "ms"},
      {"compare.us_per_pair", "us"},
      {"compare.steps_per_pair", "count"},
      {"compare.candidates_per_pair", "count"},
      {"plan.splice_ratio", "ratio"},
      {"planir.compile_us_per_pair", "us"},
      {"planir.program_ops", "count"},
      {"crosscache.verdict_hit_ratio", "ratio"},
      {"crosscache.program_hit_ratio", "ratio"},
      {"service.memo_hit_ratio", "ratio"},
      {"serve.handler_p50_us", "us"},
      {"rpc.client_send_us", "us"},
      {"rpc.client_poll_us", "us"},
      {"rpc.client_wait_us", "us"},
      {"rpc.frames_per_op", "count"},
      {"rpc.acks_per_op", "count"},
      {"rpc.retransmits_per_kop", "count"},
      {"rpc.duplicates_per_kop", "count"},
      {"rpc.bytes_per_op", "B"},
      {"rpc.chunks_per_op", "count"},
      {"rpc.reassembled_per_op", "count"},
      {"reactor.loop_lag_p50_us", "us"},
      {"reactor.loop_lag_p99_us", "us"},
      {"reactor.stalls", "count"},
      {"daemon.ctx_switches_per_op", "count"},
      {"wire.encode_MBps", "MB/s"},
      {"wire.decode_MBps", "MB/s"},
      {"wire.decode_allocs_per_op", "count"},
      {"wire.pool_reuse_ratio", "ratio"},
      {"value.string_build_us", "us"},
      {"value.string_read_us", "us"},
      {"runtime.fused_marshal_ns_p50", "ns"},
      {"runtime.convert_ns_p50", "ns"},
      {"runtime.ops_per_run", "count"},
      {"runtime.allocs_per_call", "count"},
      {"jside.read_us", "us"},
      {"bridge.handler_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
  };
  return k;
}

void mark_unmeasured_absent(Result& r, const std::string& why) {
  for (const auto& m : layer_metrics()) {
    if (r.metrics.count(m.name) == 0) {
      r.set(m.name, 0, m.unit);
      r.absent.emplace(m.name, why);
    }
  }
}

uint64_t counter_delta(const mbird::obs::Registry::Snapshot& before,
                       const mbird::obs::Registry::Snapshot& after,
                       const std::string& name, bool* present) {
  auto a = after.counters.find(name);
  auto b = before.counters.find(name);
  if (present != nullptr) *present = a != after.counters.end();
  const uint64_t va = a == after.counters.end() ? 0 : a->second;
  const uint64_t vb = b == before.counters.end() ? 0 : b->second;
  return va >= vb ? va - vb : 0;
}

}  // namespace perfbench
