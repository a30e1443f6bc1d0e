#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/strings.hpp"

namespace mbird::obs {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t thread_index() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

namespace {
std::atomic<bool> g_metrics_on{false};
}  // namespace

bool metrics_on() { return g_metrics_on.load(std::memory_order_relaxed); }
void set_metrics_on(bool on) {
  g_metrics_on.store(on, std::memory_order_relaxed);
}

int Histogram::bucket_index(uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((v >> shift) & (kSub - 1));
  return kSub * (msb - kSubBits + 1) + sub;
}

uint64_t Histogram::bucket_upper_bound(int i) {
  if (i < kSub) return static_cast<uint64_t>(i);
  const int block = i / kSub;            // >= 1
  const int sub = i % kSub;
  const int msb = block + kSubBits - 1;  // >= kSubBits
  const int shift = msb - kSubBits;
  const uint64_t low =
      (uint64_t{1} << msb) | (static_cast<uint64_t>(sub) << shift);
  return low + ((uint64_t{1} << shift) - 1);
}

uint64_t Histogram::percentile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the q-quantile in a sorted sample of `total` observations
  // (nearest-rank definition, 1-based).
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank * 1.0 < q * static_cast<double>(total)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    if (cum >= rank) return bucket_upper_bound(i);
  }
  return max_value();
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // never destroyed: cached
                                        // Counter& references outlive
                                        // static destruction order
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistView v;
    v.count = h->count();
    v.sum = h->sum();
    v.p50 = h->percentile(0.50);
    v.p95 = h->percentile(0.95);
    v.p99 = h->percentile(0.99);
    v.max = h->max_value();
    s.histograms[name] = v;
  }
  return s;
}

Registry::Snapshot Registry::Snapshot::delta_since(const Snapshot& base) const {
  Snapshot d;
  for (const auto& [name, v] : counters) {
    auto it = base.counters.find(name);
    const uint64_t prev = it == base.counters.end() ? 0 : it->second;
    if (v > prev) d.counters[name] = v - prev;
  }
  for (const auto& [name, v] : gauges) {
    if (v != 0) d.gauges[name] = v;
  }
  for (const auto& [name, h] : histograms) {
    auto it = base.histograms.find(name);
    const uint64_t prev = it == base.histograms.end() ? 0 : it->second.count;
    if (h.count > prev) {
      HistView v = h;
      v.count = h.count - prev;
      if (it != base.histograms.end() && h.sum >= it->second.sum) {
        v.sum = h.sum - it->second.sum;
      }
      d.histograms[name] = v;
    }
  }
  return d;
}

namespace {
struct Pad {
  int n;
};
std::ostream& operator<<(std::ostream& os, Pad p) {
  for (int i = 0; i < p.n; ++i) os << ' ';
  return os;
}
}  // namespace

void Registry::Snapshot::write_json(std::ostream& os, int indent) const {
  const int in0 = indent, in1 = indent + 2, in2 = indent + 4;
  os << "{\n";
  os << Pad{in1} << "\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n" : ",\n") << Pad{in2};
    write_json_string(os, name);
    os << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n") << (first ? "" : std::string(in1, ' ')) << "},\n";
  os << Pad{in1} << "\"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n" : ",\n") << Pad{in2};
    write_json_string(os, name);
    os << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n") << (first ? "" : std::string(in1, ' ')) << "},\n";
  os << Pad{in1} << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n" : ",\n") << Pad{in2};
    write_json_string(os, name);
    os << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"p50\": " << h.p50 << ", \"p95\": " << h.p95
       << ", \"p99\": " << h.p99 << ", \"max\": " << h.max << "}";
    first = false;
  }
  os << (first ? "" : "\n") << (first ? "" : std::string(in1, ' ')) << "}\n";
  os << Pad{in0} << "}";
}

std::string Registry::Snapshot::to_json(int indent) const {
  std::ostringstream os;
  write_json(os, indent);
  return os.str();
}

namespace {
// 1234567 -> "1,234,567": the stats table is for humans.
std::string with_commas(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int seen = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (seen && seen % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++seen;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string ns_human(uint64_t ns) {
  std::ostringstream os;
  os << std::fixed;
  if (ns < 1000) {
    os << ns << "ns";
  } else if (ns < 1000 * 1000) {
    os << std::setprecision(1) << ns / 1e3 << "us";
  } else if (ns < 1000ull * 1000 * 1000) {
    os << std::setprecision(2) << ns / 1e6 << "ms";
  } else {
    os << std::setprecision(3) << ns / 1e9 << "s";
  }
  return os.str();
}
}  // namespace

std::string Registry::Snapshot::to_text() const {
  size_t width = 0;
  for (const auto& [name, v] : counters) width = std::max(width, name.size());
  for (const auto& [name, v] : gauges) width = std::max(width, name.size());
  for (const auto& [name, v] : histograms) width = std::max(width, name.size());
  std::ostringstream os;
  auto row = [&](std::string_view name, const std::string& val) {
    os << "  " << name;
    for (size_t i = name.size(); i < width + 2; ++i) os << ' ';
    os << val << "\n";
  };
  if (!counters.empty()) {
    os << "counters\n";
    for (const auto& [name, v] : counters) row(name, with_commas(v));
  }
  if (!gauges.empty()) {
    os << "gauges\n";
    for (const auto& [name, v] : gauges) {
      std::string val = with_commas(static_cast<uint64_t>(v < 0 ? -v : v));
      if (v < 0) val.insert(val.begin(), '-');
      row(name, val);
    }
  }
  if (!histograms.empty()) {
    os << "histograms\n";
    for (const auto& [name, h] : histograms) {
      std::ostringstream val;
      val << "n=" << with_commas(h.count) << "  p50=" << ns_human(h.p50)
          << "  p95=" << ns_human(h.p95) << "  p99=" << ns_human(h.p99)
          << "  max=" << ns_human(h.max);
      row(name, val.str());
    }
  }
  if (counters.empty() && gauges.empty() && histograms.empty()) {
    os << "(no metrics recorded)\n";
  }
  return os.str();
}

Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
Gauge& gauge(std::string_view name) { return Registry::global().gauge(name); }
Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}

}  // namespace mbird::obs
