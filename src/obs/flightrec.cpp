#include "obs/flightrec.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/strings.hpp"

namespace mbird::obs {

namespace {

// Per-thread cache of (recorder id → Ring*), same shape as the tracer's
// thread-buf cache: a short linear scan, ids never reused.
struct TlRing {
  uint64_t recorder_id;
  void* ring;
};
thread_local std::vector<TlRing> tl_rings;

uint64_t next_recorder_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace detail {
std::atomic<bool> g_global_recording{false};
}  // namespace detail

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* fr = new FlightRecorder();  // never destroyed
  return *fr;
}

void FlightRecorder::enable() {
  enabled_.store(true, std::memory_order_relaxed);
  if (this == &global()) {
    detail::g_global_recording.store(true, std::memory_order_relaxed);
  }
}

void FlightRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  if (this == &global()) {
    detail::g_global_recording.store(false, std::memory_order_relaxed);
  }
}

FlightRecorder::FlightRecorder() : id_(next_recorder_id()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  for (const TlRing& e : tl_rings) {
    if (e.recorder_id == id_) return static_cast<Ring*>(e.ring);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<uint32_t>(rings_.size()) + 1;
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  tl_rings.push_back(TlRing{id_, raw});
  return raw;
}

void FlightRecorder::record(const char* name, uint64_t t0_ns, uint64_t dur_ns,
                            uint64_t trace_id, uint64_t span_id,
                            uint64_t parent_span_id) {
  if (!enabled()) return;  // one relaxed load; callers need not pre-check
  Ring* ring = ring_for_this_thread();
  const uint64_t n = ring->head.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring->slots[n & (kRingSize - 1)];
  // Invalidate, fill, then publish: a concurrent reader either sees the
  // final stamp with all fields in place or notices the change and skips.
  s.stamp.store(0, std::memory_order_relaxed);
  s.name.store(name, std::memory_order_relaxed);
  s.t0_ns.store(t0_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  s.span_id.store(span_id, std::memory_order_relaxed);
  s.parent_span_id.store(parent_span_id, std::memory_order_relaxed);
  s.stamp.store(n + 1, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    for (const Slot& s : ring->slots) {
      const uint64_t stamp = s.stamp.load(std::memory_order_acquire);
      if (stamp == 0) continue;
      Event ev;
      ev.name = s.name.load(std::memory_order_relaxed);
      ev.t0_ns = s.t0_ns.load(std::memory_order_relaxed);
      ev.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      ev.trace_id = s.trace_id.load(std::memory_order_relaxed);
      ev.span_id = s.span_id.load(std::memory_order_relaxed);
      ev.parent_span_id = s.parent_span_id.load(std::memory_order_relaxed);
      ev.tid = ring->tid;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.stamp.load(std::memory_order_relaxed) != stamp) continue;
      if (ev.name == nullptr) continue;
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.dur_ns > b.dur_ns;  // parent before child at equal start
  });
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& ring : rings_) {
    n += ring->head.load(std::memory_order_relaxed);
  }
  return n;
}

void FlightRecorder::write_chrome_json(std::ostream& os,
                                       const char* reason) const {
  const std::vector<Event> all = snapshot();
  uint64_t base = 0;
  for (const Event& ev : all) {
    if (base == 0 || ev.t0_ns < base) base = ev.t0_ns;
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& ev : all) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":";
    write_json_string(os, ev.name);
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        ",\"cat\":\"flightrec\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":\"%016llx\","
        "\"span_id\":\"%016llx\",\"parent_span_id\":\"%016llx\"}}",
        ev.tid, static_cast<double>(ev.t0_ns - base) / 1e3,
        static_cast<double>(ev.dur_ns) / 1e3,
        static_cast<unsigned long long>(ev.trace_id),
        static_cast<unsigned long long>(ev.span_id),
        static_cast<unsigned long long>(ev.parent_span_id));
    os << buf;
  }
  os << (first ? "" : "\n") << "],\"displayTimeUnit\":\"ms\","
     << "\"flightRecorder\":{\"reason\":";
  write_json_string(os, reason);
  os << ",\"events\":" << all.size()
     << ",\"recorded\":" << total_recorded() << "}}\n";
}

std::string FlightRecorder::chrome_json(const char* reason) const {
  std::ostringstream os;
  write_chrome_json(os, reason);
  return os.str();
}

void FlightRecorder::set_fault_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_path_ = std::move(path);
}

std::string FlightRecorder::fault_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_path_;
}

void FlightRecorder::fault(const char* reason) {
  if (!enabled()) return;
  const std::string path = fault_path();
  if (path.empty()) return;
  // First fault writes the dump; a storm of follow-ups only counts.
  if (faults_.fetch_add(1, std::memory_order_relaxed) != 0) return;
  std::ofstream out(path);
  if (!out) return;
  write_chrome_json(out, reason);
}

}  // namespace mbird::obs
