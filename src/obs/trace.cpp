#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"

namespace mbird::obs {

namespace {

// The innermost context on this thread: the open span a child would claim
// as parent, or a remote caller's context adopted by a ContextGuard. Spans
// and guards save/restore it like a linked stack.
thread_local TraceContext tl_current{};

// splitmix64 finalizer — cheap, well-distributed id mixing.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Ids must not collide across the processes whose traces get stitched, so
// the counter is folded with a per-process (pid, boot-time) seed.
uint64_t next_global_id() {
  static const uint64_t seed =
      mix64((static_cast<uint64_t>(::getpid()) << 32) ^ now_ns());
  static std::atomic<uint64_t> counter{1};
  const uint64_t id =
      mix64(seed + counter.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

// Per-thread cache of (tracer id → ThreadBuf*). A linear scan over at
// most a handful of entries; tracer ids are never reused, so a stale
// entry for a destroyed tracer can never be confused with a live one.
struct TlEntry {
  uint64_t tracer_id;
  void* buf;  // Tracer::ThreadBuf*, opaque here (the type is private)
};
thread_local std::vector<TlEntry> tl_bufs;

uint64_t next_tracer_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
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

TraceContext current_context() { return tl_current; }

uint64_t fresh_trace_id() { return next_global_id(); }

ContextGuard::ContextGuard(const TraceContext& ctx) : prev_(tl_current) {
  // Always assigns: adopting an invalid context CLEARS the slot, so a
  // handler for an untraced frame cannot leak whatever stale context the
  // dispatching thread happened to hold into its spans or sends.
  tl_current = ctx;
}

ContextGuard::~ContextGuard() { tl_current = prev_; }

Tracer& Tracer::global() {
  static Tracer* t = new Tracer();  // never destroyed (see Registry::global)
  return *t;
}

Tracer::Tracer() : id_(next_tracer_id()) {}

Tracer::~Tracer() = default;

void Tracer::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) {
    buf->events.clear();
    buf->stack.clear();
  }
  orphans_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_ = now_ns();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

Tracer::ThreadBuf* Tracer::buf_for_this_thread() {
  for (const TlEntry& e : tl_bufs) {
    if (e.tracer_id == id_) return static_cast<ThreadBuf*>(e.buf);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuf>();
  buf->tid = static_cast<uint32_t>(bufs_.size()) + 1;
  ThreadBuf* raw = buf.get();
  bufs_.push_back(std::move(buf));
  tl_bufs.push_back(TlEntry{id_, raw});
  return raw;
}

void Tracer::finish(ThreadBuf* buf, uint64_t token) {
  // Find the span on this thread's stack. The common case is the top.
  // An out-of-order close only counts as an orphan when a span of the
  // SAME trace is still open above it — a reactor thread legitimately
  // interleaves spans of different peers' traces on one stack, and
  // closing trace A under trace B's open span is not a nesting bug.
  auto& stack = buf->stack;
  for (size_t i = stack.size(); i-- > 0;) {
    if (stack[i].token != token) continue;
    Open open = std::move(stack[i]);
    bool orphaned = false;
    for (size_t j = i + 1; j < stack.size(); ++j) {
      if (stack[j].trace_id == open.trace_id) {
        orphaned = true;
        break;
      }
    }
    stack.erase(stack.begin() + static_cast<ptrdiff_t>(i));
    if (orphaned) orphans_.fetch_add(1, std::memory_order_relaxed);
    if (buf->events.size() >= kMaxEventsPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Event ev;
    ev.name = open.name;
    ev.t0_ns = open.t0;
    const uint64_t now = now_ns() - epoch_ns_;
    ev.dur_ns = now >= open.t0 ? now - open.t0 : 0;
    ev.tid = buf->tid;
    ev.depth = open.depth;
    ev.orphaned = orphaned;
    ev.trace_id = open.trace_id;
    ev.span_id = open.span_id;
    ev.parent_span_id = open.parent_span_id;
    ev.notes = std::move(open.notes);
    buf->events.push_back(std::move(ev));
    return;
  }
  // Not on the stack at all: its record was already evicted by an
  // enable() reset or an ancestor's out-of-order close.
  orphans_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Tracer::Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> all;
  for (const auto& buf : bufs_) {
    all.insert(all.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.dur_ns > b.dur_ns;  // parent before child at equal start
  });
  return all;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buf : bufs_) n += buf->events.size();
  return n;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<Event> all = events();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& ev : all) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":";
    write_json_string(os, ev.name);
    os << ",\"cat\":\"mbird\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":" << std::fixed << std::setprecision(3)
       << static_cast<double>(ev.t0_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(ev.dur_ns) / 1e3;
    if (!ev.notes.empty() || ev.orphaned || ev.trace_id != 0) {
      os << ",\"args\":{";
      bool afirst = true;
      for (const Note& n : ev.notes) {
        if (!afirst) os << ",";
        afirst = false;
        write_json_string(os, n.key);
        os << ":";
        write_json_string(os, n.val);
      }
      if (ev.trace_id != 0) {
        char ids[160];
        std::snprintf(ids, sizeof ids,
                      "\"trace_id\":\"%016llx\",\"span_id\":\"%016llx\","
                      "\"parent_span_id\":\"%016llx\"",
                      static_cast<unsigned long long>(ev.trace_id),
                      static_cast<unsigned long long>(ev.span_id),
                      static_cast<unsigned long long>(ev.parent_span_id));
        if (!afirst) os << ",";
        afirst = false;
        os << ids;
      }
      if (ev.orphaned) {
        if (!afirst) os << ",";
        os << "\"orphaned\":\"true\"";
      }
      os << "}";
    }
    os << "}";
  }
  os << (first ? "" : "\n") << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

std::string Tracer::text_tree() const {
  const std::vector<Event> all = events();
  std::ostringstream os;
  uint32_t tid = 0;
  for (const Event& ev : all) {
    if (ev.tid != tid) {
      tid = ev.tid;
      os << "thread " << tid << "\n";
    }
    for (uint32_t i = 0; i <= ev.depth; ++i) os << "  ";
    os << ev.name << " " << ns_human(ev.dur_ns);
    for (const Note& n : ev.notes) os << "  " << n.key << "=" << n.val;
    if (ev.orphaned) os << "  [orphaned]";
    os << "\n";
  }
  if (all.empty()) os << "(no spans recorded)\n";
  return os.str();
}

#ifndef MBIRD_OBS_OFF

Span::Span(Tracer& t, const char* name) {
  const bool traced = t.enabled();
  const bool recorded = globally_recording();
  if (!traced && !recorded) return;
  name_ = name;
  t0_abs_ = now_ns();
  const TraceContext parent = tl_current;
  trace_id_ = parent.valid() ? parent.trace_id : next_global_id();
  parent_span_id_ = parent.span_id;
  span_id_ = next_global_id();
  saved_current_ = parent;
  tl_current = TraceContext{trace_id_, span_id_, true};
  live_ = true;
  flightrec_ = recorded;
  if (!traced) return;
  t_ = &t;
  buf_ = t.buf_for_this_thread();
  token_ = t.next_token_.fetch_add(1, std::memory_order_relaxed);
  Tracer::Open open;
  open.name = name;
  open.t0 = t0_abs_ - t.epoch_ns_;
  open.token = token_;
  open.depth = static_cast<uint32_t>(buf_->stack.size());
  open.trace_id = trace_id_;
  open.span_id = span_id_;
  open.parent_span_id = parent_span_id_;
  buf_->stack.push_back(std::move(open));
}

Span::~Span() {
  if (live_) {
    tl_current = saved_current_;
    if (flightrec_) {
      const uint64_t now = now_ns();
      FlightRecorder::global().record(name_, t0_abs_,
                                      now >= t0_abs_ ? now - t0_abs_ : 0,
                                      trace_id_, span_id_, parent_span_id_);
    }
  }
  if (buf_) t_->finish(buf_, token_);
}

void Span::note(std::string_view key, std::string_view val) {
  if (!buf_) return;
  for (size_t i = buf_->stack.size(); i-- > 0;) {
    if (buf_->stack[i].token == token_) {
      buf_->stack[i].notes.push_back(
          Tracer::Note{std::string(key), std::string(val)});
      return;
    }
  }
}

void Span::note(std::string_view key, uint64_t val) {
  note(key, std::string_view(std::to_string(val)));
}

#endif  // MBIRD_OBS_OFF

}  // namespace mbird::obs
