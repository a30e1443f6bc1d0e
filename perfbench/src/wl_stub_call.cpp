// stub_call: the paper's running example, the §3.4 fitter, called through
// the generated stubs in-process on one thread. A Java-side client calls
// the C `fitter` through the proxy rpc::make_port_adapter returns, over
// transport::make_socket_pair; bridge::wrap_c_function serves the call.
// It is the workload that runs generated code: the fused marshal on the
// request, the convert-mode reply proxy, and the native-heap writes. Plans
// are built in set-up, so it bypasses compare; it bypasses the reactor.
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "annotate/script.hpp"
#include "bridge/cbridge.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "transport/link.hpp"
#include "runtime/jside.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mbird::runtime::JHeap;
using mbird::runtime::JRef;
using mbird::runtime::JSlot;
using mbird::runtime::NativeHeap;
using mbird::runtime::Value;

constexpr const char* kFitterC = R"(
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
)";
constexpr const char* kFitterScript =
    "annotate fitter.pts length param count;\n"
    "annotate fitter.start out;\n"
    "annotate fitter.end out;\n";
constexpr const char* kAppJava = R"(
public class Point {
    private float x;
    private float y;
}
public class Line {
    private Point start;
    private Point end;
}
public class PointVector extends java.util.Vector;
public interface JavaIdeal {
    Line fitter(PointVector pts);
}
)";
constexpr const char* kAppScript =
    "annotate Line.start notnull noalias;\n"
    "annotate Line.end notnull noalias;\n"
    "annotate PointVector element Point notnull-elements;\n"
    "annotate JavaIdeal.fitter.pts notnull;\n"
    "annotate JavaIdeal.fitter.return notnull;\n";

constexpr uint64_t kTracedOpCap = 30000;

/// The benchmark's own native fitter, and the oracle: a least-squares line
/// over the points, reported as its end points at the extreme x values.
void native_fitter(NativeHeap& heap, const std::vector<uint64_t>& slots) {
  const uint64_t pts = slots[0], count = slots[1], start = slots[2],
                 end = slots[3];
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  float min_x = 0, max_x = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const float x = heap.read_f32(pts + i * 8), y = heap.read_f32(pts + i * 8 + 4);
    sx += x;
    sy += y;
    sxx += double(x) * x;
    sxy += double(x) * y;
    if (i == 0 || x < min_x) min_x = x;
    if (i == 0 || x > max_x) max_x = x;
  }
  const double n = double(count);
  const double denom = n * sxx - sx * sx;
  const double b = denom != 0 ? (n * sxy - sx * sy) / denom : 0;
  const double a = n != 0 ? (sy - b * sx) / n : 0;
  heap.write_f32(start, min_x);
  heap.write_f32(start + 4, float(a + b * min_x));
  heap.write_f32(end, max_x);
  heap.write_f32(end + 4, float(a + b * max_x));
}

using Points = std::vector<std::pair<float, float>>;

/// The oracle: the native fitter called directly on the same points.
std::array<float, 4> fit_directly(const Points& pts) {
  NativeHeap heap;
  const uint64_t buf = heap.alloc(std::max<uint64_t>(pts.size(), 1) * 8, 4);
  for (size_t i = 0; i < pts.size(); ++i) {
    heap.write_f32(buf + i * 8, pts[i].first);
    heap.write_f32(buf + i * 8 + 4, pts[i].second);
  }
  const uint64_t start = heap.alloc(8, 4), end = heap.alloc(8, 4);
  native_fitter(heap, {buf, pts.size(), start, end});
  return {heap.read_f32(start), heap.read_f32(start + 4), heap.read_f32(end),
          heap.read_f32(end + 4)};
}

/// Parsed and annotated declarations, lowered pair, the comparison, and
/// the two rpc nodes with the server function and the client's proxy.
struct World {
  mbird::stype::Module c_mod{mbird::stype::Lang::C, ""};
  mbird::stype::Module j_mod{mbird::stype::Lang::Java, ""};
  mbird::mtype::Graph gc, gj;
  mbird::mtype::Ref inv_j = mbird::mtype::kNullRef;
  mbird::compare::Result cmp;  // C fitter port -> Java fitter port
  mbird::rpc::Node client{1}, server{2};
  NativeHeap cheap;
  uint64_t proxy = 0;
  double parse_ms = 0, lower_ms = 0;
};

std::unique_ptr<World> set_up() {
  namespace m = mbird;
  auto w = std::make_unique<World>();
  m::DiagnosticEngine diags;
  const uint64_t t0 = now_ns();
  w->c_mod = m::cfront::parse_c(kFitterC, "fitter.h", diags);
  w->j_mod = m::javasrc::parse_java(kAppJava, "App.java", diags);
  const uint64_t t1 = now_ns();
  m::annotate::run_script(kFitterScript, "c.mba", w->c_mod, diags);
  m::annotate::run_script(kAppScript, "j.mba", w->j_mod, diags);
  const uint64_t t2 = now_ns();
  const m::mtype::Ref rc = m::lower::lower_decl(w->c_mod, w->gc, "fitter", diags);
  const m::mtype::Ref rj =
      m::lower::lower_decl(w->j_mod, w->gj, "JavaIdeal.fitter", diags);
  const uint64_t t3 = now_ns();
  if (diags.has_errors()) throw std::runtime_error(diags.summary());
  w->parse_ms = static_cast<double>(t1 - t0) / 1e6;
  w->lower_ms = static_cast<double>(t3 - t2) / 1e6;
  w->inv_j = w->gj.at(rj).body();

  // The C function's port seen from Java: a PortMap whose proxy accepts
  // Java invocations and forwards C-shaped wire bytes.
  w->cmp = m::compare::compare(w->gc, rc, w->gj, rj, {});
  if (!w->cmp.ok || w->cmp.plan.at(w->cmp.root).kind != m::plan::PKind::PortMap) {
    throw std::runtime_error("fitter declarations do not compare as ports");
  }
  auto [lc, ls] = m::transport::make_socket_pair();
  w->client.connect(2, std::move(lc));
  w->server.connect(1, std::move(ls));
  auto impl = m::bridge::wrap_c_function(w->c_mod, w->c_mod.find("fitter"),
                                         w->cheap, &native_fitter);
  const uint64_t fn_port = m::rpc::serve_function(
      w->server, w->gc, w->gc.at(rc).body(),
      [impl = std::move(impl)](const Value& args) {
        m::obs::Span span("bridge.handler");
        return impl(args);
      });
  w->proxy = m::rpc::make_port_adapter(w->client, w->cmp.plan, w->gc, w->gj)(
      fn_port, w->cmp.root);
  return w;
}

/// The Java application's data: a PointVector of Points on a Java heap.
JRef make_point_vector(JHeap& heap, const Points& pts) {
  const JRef pv = heap.alloc("PointVector");
  heap.at(pv).elems.reserve(pts.size());
  for (const auto& [x, y] : pts) {
    const JRef p = heap.alloc("Point", 2);
    heap.at(p).fields[0] = JSlot::scalar(Value::real(x));
    heap.at(p).fields[1] = JSlot::scalar(Value::real(y));
    heap.at(pv).elems.push_back(JSlot::reference(p));
  }
  return pv;
}

Points draw_points(Rng& rng, bool tiny) {
  // Log-uniform count in [4, 4096]; coordinates on a 1/64 grid are exact
  // floats, so both paths see identical inputs.
  const double max = tiny ? 64 : 4096;
  const size_t n = static_cast<size_t>(
      std::floor(std::exp(std::log(4.0) + rng.unit() * (std::log(max + 1) - std::log(4.0)))));
  Points pts(std::max<size_t>(n, 4));
  for (auto& [x, y] : pts) {
    x = static_cast<float>(static_cast<int64_t>(rng.below(1 << 20)) - (1 << 19)) / 64.0f;
    y = static_cast<float>(static_cast<int64_t>(rng.below(1 << 20)) - (1 << 19)) / 64.0f;
  }
  return pts;
}

/// One stub call, recorded in `win` when the fitted line equals the
/// direct call's; returns whether it did.
bool call(World& w, const Points& pts, const std::array<float, 4>& expect,
          Window& win, bool spans) {
  JHeap jheap;
  const JRef pv = make_point_vector(jheap, pts);
  w.cheap = NativeHeap();  // the bridge's native memory, fresh per call
  mbird::stype::Annotations notnull;
  notnull.not_null = true;
  const uint64_t t0 = now_ns();
  std::optional<Value> reply;
  {
    std::optional<mbird::obs::Span> op;
    if (spans) op.emplace("bench.op");
    Value args;
    {
      std::optional<mbird::obs::Span> s;
      if (spans) s.emplace("jside.read");
      const mbird::runtime::JReader reader(w.j_mod, jheap);
      args = Value::record({reader.read(w.j_mod.find("PointVector"), notnull,
                                        JSlot::reference(pv))});
    }
    reply = mbird::rpc::call_function(w.client, w.proxy, w.gj, w.inv_j, args,
                                      {&w.client, &w.server});
  }
  const uint64_t t1 = now_ns();
  const Value& line = reply->at(0);
  const float got[4] = {static_cast<float>(line.at(0).at(0).as_real()),
                        static_cast<float>(line.at(0).at(1).as_real()),
                        static_cast<float>(line.at(1).at(0).as_real()),
                        static_cast<float>(line.at(1).at(1).as_real())};
  if (std::memcmp(got, expect.data(), sizeof got) != 0) return false;
  win.add(t0, t1, spans);
  return true;
}

void run_window(World& w, Rng& rng, const Options& o, double seconds,
                uint64_t max_ops, bool spans, Window& win, Result& r) {
  const double cpu0 = self_cpu_seconds();
  win.start = now_ns();
  const uint64_t end = win.start + static_cast<uint64_t>(seconds * 1e9);
  bool planted = o.plant_wrong;
  while (now_ns() < end && (max_ops == 0 || win.ops() < max_ops)) {
    const Points pts = draw_points(rng, o.tiny);
    std::array<float, 4> expect = fit_directly(pts);
    if (planted) {
      expect[0] += 1.0f;
      planted = false;
    }
    r.attempted++;
    bool ok = false;
    try {
      ok = call(w, pts, expect, win, spans);
    } catch (const mbird::MbError& e) {
      r.info["last_error"] = e.what();
    }
    if (!ok) r.fail();
  }
  win.end = now_ns();
  win.cpu_s = self_cpu_seconds() - cpu0;
}

}  // namespace

void run_stub_call(const Options& o, Result& r) {
  Rng rng = Rng::derive(o.seed, "stub_call.points");
  {
    InputHash h;
    Rng peek = rng;
    for (int i = 0; i < 64; ++i) {
      for (const auto& [x, y] : draw_points(peek, o.tiny)) {
        h.add_u64(static_cast<uint64_t>(static_cast<int64_t>(x * 64)));
        h.add_u64(static_cast<uint64_t>(static_cast<int64_t>(y * 64)));
      }
    }
    r.info["inputs_hash"] = h.hex();
  }

  // Set-up: parse, annotate, lower, compare, serve, build the proxy, and
  // the first call (which compiles the proxy programs), checked.
  std::vector<double> setups, parse_ms, lower_ms;
  std::unique_ptr<World> w;
  const Points first = {{0, 1}, {1, 3}, {2, 5}, {3, 7}};
  for (int s = 0; s < setup_count(o, 5); ++s) {
    w.reset();
    Window ignored;
    const uint64_t t0 = now_ns();
    w = set_up();
    const bool ok = call(*w, first, fit_directly(first), ignored, false);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    parse_ms.push_back(w->parse_ms);
    lower_ms.push_back(w->lower_ms);
    r.attempted++;
    if (!ok) r.fail();
  }

  Window win;
  if (!o.trace) {
    run_window(*w, rng, o, o.seconds, 0, false, win, r);
    report_end_to_end(r, win, setups, vm_hwm_mib(::getpid()));
    return;
  }

  run_window(*w, rng, o, half_seconds(o), 0, false, win, r);
  auto& tracer = mbird::obs::Tracer::global();
  const auto before = mbird::obs::Registry::global().snapshot();
  Window tw;
  const uint64_t a0 = alloc_count();
  count_allocs(true);
  mbird::obs::set_metrics_on(true);
  tracer.enable();
  const uint64_t window_t0 = now_ns();
  {
    mbird::obs::Span window("bench.window");
    run_window(*w, rng, o, half_seconds(o), kTracedOpCap, true, tw, r);
  }
  tracer.disable();
  mbird::obs::set_metrics_on(false);
  count_allocs(false);
  const uint64_t allocs = alloc_count() - a0;
  const auto after = mbird::obs::Registry::global().snapshot();
  const TraceSummary ts = summarize_trace(window_t0, tw.intervals);
  const double ops = static_cast<double>(std::max<uint64_t>(tw.ops(), 1));

  r.set("frontend.parse_ms", median(parse_ms), "ms");
  r.set("lower.lower_ms", median(lower_ms), "ms");
  r.set("mtype.graph_nodes", static_cast<double>(w->gc.size() + w->gj.size()),
        "count");
  auto hist = [&](const char* name) -> const mbird::obs::Registry::HistView* {
    auto it = after.histograms.find(name);
    return it == after.histograms.end() || it->second.count == 0 ? nullptr
                                                                 : &it->second;
  };
  if (const auto* h = hist("planvm.threaded.marshal_ns")) {
    r.set("runtime.fused_marshal_ns_p50", static_cast<double>(h->p50), "ns");
  } else {
    r.absent["runtime.fused_marshal_ns_p50"] =
        "no planvm.threaded.marshal_ns samples in the registry";
  }
  if (const auto* h = hist("planvm.convert_ns")) {
    r.set("runtime.convert_ns_p50", static_cast<double>(h->p50), "ns");
  } else {
    r.absent["runtime.convert_ns_p50"] = "no planvm.convert_ns samples in the registry";
  }
  if (const auto* h = hist("planvm.ops_per_run")) {
    r.set("runtime.ops_per_run",
          static_cast<double>(h->sum) / static_cast<double>(h->count), "count");
  } else {
    r.absent["runtime.ops_per_run"] = "no planvm.ops_per_run samples in the registry";
  }
  r.set("runtime.allocs_per_call", static_cast<double>(allocs) / ops, "count");
  auto span_p50 = [&](const char* name) {
    Samples s;
    if (auto it = ts.dur_us.find(name); it != ts.dur_us.end()) {
      for (double d : it->second) s.add(d);
    }
    return s.quantile(0.5);
  };
  r.set("jside.read_us", span_p50("jside.read"), "us");
  r.set("bridge.handler_us", span_p50("bridge.handler"), "us");
  auto per_op = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after, name)) / ops;
  };
  r.set("rpc.frames_per_op", per_op("rpc.frames_sent"), "count");
  r.set("rpc.acks_per_op", per_op("rpc.acks_sent"), "count");
  r.set("rpc.retransmits_per_kop", per_op("rpc.retransmits") * 1000, "count");
  r.set("rpc.duplicates_per_kop", per_op("rpc.duplicates_dropped") * 1000, "count");
  r.set("rpc.bytes_per_op", per_op("rpc.bytes_sent"), "B");
  r.set("rpc.chunks_per_op", per_op("rpc.chunks_sent"), "count");
  r.set("rpc.reassembled_per_op", per_op("rpc.messages_reassembled"), "count");
  const uint64_t acq = counter_delta(before, after, "wire.pool.acquired");
  const uint64_t reu = counter_delta(before, after, "wire.pool.reused");
  r.set("wire.pool_reuse_ratio",
        acq > 0 ? static_cast<double>(reu) / static_cast<double>(acq) : 0, "ratio");
  report_trace_overhead(r, win, tw);
  report_trace(r, ts, ops);
  mark_unmeasured_absent(r, "stub_call runs no daemon, compare or batch compile");
}

}  // namespace perfbench
