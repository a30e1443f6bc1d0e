// E5 "rpc roundtrip" — the §3.3 port model under three deployments:
//   convert-only   — the local stub: plan conversion, no transport
//   inproc         — network stub over the in-process transport
//   socketpair     — network stub over a real kernel byte stream
// plus the reliability sublayer under injected loss (0/1/10% drop): the
// lossy variant shows what ack/retransmit costs when frames vanish.
//
// Workload: the fitter invocation with n points. Expected shape: the
// conversion cost grows with n on all three; transport adds a per-message
// constant (syscalls dominate socketpair at small n); loss adds backoff
// stalls proportional to the drop rate.
#include <benchmark/benchmark.h>

#include "annotate/script.hpp"
#include "bridge/cbridge.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "runtime/convert.hpp"

namespace {

using namespace mbird;
using runtime::NativeHeap;
using runtime::Value;

struct World {
  stype::Module c{stype::Lang::C, ""};
  stype::Module java{stype::Lang::Java, ""};
  mtype::Graph gc, gj;
  mtype::Ref rc = mtype::kNullRef, rj = mtype::kNullRef;
  mtype::Ref inv_c = mtype::kNullRef, inv_j = mtype::kNullRef;
  mtype::Ref out_j = mtype::kNullRef;
  compare::Result inv_cmp;

  World() {
    DiagnosticEngine diags;
    c = cfront::parse_c(
        "typedef float point[2];\n"
        "void fitter(point pts[], int count, point *start, point *end);\n",
        "fitter.h", diags);
    java = javasrc::parse_java(
        "public class Point { private float x; private float y; }\n"
        "public class Line { private Point start; private Point end; }\n"
        "public class PointVector extends java.util.Vector;\n"
        "public interface JavaIdeal { Line fitter(PointVector pts); }\n",
        "App.java", diags);
    annotate::run_script(
        "annotate fitter.pts length param count;\n"
        "annotate fitter.start out;\nannotate fitter.end out;\n",
        "c.mba", c, diags);
    annotate::run_script(
        "annotate Line.start notnull noalias;\nannotate Line.end notnull noalias;\n"
        "annotate PointVector element Point notnull-elements;\n"
        "annotate JavaIdeal.fitter.pts notnull;\n"
        "annotate JavaIdeal.fitter.return notnull;\n",
        "j.mba", java, diags);
    rc = lower::lower_decl(c, gc, "fitter", diags);
    rj = lower::lower_decl(java, gj, "JavaIdeal.fitter", diags);
    inv_c = gc.at(rc).body();
    inv_j = gj.at(rj).body();
    out_j = gj.at(gj.at(inv_j).children[1]).body();
    inv_cmp = compare::compare(gj, inv_j, gc, inv_c, {});
    if (diags.has_errors() || !inv_cmp.ok) {
      fprintf(stderr, "setup failed\n");
      abort();
    }
  }
};

World& world() {
  static World w;
  return w;
}

void native_fitter(NativeHeap& heap, const std::vector<uint64_t>& slots) {
  uint64_t pts = slots[0], count = slots[1];
  float x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  if (count > 0) {
    x0 = heap.read_f32(pts);
    y0 = heap.read_f32(pts + 4);
    x1 = heap.read_f32(pts + (count - 1) * 8);
    y1 = heap.read_f32(pts + (count - 1) * 8 + 4);
  }
  heap.write_f32(slots[2], x0);
  heap.write_f32(slots[2] + 4, y0);
  heap.write_f32(slots[3], x1);
  heap.write_f32(slots[3] + 4, y1);
}

Value make_args(int n) {
  std::vector<Value> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(Value::record({Value::real(i), Value::real(2.0 * i)}));
  }
  return Value::record({Value::list(std::move(pts))});
}

void BM_ConvertOnly(benchmark::State& state) {
  World& w = world();
  int n = static_cast<int>(state.range(0));
  Value args = make_args(n);
  runtime::Converter conv(w.inv_cmp.plan);  // no transport, ports pass through
  Value invocation = Value::record({args, Value::port(1)});
  for (auto _ : state) {
    Value out = conv.apply(w.inv_cmp.root, invocation);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConvertOnly)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void roundtrip(benchmark::State& state, bool socket,
               const transport::FaultOptions& faults = {}) {
  World& w = world();
  int n = static_cast<int>(state.range(0));
  rpc::Node client(1), server(2);
  auto links = socket ? transport::make_socket_pair()
                      : transport::make_inproc_pair(faults);
  client.connect(2, std::move(links.first));
  server.connect(1, std::move(links.second));

  NativeHeap cheap;
  auto impl =
      bridge::wrap_c_function(w.c, w.c.find("fitter"), cheap, &native_fitter);
  uint64_t fn = rpc::serve_function(server, w.gc, w.inv_c, impl);

  Value args = make_args(n);
  runtime::Converter conv(
      w.inv_cmp.plan, rpc::make_port_adapter(client, w.inv_cmp.plan, w.gj, w.gc));

  // Registry deltas across the timed loop: every NodeStats field also feeds
  // a process-wide obs counter, so the reliability story (retransmits,
  // acks both ways, dedup drops under loss) lands in the bench JSON.
  const auto snap0 = obs::Registry::global().snapshot();

  for (auto _ : state) {
    std::optional<Value> reply;
    uint64_t reply_port = client.open_port(
        &w.gj, w.out_j, [&](const Value& v) { reply = v; }, true);
    Value inv = conv.apply(w.inv_cmp.root,
                           Value::record({args, Value::port(reply_port)}));
    client.send(fn, w.gc, w.inv_c, inv);
    while (!reply) {
      rpc::pump({&client, &server});
    }
    benchmark::DoNotOptimize(*reply);
  }

  const auto delta = obs::Registry::global().snapshot().delta_since(snap0);
  auto counter = [&](const char* name) -> double {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  state.counters["bytes_per_call"] =
      static_cast<double>(client.stats().bytes_sent + server.stats().bytes_sent) /
      static_cast<double>(state.iterations());
  state.counters["retransmits"] = counter("rpc.retransmits");
  state.counters["acks_sent"] = counter("rpc.acks_sent");
  state.counters["acks_received"] = counter("rpc.acks_received");
  state.counters["dedup_drops"] = counter("rpc.duplicates_dropped");
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_RoundtripInproc(benchmark::State& state) { roundtrip(state, false); }
BENCHMARK(BM_RoundtripInproc)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RoundtripSocketpair(benchmark::State& state) { roundtrip(state, true); }
BENCHMARK(BM_RoundtripSocketpair)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

// Throughput under loss: args are {n points, drop% }. 0% is the control;
// 1% and 10% exercise retransmission without hanging the harness (the
// reliability sublayer, not the benchmark loop, handles recovery).
void BM_RoundtripLossy(benchmark::State& state) {
  transport::FaultOptions f;
  f.drop_probability = static_cast<double>(state.range(1)) / 100.0;
  f.seed = 20260805;
  roundtrip(state, false, f);
}
BENCHMARK(BM_RoundtripLossy)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 10})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({1024, 10});

}  // namespace
