// Full-pipeline integration tests: parse both declarations, annotate,
// compare, and actually run conversions and calls across the language
// boundary — the complete Fig. 6 workflow on the paper's own example.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iostream>

#include "annotate/script.hpp"
#include "bridge/cbridge.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "idl/idlparser.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "rpc/rpc.hpp"
#include "runtime/conform.hpp"
#include "runtime/convert.hpp"
#include "runtime/cside.hpp"
#include "runtime/jside.hpp"
#include "support/rng.hpp"
#include "wire/wire.hpp"

// Defined in alloc_counter.cpp, beside the operator new they count.
void count_allocs(bool on);
uint64_t alloc_count();

namespace mbird {
namespace {

using runtime::JHeap;
using runtime::JRef;
using runtime::JSlot;
using runtime::NativeHeap;
using runtime::Value;
using stype::Module;

constexpr const char* kFitterC =
    "typedef float point[2];\n"
    "void fitter(point pts[], int count, point *start, point *end);\n";

constexpr const char* kFitterCScript =
    "annotate fitter.pts length param count;\n"
    "annotate fitter.start out;\n"
    "annotate fitter.end out;\n";

constexpr const char* kAppJava =
    "public class Point { private float x; private float y; }\n"
    "public class Line { private Point start; private Point end; }\n"
    "public class PointVector extends java.util.Vector;\n"
    "public interface JavaIdeal { Line fitter(PointVector pts); }\n";

constexpr const char* kAppJavaScript =
    "annotate Line.start notnull noalias;\n"
    "annotate Line.end notnull noalias;\n"
    "annotate PointVector element Point notnull-elements;\n"
    "annotate JavaIdeal.fitter.pts notnull;\n"
    "annotate JavaIdeal.fitter.return notnull;\n";

/// Least-squares line fit over the simulated native memory: the "existing
/// C code" of the paper's §2 example. Slots: pts (float[2]* base), count,
/// start (float[2]*), end (float[2]*).
void native_fitter(NativeHeap& heap, const std::vector<uint64_t>& slots) {
  uint64_t pts = slots[0];
  uint64_t count = slots[1];
  uint64_t start = slots[2];
  uint64_t end = slots[3];

  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  float min_x = 0, max_x = 0;
  for (uint64_t i = 0; i < count; ++i) {
    float x = heap.read_f32(pts + i * 8);
    float y = heap.read_f32(pts + i * 8 + 4);
    sx += x;
    sy += y;
    sxx += static_cast<double>(x) * x;
    sxy += static_cast<double>(x) * y;
    if (i == 0 || x < min_x) min_x = x;
    if (i == 0 || x > max_x) max_x = x;
  }
  double n = static_cast<double>(count);
  double denom = n * sxx - sx * sx;
  double b = denom != 0 ? (n * sxy - sx * sy) / denom : 0;
  double a = n != 0 ? (sy - b * sx) / n : 0;

  heap.write_f32(start, min_x);
  heap.write_f32(start + 4, static_cast<float>(a + b * min_x));
  heap.write_f32(end, max_x);
  heap.write_f32(end + 4, static_cast<float>(a + b * max_x));
}

struct FitterWorld {
  Module c_mod;
  Module java_mod;
  mtype::Graph gc, gj;
  mtype::Ref rc = mtype::kNullRef;  // C fitter invocation port
  mtype::Ref rj = mtype::kNullRef;  // Java fitter invocation port
  compare::FullResult cmp;

  FitterWorld()
      : c_mod(stype::Lang::C, "empty"), java_mod(stype::Lang::Java, "empty") {
    DiagnosticEngine diags;
    c_mod = cfront::parse_c(kFitterC, "fitter.h", diags);
    java_mod = javasrc::parse_java(kAppJava, "App.java", diags);
    annotate::run_script(kFitterCScript, "c.mba", c_mod, diags);
    annotate::run_script(kAppJavaScript, "j.mba", java_mod, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.summary();

    rc = lower::lower_decl(c_mod, gc, "fitter", diags);
    rj = lower::lower_decl(java_mod, gj, "JavaIdeal.fitter", diags);
    EXPECT_FALSE(diags.has_errors()) << diags.summary();

    cmp = compare::compare_full(gj, rj, gc, rc);
    EXPECT_EQ(cmp.verdict, compare::Verdict::Equivalent)
        << cmp.to_right.mismatch.to_string();

    // The stub converts *invocations* (the message type of the function
    // port), so the plan used at call time is the invocation-level one.
    inv_cmp = compare::compare(gj, inv_java(), gc, inv_c(), {});
    EXPECT_TRUE(inv_cmp.ok) << inv_cmp.mismatch.to_string();
  }

  /// The invocation message types (the child of each function port).
  [[nodiscard]] mtype::Ref inv_java() const { return gj.at(rj).body(); }
  [[nodiscard]] mtype::Ref inv_c() const { return gc.at(rc).body(); }

  compare::Result inv_cmp;
};

using Points = std::vector<std::pair<float, float>>;

/// A PointVector of Points on a Java heap, built the way application code
/// would build it.
JRef make_point_vector(JHeap& jheap, const Points& points) {
  JRef pv = jheap.alloc("PointVector");
  for (auto [x, y] : points) {
    JRef p = jheap.alloc("Point", 2);
    jheap.at(p).fields[0] = JSlot::scalar(Value::real(x));
    jheap.at(p).fields[1] = JSlot::scalar(Value::real(y));
    jheap.at(pv).elems.push_back(JSlot::reference(p));
  }
  return pv;
}

/// Build the Java-side argument record for fitter: a PointVector of points.
Value java_fitter_args(Module& java_mod, JHeap& jheap, const Points& points) {
  JRef pv = make_point_vector(jheap, points);
  // Read it out through the annotated declaration.
  runtime::JReader reader(java_mod, jheap);
  stype::Annotations use;
  use.not_null = true;
  Value pts = reader.read(java_mod.find("PointVector"), use,
                          JSlot::reference(pv));
  return Value::record({pts});
}

TEST(FitterIntegration, MtypesMatchPaperSection34) {
  FitterWorld w;
  // Both sides lower to port(Record(L, port(Record(Record(R,R),
  // Record(R,R))))) — checked structurally by the Equivalent verdict in the
  // fixture; here we pin the printed C form.
  std::string s = mtype::print(w.gc, w.rc);
  EXPECT_EQ(s,
            "port(Record(args:Record(pts:rec X0. Choice(nil:unit, "
            "cons:Record(head:Record(Real[24m8e], Real[24m8e]), tail:X0))), "
            "reply:port(Record(start:Record(Real[24m8e], Real[24m8e]), "
            "end:Record(Real[24m8e], Real[24m8e])))))");
}

TEST(FitterIntegration, LocalCallThroughStub) {
  FitterWorld w;

  // Server: the C function behind a port on node 2.
  rpc::Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  NativeHeap cheap;
  auto impl = bridge::wrap_c_function(w.c_mod, w.c_mod.find("fitter"), cheap,
                                      &native_fitter);
  uint64_t fn_port = rpc::serve_function(server, w.gc, w.inv_c(), impl);

  // Client: Java application data.
  JHeap jheap;
  Value j_args = java_fitter_args(w.java_mod, jheap,
                                  {{0, 1}, {1, 3}, {2, 5}, {3, 7}});
  ASSERT_TRUE(runtime::conforms(
      w.gj, w.gj.at(w.inv_java()).children[0], j_args))
      << runtime::conform_error(w.gj, w.gj.at(w.inv_java()).children[0], j_args);

  // The converting stub: open a Java-shaped reply port, convert the whole
  // invocation (reply port wrapped contravariantly), send to the C server.
  runtime::Converter conv(
      w.inv_cmp.plan,
      rpc::make_port_adapter(client, w.inv_cmp.plan, w.gj, w.gc));

  mtype::Ref j_out = w.gj.at(w.gj.at(w.inv_java()).children[1]).body();
  std::optional<Value> reply;
  uint64_t reply_port = client.open_port(
      &w.gj, j_out, [&](const Value& v) { reply = v; }, true);

  Value j_invocation = Value::record({j_args, Value::port(reply_port)});
  Value c_invocation = conv.apply(w.inv_cmp.root, j_invocation);
  ASSERT_TRUE(runtime::conforms(w.gc, w.inv_c(), c_invocation))
      << runtime::conform_error(w.gc, w.inv_c(), c_invocation);

  client.send(fn_port, w.gc, w.inv_c(), c_invocation);
  rpc::pump({&client, &server});

  ASSERT_TRUE(reply.has_value());
  // The Java-shaped reply: Record(return: Line) with Line = Record(start
  // Point, end Point). Points (0,1)..(3,7) are collinear: y = 1 + 2x.
  const Value& line = reply->at(0);
  ASSERT_EQ(line.kind(), Value::Kind::Record);
  const Value& start = line.at(0);
  const Value& end = line.at(1);
  EXPECT_FLOAT_EQ(static_cast<float>(start.at(0).as_real()), 0.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(start.at(1).as_real()), 1.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(end.at(0).as_real()), 3.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(end.at(1).as_real()), 7.0f);

  // And the result can be written back into the Java heap as a real Line.
  runtime::JWriter writer(w.java_mod, jheap);
  stype::Annotations notnull;
  notnull.not_null = true;
  JSlot line_slot = writer.write(w.java_mod.find("Line"), notnull, line);
  EXPECT_TRUE(line_slot.is_ref);
  EXPECT_EQ(jheap.at(line_slot.ref).cls, "Line");
}

TEST(FitterIntegration, RemoteCallOverSocketpair) {
  FitterWorld w;
  rpc::Node client(1), server(2);
  auto [lc, ls] = transport::make_socket_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  NativeHeap cheap;
  auto impl = bridge::wrap_c_function(w.c_mod, w.c_mod.find("fitter"), cheap,
                                      &native_fitter);
  uint64_t fn_port = rpc::serve_function(server, w.gc, w.inv_c(), impl);

  JHeap jheap;
  Value j_args = java_fitter_args(w.java_mod, jheap, {{0, 0}, {4, 8}});

  runtime::Converter conv(
      w.inv_cmp.plan,
      rpc::make_port_adapter(client, w.inv_cmp.plan, w.gj, w.gc));
  mtype::Ref j_out = w.gj.at(w.gj.at(w.inv_java()).children[1]).body();
  std::optional<Value> reply;
  uint64_t reply_port = client.open_port(
      &w.gj, j_out, [&](const Value& v) { reply = v; }, true);
  Value c_invocation = conv.apply(
      w.inv_cmp.root, Value::record({j_args, Value::port(reply_port)}));
  client.send(fn_port, w.gc, w.inv_c(), c_invocation);
  rpc::pump({&client, &server});

  ASSERT_TRUE(reply.has_value());
  const Value& line = reply->at(0);
  EXPECT_FLOAT_EQ(static_cast<float>(line.at(1).at(1).as_real()), 8.0f);
}

TEST(FitterIntegration, EmptyPointVector) {
  FitterWorld w;
  rpc::Node node(1);
  NativeHeap cheap;
  auto impl = bridge::wrap_c_function(w.c_mod, w.c_mod.find("fitter"), cheap,
                                      &native_fitter);
  uint64_t fn_port = rpc::serve_function(node, w.gc, w.inv_c(), impl);

  JHeap jheap;
  Value j_args = java_fitter_args(w.java_mod, jheap, {});
  runtime::Converter conv(
      w.inv_cmp.plan,
      rpc::make_port_adapter(node, w.inv_cmp.plan, w.gj, w.gc));
  mtype::Ref j_out = w.gj.at(w.gj.at(w.inv_java()).children[1]).body();
  std::optional<Value> reply;
  uint64_t reply_port = node.open_port(
      &w.gj, j_out, [&](const Value& v) { reply = v; }, true);
  Value c_inv = conv.apply(w.inv_cmp.root,
                           Value::record({j_args, Value::port(reply_port)}));
  node.send(fn_port, w.gc, w.inv_c(), c_inv);
  rpc::pump({&node});
  ASSERT_TRUE(reply.has_value());  // degenerate fit, but a Line came back
}

TEST(FitterIntegration, IdlTriangle) {
  // Fig. 3(b): the CFriendly IDL matches the C function; the same stubs
  // then serve CORBA-style interop.
  FitterWorld w;
  DiagnosticEngine diags;
  Module idl = idl::parse_idl(
      "interface CFriendly {\n"
      "  typedef float Point[2];\n"
      "  typedef sequence<Point> pointseq;\n"
      "  void fitter(in pointseq pts, in long count,\n"
      "              out Point start, out Point end);\n"
      "};\n",
      "cfriendly.idl", diags);
  annotate::run_script("annotate CFriendly.fitter.pts length param count;\n",
                       "i.mba", idl, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.summary();

  mtype::Graph gi;
  mtype::Ref ri = lower::lower_decl(idl, gi, "CFriendly.fitter", diags);
  ASSERT_FALSE(diags.has_errors()) << diags.summary();

  auto idl_c = compare::compare(gi, ri, w.gc, w.rc, {});
  EXPECT_TRUE(idl_c.ok) << idl_c.mismatch.to_string();
  auto java_idl = compare::compare(w.gj, w.rj, gi, ri, {});
  EXPECT_TRUE(java_idl.ok) << java_idl.mismatch.to_string();
}

TEST(FitterIntegration, WireRoundtripOfInvocation) {
  FitterWorld w;
  JHeap jheap;
  Value j_args = java_fitter_args(w.java_mod, jheap, {{1, 2}, {3, 4}});
  Value invocation = Value::record({j_args, Value::port(42)});
  auto bytes = wire::encode(w.gj, w.inv_java(), invocation);
  Value back = wire::decode(w.gj, w.inv_java(), bytes);
  EXPECT_EQ(back, invocation);
  // Range-aware encoding: 2 points cost 4(list len) + 2*8(floats) bytes,
  // plus the reply port (8).
  EXPECT_EQ(bytes.size(), 4u + 16u + 8u);
}

TEST(FitterIntegration, SubtypeSubstitution) {
  // A Java declaration with a *narrower* range still converts one way.
  DiagnosticEngine diags;
  Module narrow = javasrc::parse_java("class N { int x; }", "N.java", diags);
  Module wide = javasrc::parse_java("class W { long x; }", "W.java", diags);
  mtype::Graph gn, gw;
  mtype::Ref rn = lower::lower_decl(narrow, gn, "N", diags);
  mtype::Ref rw = lower::lower_decl(wide, gw, "W", diags);
  auto full = compare::compare_full(gn, rn, gw, rw);
  ASSERT_EQ(full.verdict, compare::Verdict::LeftSubtype);

  runtime::Converter conv(full.to_right.plan);
  Value out = conv.apply(full.to_right.root,
                         Value::record({Value::integer(123456)}));
  EXPECT_EQ(out, Value::record({Value::integer(123456)}));
}

TEST(FitterIntegration, BridgeReleasesNativeMemoryEachCall) {
  // A long-lived served function must not grow its heap by every argument
  // it receives: each call's argument and out-buffers are released once
  // its reply has been read.
  FitterWorld w;
  NativeHeap cheap;
  auto impl = bridge::wrap_c_function(w.c_mod, w.c_mod.find("fitter"), cheap,
                                      &native_fitter);
  std::vector<Value> pts;
  for (int i = 0; i < 1024; ++i) {
    pts.push_back(Value::record({Value::real(i), Value::real(2 * i + 1)}));
  }
  const Value args = Value::record({Value::list(std::move(pts))});
  const uint64_t before = cheap.size();
  for (int call = 0; call < 1000; ++call) {
    Value reply = impl(args);
    ASSERT_EQ(reply.at(1).at(1).as_real(), 2047.0) << "call " << call;
  }
  EXPECT_EQ(cheap.size(), before)
      << "1000 calls grew the heap by " << cheap.size() - before << " bytes";
}

// ---- the in-process stub path ---------------------------------------------------
//
// The chain the stub_call benchmark runs: the Java side reads a PointVector
// with JReader and calls the C fitter through the proxy make_port_adapter
// returns for the function's port, over a socketpair, and wrap_c_function
// serves the call.

/// `n` points on a 1/64 grid: exact floats, so the stub and the direct call
/// see identical inputs.
Points grid_points(size_t n, uint64_t seed) {
  Rng rng(seed);
  Points pts(n);
  for (auto& [x, y] : pts) {
    x = static_cast<float>(rng.range(-(1 << 19), (1 << 19) - 1)) / 64.0f;
    y = static_cast<float>(rng.range(-(1 << 19), (1 << 19) - 1)) / 64.0f;
  }
  return pts;
}

/// The oracle: the native fitter called directly on the same points.
std::array<float, 4> fit_directly(const Points& pts) {
  NativeHeap heap;
  uint64_t buf = heap.alloc(std::max<uint64_t>(pts.size(), 1) * 8, 4);
  for (size_t i = 0; i < pts.size(); ++i) {
    heap.write_f32(buf + i * 8, pts[i].first);
    heap.write_f32(buf + i * 8 + 4, pts[i].second);
  }
  uint64_t start = heap.alloc(8, 4), end = heap.alloc(8, 4);
  native_fitter(heap, {buf, pts.size(), start, end});
  return {heap.read_f32(start), heap.read_f32(start + 4), heap.read_f32(end),
          heap.read_f32(end + 4)};
}

struct StubPath {
  FitterWorld w;
  compare::Result port_cmp;  // C fitter port -> Java fitter port
  rpc::Node client{1}, server{2};
  NativeHeap cheap;
  uint64_t proxy = 0;

  StubPath() {
    port_cmp = compare::compare(w.gc, w.rc, w.gj, w.rj, {});
    EXPECT_TRUE(port_cmp.ok) << port_cmp.mismatch.to_string();
    auto [lc, ls] = transport::make_socket_pair();
    client.connect(2, std::move(lc));
    server.connect(1, std::move(ls));
    uint64_t fn_port = rpc::serve_function(
        server, w.gc, w.inv_c(),
        bridge::wrap_c_function(w.c_mod, w.c_mod.find("fitter"), cheap,
                                &native_fitter));
    proxy = rpc::make_port_adapter(client, port_cmp.plan, w.gc, w.gj)(
        fn_port, port_cmp.root);
  }

  /// One call as the benchmark makes it: the JReader read of the points,
  /// then call_function on the proxy.
  Value call(const JHeap& jheap, JRef pv) {
    runtime::JReader reader(w.java_mod, jheap);
    stype::Annotations notnull;
    notnull.not_null = true;
    Value args = Value::record({reader.read(w.java_mod.find("PointVector"),
                                            notnull, JSlot::reference(pv))});
    return rpc::call_function(client, proxy, w.gj, w.inv_java(), args,
                              {&client, &server});
  }
};

TEST(StubPath, LinesMatchTheNativeFitterBitForBit) {
  StubPath s;
  const size_t client_ports = s.client.open_port_count();
  const size_t server_ports = s.server.open_port_count();
  for (size_t n : {0, 1, 4, 1000, 4096}) {
    Points pts = grid_points(n, 1000 + n);
    JHeap jheap;
    JRef pv = make_point_vector(jheap, pts);
    Value reply = s.call(jheap, pv);
    const Value& line = reply.at(0);
    const std::array<float, 4> got = {
        static_cast<float>(line.at(0).at(0).as_real()),
        static_cast<float>(line.at(0).at(1).as_real()),
        static_cast<float>(line.at(1).at(0).as_real()),
        static_cast<float>(line.at(1).at(1).as_real())};
    const std::array<float, 4> expect = fit_directly(pts);
    EXPECT_EQ(std::memcmp(got.data(), expect.data(), sizeof got), 0)
        << n << " points: got (" << got[0] << ", " << got[1] << ") - ("
        << got[2] << ", " << got[3] << "), expected (" << expect[0] << ", "
        << expect[1] << ") - (" << expect[2] << ", " << expect[3] << ")";
  }
  EXPECT_EQ(s.client.open_port_count(), client_ports);
  EXPECT_EQ(s.server.open_port_count(), server_ports);
}

TEST(StubPath, AllocationsPerPointStayBounded) {
  // Everything a call settles from the declarations is settled once per
  // call; what a point still costs is the Values that carry it. Counted
  // from the JReader read through the return of call_function.
  StubPath s;
  auto count_call = [&s](size_t n) {
    Points pts = grid_points(n, n);
    JHeap jheap;
    JRef pv = make_point_vector(jheap, pts);
    const uint64_t before = alloc_count();
    count_allocs(true);
    Value reply = s.call(jheap, pv);
    count_allocs(false);
    return alloc_count() - before;
  };
  // The first call compiles the proxy programs, and the largest sizes the
  // pooled buffers that later calls reuse.
  count_call(4096);
  const uint64_t at_1024 = count_call(1024);
  const uint64_t at_4096 = count_call(4096);
  const double per_point = static_cast<double>(at_4096 - at_1024) / 3072.0;
  std::cout << "[ allocs   ] 1024 points: " << at_1024
            << ", 4096 points: " << at_4096 << ", per point: " << per_point
            << "\n";
  EXPECT_LE(per_point, 5.0);
}

}  // namespace
}  // namespace mbird
