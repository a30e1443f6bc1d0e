#include <gtest/gtest.h>

#include <cstdlib>

#include "compare/compare.hpp"
#include "rpc/rpc.hpp"
#include "runtime/convert.hpp"
#include "runtime/layout.hpp"

namespace mbird::rpc {
namespace {

using mtype::Graph;
using mtype::Ref;
using runtime::Value;

TEST(Node, LocalPortDelivery) {
  Graph g;
  Ref msg = g.integer(0, 255);
  Node n(1);
  std::vector<Value> got;
  uint64_t p = n.open_port(&g, msg, [&](const Value& v) { got.push_back(v); });
  n.send(p, g, msg, Value::integer(7));
  n.send(p, g, msg, Value::integer(8));
  EXPECT_TRUE(got.empty());  // delivery happens on poll
  EXPECT_EQ(n.poll(), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], Value::integer(7));
}

TEST(Node, OncePortClosesAfterDelivery) {
  Graph g;
  Ref msg = g.unit();
  Node n(1);
  int hits = 0;
  uint64_t p = n.open_port(&g, msg, [&](const Value&) { ++hits; }, true);
  n.send(p, g, msg, Value::unit());
  n.send(p, g, msg, Value::unit());
  n.poll();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(n.stats().unknown_port_drops, 1u);
}

TEST(Node, RemoteDeliveryOverInProcLink) {
  Graph g;
  Ref msg = g.record({g.integer(0, 65535), g.real(24, 8)});
  Node a(1), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));

  std::vector<Value> got;
  uint64_t p = b.open_port(&g, msg, [&](const Value& v) { got.push_back(v); });
  Value v = Value::record({Value::integer(300), Value::real(1.5)});
  a.send(p, g, msg, v);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(a.stats().frames_sent, 1u);
  EXPECT_EQ(b.stats().frames_received, 1u);
}

TEST(Node, SendWithoutLinkThrows) {
  Graph g;
  Node a(1);
  EXPECT_THROW(
      a.send((static_cast<uint64_t>(9) << 48) | 1, g, g.unit(), Value::unit()),
      TransportError);
}

TEST(Node, DuplicateFramesSuppressed) {
  Graph g;
  Ref msg = g.unit();
  transport::FaultOptions f;
  f.duplicate_probability = 1.0;
  Node a(1), b(2);
  auto [la, lb] = transport::make_inproc_pair(f);
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  int hits = 0;
  uint64_t p = b.open_port(&g, msg, [&](const Value&) { ++hits; });
  a.send(p, g, msg, Value::unit());
  pump({&a, &b});
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(b.stats().duplicates_dropped, 1u);
}

// ---- function calls -----------------------------------------------------------

// f(int x) -> float : invocation = Record(Record(int), port(Record(real)))
Graph make_fn_graph(Ref& invocation) {
  Graph g;
  Ref in = g.record({g.integer(-1000, 1000)}, {"x"});
  Ref out = g.record({g.real(24, 8)}, {"return"});
  invocation = g.record({in, g.port(out)}, {"args", "reply"});
  return g;
}

TEST(Call, LocalFunction) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node n(1);
  uint64_t fn = serve_function(n, g, invocation, [](const Value& args) {
    return Value::record({Value::real(static_cast<double>(args.at(0).as_int()) * 2)});
  });
  Value reply = call_function(n, fn, g, invocation,
                              Value::record({Value::integer(21)}), {&n});
  EXPECT_EQ(reply, Value::record({Value::real(42)}));
}

TEST(Call, RemoteFunctionOverInProc) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  uint64_t fn = serve_function(server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(static_cast<double>(args.at(0).as_int()) + 0.5)});
  });
  Value reply = call_function(client, fn, g, invocation,
                              Value::record({Value::integer(5)}),
                              {&client, &server});
  EXPECT_EQ(reply, Value::record({Value::real(5.5)}));
}

TEST(Call, RemoteFunctionOverSocketpair) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node client(1), server(2);
  auto [lc, ls] = transport::make_socket_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  uint64_t fn = serve_function(server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(static_cast<double>(args.at(0).as_int()))});
  });
  Value reply = call_function(client, fn, g, invocation,
                              Value::record({Value::integer(-7)}),
                              {&client, &server});
  EXPECT_EQ(reply, Value::record({Value::real(-7)}));
}

TEST(Call, LossyLinkWithRetries) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  transport::FaultOptions f;
  f.drop_probability = 0.5;
  f.seed = 7;
  Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair(f);
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  uint64_t fn = serve_function(server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(1.0 * static_cast<double>(args.at(0).as_int()))});
  });
  CallOptions opts;
  opts.resend_every = 3;
  opts.max_rounds = 100000;
  Value reply = call_function(client, fn, g, invocation,
                              Value::record({Value::integer(9)}),
                              {&client, &server}, opts);
  EXPECT_EQ(reply, Value::record({Value::real(9)}));
}

TEST(Call, TimeoutThrows) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node client(1), server(2);
  transport::FaultOptions f;
  f.drop_probability = 1.0;
  auto [lc, ls] = transport::make_inproc_pair(f);
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));
  uint64_t fn = serve_function(server, g, invocation,
                               [](const Value&) { return Value::record({Value::real(0)}); });
  CallOptions opts;
  opts.max_rounds = 50;
  EXPECT_THROW(call_function(client, fn, g, invocation,
                             Value::record({Value::integer(1)}),
                             {&client, &server}, opts),
               TransportError);
}

// ---- objects -------------------------------------------------------------------

TEST(Call, ObjectWithTwoMethods) {
  Graph g;
  // add(int,int)->int ; neg(int)->int
  Ref add_in = g.record({g.integer(-1000, 1000), g.integer(-1000, 1000)});
  Ref add_out = g.record({g.integer(-2000, 2000)});
  Ref add_inv = g.record({add_in, g.port(add_out)});
  Ref neg_in = g.record({g.integer(-1000, 1000)});
  Ref neg_out = g.record({g.integer(-1000, 1000)});
  Ref neg_inv = g.record({neg_in, g.port(neg_out)});
  Ref choice = g.choice({add_inv, neg_inv}, {"add", "neg"});

  Node n(1);
  uint64_t obj = serve_object(
      n, g, choice,
      {[](const Value& a) {
         return Value::record({Value::integer(a.at(0).as_int() + a.at(1).as_int())});
       },
       [](const Value& a) {
         return Value::record({Value::integer(-a.at(0).as_int())});
       }});

  Value sum = call_method(n, obj, g, choice, 0,
                          Value::record({Value::integer(2), Value::integer(3)}),
                          {&n});
  EXPECT_EQ(sum, Value::record({Value::integer(5)}));
  Value neg = call_method(n, obj, g, choice, 1,
                          Value::record({Value::integer(9)}), {&n});
  EXPECT_EQ(neg, Value::record({Value::integer(-9)}));
}

// ---- converting proxies (PortMap adapters) ---------------------------------------

TEST(Adapter, CrossShapeCallThroughConvertingStub) {
  // Left (client) language: f(int x, real y) -> Record(real)
  // Right (server) language: g(real y, int x) -> Record(real)
  // The stub converts the invocation (permuting args) and wraps the reply
  // port contravariantly.
  Graph ga, gb;
  Ref a_in = ga.record({ga.integer(-100, 100), ga.real(24, 8)}, {"x", "y"});
  Ref a_out = ga.record({ga.real(24, 8)});
  Ref a_inv = ga.record({a_in, ga.port(a_out)});
  Ref b_in = gb.record({gb.real(24, 8), gb.integer(-100, 100)}, {"y", "x"});
  Ref b_out = gb.record({gb.real(24, 8)});
  Ref b_inv = gb.record({b_in, gb.port(b_out)});

  auto res = compare::compare(ga, a_inv, gb, b_inv, {});
  ASSERT_TRUE(res.ok) << res.mismatch.to_string();

  Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  // Server implements the b-shaped function.
  uint64_t fn_b = serve_function(server, gb, b_inv, [](const Value& args) {
    double y = args.at(0).as_real();
    Int128 x = args.at(1).as_int();
    return Value::record({Value::real(y * static_cast<double>(x))});
  });

  // Client-side converting stub: convert the a-shaped invocation to the
  // b shape (the reply port is proxied automatically) and send.
  runtime::Converter conv(res.plan,
                          make_port_adapter(client, res.plan, ga, gb));

  std::optional<Value> reply;
  uint64_t reply_port = client.open_port(
      &ga, a_out, [&](const Value& v) { reply = v; }, true);
  Value a_invocation = Value::record(
      {Value::record({Value::integer(6), Value::real(2.5)}),
       Value::port(reply_port)});
  Value b_invocation = conv.apply(res.root, a_invocation);

  client.send(fn_b, gb, b_inv, b_invocation);
  pump({&client, &server});

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, Value::record({Value::real(15.0)}));
}

TEST(Adapter, ProxyCallsLeaveNoPortsBehind) {
  // 300 calls through a converting proxy to a remote function. Each call
  // opens a once reply port, which the proxy wraps in a reply proxy; both
  // must close once the reply arrives, so the client's port count stays
  // flat. Under LeakSanitizer this also checks that the proxy's cached
  // engines, which wrap ports through the adapter, are freed with the node.
  Graph ga, gb;
  Ref a_in = ga.record({ga.integer(-100, 100), ga.real(24, 8)}, {"x", "y"});
  Ref a_inv = ga.record({a_in, ga.port(ga.record({ga.real(24, 8)}))});
  Ref b_in = gb.record({gb.real(24, 8), gb.integer(-100, 100)}, {"y", "x"});
  Ref b_inv = gb.record({b_in, gb.port(gb.record({gb.real(24, 8)}))});
  Ref a_fn = ga.port(a_inv);
  Ref b_fn = gb.port(b_inv);

  // The server's function port seen from the client: a PortMap whose
  // proxy accepts a-shaped invocations and forwards b-shaped wire bytes.
  auto res = compare::compare(gb, b_fn, ga, a_fn, {});
  ASSERT_TRUE(res.ok) << res.mismatch.to_string();
  ASSERT_EQ(res.plan.at(res.root).kind, plan::PKind::PortMap);

  Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));
  uint64_t fn_b = serve_function(server, gb, b_inv, [](const Value& args) {
    double y = args.at(0).as_real();
    Int128 x = args.at(1).as_int();
    return Value::record({Value::real(y * static_cast<double>(x))});
  });
  uint64_t proxy =
      make_port_adapter(client, res.plan, gb, ga)(fn_b, res.root);

  const size_t client_ports = client.open_port_count();
  const size_t server_ports = server.open_port_count();
  for (int i = 0; i < 300; ++i) {
    const int x = i % 200 - 100;
    Value reply = call_function(
        client, proxy, ga, a_inv,
        Value::record({Value::integer(x), Value::real(0.5)}),
        {&client, &server});
    ASSERT_EQ(reply, Value::record({Value::real(0.5 * x)})) << "call " << i;
  }
  EXPECT_EQ(client.open_port_count(), client_ports);
  EXPECT_EQ(server.open_port_count(), server_ports);
}

TEST(Call, RemoteObjectOverLink) {
  // An object port invoked from another node: port(Choice(m1, m2)) across
  // the wire, discriminated by arm.
  Graph g;
  Ref get_in = g.record({});
  Ref get_out = g.record({g.integer(-1000, 1000)});
  Ref get_inv = g.record({get_in, g.port(get_out)});
  Ref set_in = g.record({g.integer(-1000, 1000)});
  Ref set_out = g.record({});
  Ref set_inv = g.record({set_in, g.port(set_out)});
  Ref choice = g.choice({get_inv, set_inv}, {"get", "set"});

  Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  Int128 cell = 0;
  uint64_t obj = serve_object(
      server, g, choice,
      {[&cell](const Value&) { return Value::record({Value::integer(cell)}); },
       [&cell](const Value& a) {
         cell = a.at(0).as_int();
         return Value::record({});
       }});

  Value r1 = call_method(client, obj, g, choice, 1,
                         Value::record({Value::integer(77)}),
                         {&client, &server});
  EXPECT_EQ(r1, Value::record({}));
  Value r2 = call_method(client, obj, g, choice, 0, Value::record({}),
                         {&client, &server});
  EXPECT_EQ(r2, Value::record({Value::integer(77)}));
}

TEST(Pump, ReturnsZeroWhenIdle) {
  Node a(1), b(2);
  EXPECT_EQ(pump({&a, &b}), 0u);
}

// ---- zero-copy native stubs ---------------------------------------------------

// struct { uint8_t tag; uint16_t count; float ratio; } with natural C layout.
std::shared_ptr<const runtime::ImageLayout> tagged_layout() {
  using LK = runtime::ImageLayout::K;
  runtime::ImageLayout il;
  il.names = {""};
  il.nodes.resize(4);
  il.nodes[0].kind = LK::Record;
  il.nodes[0].kids_off = 0;
  il.nodes[0].kids_len = 3;
  il.kids = {1, 2, 3};
  il.nodes[1].kind = LK::UInt;
  il.nodes[1].offset = 0;
  il.nodes[1].width = 1;
  il.nodes[2].kind = LK::UInt;
  il.nodes[2].offset = 2;
  il.nodes[2].width = 2;
  il.nodes[3].kind = LK::F32;
  il.nodes[3].offset = 4;
  il.nodes[3].width = 4;
  il.size = 8;
  return std::make_shared<const runtime::ImageLayout>(std::move(il));
}

TEST(NativeStub, RemoteSendMatchesConvertedValue) {
  // Source: the struct above. Destination: the same fields shuffled by label
  // with count widened and ratio promoted to double, so the stub must both
  // reorder and convert while marshaling straight from heap bytes.
  Graph ga;
  Ref a = ga.record({ga.integer(0, 255), ga.integer(0, 65535), ga.real(24, 8)},
                    {"tag", "count", "ratio"});
  Graph gb;
  Ref b = gb.record({gb.real(53, 11), gb.integer(0, 100000), gb.integer(0, 255)},
                    {"ratio", "count", "tag"});
  auto full = compare::compare_full(ga, a, gb, b);
  ASSERT_EQ(full.verdict, compare::Verdict::LeftSubtype)
      << full.to_right.mismatch.to_string();

  Node client(1), server(2);
  auto [lc, ls] = transport::make_inproc_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));

  std::vector<Value> got;
  uint64_t p =
      server.open_port(&gb, b, [&](const Value& v) { got.push_back(v); });

  auto layout = tagged_layout();
  NativeStub stub(client, full.to_right.plan, full.to_right.root, gb, b,
                  layout);

  runtime::NativeHeap heap;
  uint64_t base = heap.alloc(8, 4);
  heap.write_uint(base + 0, 1, 7);
  heap.write_uint(base + 2, 2, 40000);
  heap.write_f32(base + 4, 1.5f);

  stub.send(p, heap, base);
  pump({&client, &server});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Value::record({Value::real(1.5), Value::integer(40000),
                                   Value::integer(7)}));

  // The fused bytes are exactly what encode(convert(read_image(...))) yields.
  runtime::Converter oracle(full.to_right.plan);
  Value onwire = oracle.apply(full.to_right.root,
                              runtime::read_image(*layout, 0, heap, base));
  EXPECT_EQ(stub.marshal(heap, base), wire::encode(gb, b, onwire));

  // Repeat sends recycle wire buffers through the node's pool.
  stub.send(p, heap, base);
  pump({&client, &server});
  EXPECT_EQ(got.size(), 2u);
  EXPECT_GT(client.buffer_pool().stats().reused, 0u);
}

TEST(NativeStub, LocalPortDecodesAgainstRegisteredType) {
  Graph g;
  Ref msg = g.record({g.integer(0, 255), g.integer(0, 65535), g.real(24, 8)},
                     {"tag", "count", "ratio"});
  auto full = compare::compare_full(g, msg, g, msg);
  ASSERT_EQ(full.verdict, compare::Verdict::Equivalent);

  Node n(1);
  std::vector<Value> got;
  uint64_t p = n.open_port(&g, msg, [&](const Value& v) { got.push_back(v); });

  NativeStub stub(n, full.to_right.plan, full.to_right.root, g, msg,
                  tagged_layout());
  runtime::NativeHeap heap;
  uint64_t base = heap.alloc(8, 4);
  heap.write_uint(base + 0, 1, 9);
  heap.write_uint(base + 2, 2, 512);
  heap.write_f32(base + 4, 0.25f);

  stub.send(p, heap, base);
  n.poll();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Value::record({Value::integer(9), Value::integer(512),
                                   Value::real(0.25)}));
}

TEST(NativeStub, BothTiersMatchOracleWire) {
  // Identity marshal (every field byte-representable without conversion):
  // eligible for the dlopen'd compiled stub as well as the engine. Each
  // tier's bytes must equal the oracle's (read_image, Converter,
  // wire::encode) and decode the same value.
  Graph g;
  Ref msg = g.record({g.integer(0, 255), g.integer(0, 65535), g.real(24, 8)},
                     {"tag", "count", "ratio"});
  auto full = compare::compare_full(g, msg, g, msg);
  ASSERT_EQ(full.verdict, compare::Verdict::Equivalent);
  auto layout = tagged_layout();

  runtime::NativeHeap heap;
  uint64_t base = heap.alloc(8, 4);
  heap.write_uint(base + 0, 1, 3);
  heap.write_uint(base + 2, 2, 777);
  heap.write_f32(base + 4, 2.25f);

  const std::vector<uint8_t> oracle = wire::encode(
      g, msg,
      runtime::Converter(full.to_right.plan)
          .apply(full.to_right.root,
                 runtime::read_image(*layout, 0, heap, base)));
  const bool cc = std::system("cc --version > /dev/null 2>&1") == 0;
  for (auto tier : {NativeStub::Tier::Threaded, NativeStub::Tier::Compiled}) {
    if (tier == NativeStub::Tier::Compiled && !cc) continue;
    const char* name =
        tier == NativeStub::Tier::Compiled ? "compiled" : "threaded";
    Node n(1);
    std::vector<Value> got;
    uint64_t p =
        n.open_port(&g, msg, [&](const Value& v) { got.push_back(v); });
    NativeStub stub(n, full.to_right.plan, full.to_right.root, g, msg, layout,
                    tier);
    EXPECT_EQ(stub.tier(), tier) << "requested " << name;
    EXPECT_EQ(stub.marshal(heap, base), oracle) << "tier " << name;
    stub.send(p, heap, base);
    n.poll();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], Value::record({Value::integer(3), Value::integer(777),
                                     Value::real(2.25)}));
  }
}

}  // namespace
}  // namespace mbird::rpc
