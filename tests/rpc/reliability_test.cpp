// The ack/retransmit sublayer under injected faults: RPC round-trips must
// survive aggressive drop/duplicate/reorder rates, dedup state must stay
// O(window) under sustained traffic, and exhausted retries must surface as
// a typed timeout instead of a livelocked pump. Over stream sockets the
// sublayer is skipped, unless the peer sends sequenced frames.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mtype/mtype.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "transport/socket.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {
namespace {

using mtype::Graph;
using mtype::Ref;
using runtime::Value;

// f(int x) -> float : invocation = Record(Record(int), port(Record(real)))
Graph make_fn_graph(Ref& invocation) {
  Graph g;
  Ref in = g.record({g.integer(-100000, 100000)}, {"x"});
  Ref out = g.record({g.real(24, 8)}, {"return"});
  invocation = g.record({in, g.port(out)}, {"args", "reply"});
  return g;
}

/// Records every frame sent through a link, then forwards it.
class FrameLog : public transport::Link {
 public:
  FrameLog(std::unique_ptr<transport::Link> inner,
           std::vector<std::vector<uint8_t>>* frames)
      : inner_(std::move(inner)), frames_(frames) {}
  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    std::vector<uint8_t> frame(head.begin(), head.end());
    frame.insert(frame.end(), body.begin(), body.end());
    frames_->push_back(std::move(frame));
    inner_->send(head, body);
  }
  std::optional<std::vector<uint8_t>> poll() override { return inner_->poll(); }
  bool reliable() const override { return inner_->reliable(); }
  size_t held_bytes() const override { return inner_->held_bytes(); }

 private:
  std::unique_ptr<transport::Link> inner_;
  std::vector<std::vector<uint8_t>>* frames_;
};

struct Pair {
  Node client{1};
  Node server{2};
  Pair(const transport::FaultOptions& faults, ReliabilityOptions relopts = {})
      : client(1, relopts), server(2, relopts) {
    auto [lc, ls] = transport::make_inproc_pair(faults);
    client.connect(2, std::move(lc));
    server.connect(1, std::move(ls));
  }
};

TEST(Reliability, ThousandCallsSurviveDropDupReorder) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  transport::FaultOptions f;
  f.drop_probability = 0.1;
  f.duplicate_probability = 0.05;
  f.reorder_probability = 0.05;
  f.seed = 20260805;
  Pair p(f);
  uint64_t fn = serve_function(p.server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(2.0 * static_cast<double>(args.at(0).as_int()))});
  });
  for (int i = 0; i < 1000; ++i) {
    Value reply = call_function(p.client, fn, g, invocation,
                                Value::record({Value::integer(i)}),
                                {&p.client, &p.server});
    ASSERT_EQ(reply, Value::record({Value::real(2.0 * i)})) << "call " << i;
  }
  // At a 10% drop rate the sublayer must actually have worked for a living.
  EXPECT_GT(p.client.stats().retransmits + p.server.stats().retransmits, 0u);
  EXPECT_GT(p.client.stats().acks_received, 0u);
  EXPECT_GT(p.server.stats().acks_sent, 0u);
  EXPECT_EQ(p.client.stats().timed_out_calls, 0u);
}

TEST(Reliability, FullLossYieldsTypedTimeoutAndBoundedPump) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  transport::FaultOptions f;
  f.drop_probability = 1.0;
  Pair p(f);
  uint64_t fn = serve_function(p.server, g, invocation, [](const Value&) {
    return Value::record({Value::real(0)});
  });
  EXPECT_THROW(call_function(p.client, fn, g, invocation,
                             Value::record({Value::integer(1)}),
                             {&p.client, &p.server}),
               CallTimeoutError);
  EXPECT_EQ(p.client.stats().timed_out_calls, 1u);
  EXPECT_GT(p.client.stats().frames_expired, 0u);
  // After the retries expire nothing is pending: pump must terminate well
  // inside its budget rather than spinning to the cap.
  PumpResult r = pump({&p.client, &p.server}, 10000);
  EXPECT_FALSE(r.hit_round_budget);
  EXPECT_FALSE(p.client.has_pending());
}

TEST(Reliability, TimeoutRespectsDeadlineWhileRetriesInFlight) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  transport::FaultOptions f;
  f.drop_probability = 1.0;
  Pair p(f);
  uint64_t fn = serve_function(p.server, g, invocation, [](const Value&) {
    return Value::record({Value::real(0)});
  });
  CallOptions opts;
  opts.max_rounds = 20;  // expires before the retransmit schedule does
  EXPECT_THROW(call_function(p.client, fn, g, invocation,
                             Value::record({Value::integer(1)}),
                             {&p.client, &p.server}, opts),
               CallTimeoutError);
}

TEST(Reliability, DedupStateBoundedAcross100kFrames) {
  Graph g;
  Ref msg = g.integer(0, 1 << 20);
  transport::FaultOptions f;
  f.duplicate_probability = 0.05;
  f.reorder_probability = 0.05;
  f.drop_probability = 0.01;
  f.seed = 99;
  ReliabilityOptions relopts;
  Pair p(f, relopts);
  uint64_t hits = 0;
  uint64_t port = p.server.open_port(&g, msg, [&](const Value&) { ++hits; });
  constexpr uint64_t kFrames = 100000;
  for (uint64_t i = 0; i < kFrames; ++i) {
    p.client.send(port, g, msg, Value::integer(static_cast<Int128>(i)));
    // Interleave delivery so the send-window backlog stays small; the
    // property under test is the receiver's dedup state, which must stay
    // bounded no matter how much traffic has passed.
    if (i % 64 == 0) {
      p.client.poll();
      p.server.poll();
    }
  }
  pump({&p.client, &p.server});
  EXPECT_EQ(hits, kFrames);  // at-least-once + dedup = exactly-once here
  EXPECT_LE(p.server.stats().max_dedup_window, relopts.dedup_window);
  EXPECT_LE(p.server.dedup_entries(), relopts.dedup_window);
  EXPECT_LE(p.client.stats().max_inflight, relopts.send_window);
  EXPECT_EQ(p.server.stats().frames_received, kFrames);
}

TEST(Reliability, BurstBeyondSendWindowAllDelivered) {
  Graph g;
  Ref msg = g.integer(0, 1 << 16);
  ReliabilityOptions relopts;
  relopts.send_window = 8;
  Pair p({}, relopts);
  int hits = 0;
  uint64_t port = p.server.open_port(&g, msg, [&](const Value&) { ++hits; });
  for (int i = 0; i < 100; ++i) {
    p.client.send(port, g, msg, Value::integer(i));
  }
  EXPECT_TRUE(p.client.has_pending());
  pump({&p.client, &p.server});
  EXPECT_EQ(hits, 100);
  EXPECT_LE(p.client.stats().max_inflight, 8u);
  EXPECT_FALSE(p.client.has_pending());
}

TEST(Reliability, RoundTripsOverRealSocketpair) {
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node client(1), server(2);
  auto [lc, ls] = transport::make_socket_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));
  uint64_t fn = serve_function(server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(static_cast<double>(args.at(0).as_int()) + 1)});
  });
  for (int i = 0; i < 200; ++i) {
    Value reply = call_function(client, fn, g, invocation,
                                Value::record({Value::integer(i)}),
                                {&client, &server});
    ASSERT_EQ(reply, Value::record({Value::real(i + 1.0)})) << "call " << i;
  }
  EXPECT_EQ(client.stats().timed_out_calls, 0u);
}

TEST(Reliability, SocketpairChannelsSendUnsequencedFramesOnly) {
  // A stream socket already delivers every frame once and in order: the
  // channels over it send seq-0 frames and never ack, dedup or retransmit.
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node client(1), server(2);
  auto [lc, ls] = transport::make_socket_pair();
  std::vector<std::vector<uint8_t>> wire_frames;
  client.connect(2, std::make_shared<FrameLog>(std::move(lc), &wire_frames));
  server.connect(1, std::make_shared<FrameLog>(std::move(ls), &wire_frames));
  uint64_t fn = serve_function(server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(static_cast<double>(args.at(0).as_int()) * 3)});
  });
  for (int i = 0; i < 200; ++i) {
    Value reply = call_function(client, fn, g, invocation,
                                Value::record({Value::integer(i)}),
                                {&client, &server});
    ASSERT_EQ(reply, Value::record({Value::real(3.0 * i)})) << "call " << i;
  }
  for (const Node* n : {&client, &server}) {
    EXPECT_EQ(n->stats().acks_sent, 0u);
    EXPECT_EQ(n->stats().acks_received, 0u);
    EXPECT_EQ(n->stats().retransmits, 0u);
    EXPECT_EQ(n->stats().duplicates_dropped, 0u);
    EXPECT_EQ(n->stats().max_inflight, 0u);
    EXPECT_FALSE(n->has_pending());
    EXPECT_FALSE(n->needs_tick());
  }
  ASSERT_EQ(wire_frames.size(), 400u);  // one request and one reply per call
  for (const auto& frame : wire_frames) {
    const wire::FrameView f = wire::view_frame(frame.data(), frame.size());
    EXPECT_EQ(f.kind, wire::FrameKind::Data);
    EXPECT_EQ(f.seq, 0u);
    EXPECT_EQ(f.cum_ack, 0u);
  }
}

TEST(Reliability, EightMiBEchoOverSocketpairCompletes) {
  // The request's tail waits in the client's link for socket space while
  // no reply can arrive yet; has_pending() must count those held bytes, or
  // call_function would take the quiet rounds for an idle channel and
  // give up.
  Graph g;
  Ref blob = g.record({g.list_of(g.character(stype::Repertoire::Latin1))},
                      {"payload"});
  Ref invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  Node client(1), server(2);
  auto [lc, ls] = transport::make_socket_pair();
  client.connect(2, std::move(lc));
  server.connect(1, std::move(ls));
  uint64_t echo = serve_function(server, g, invocation,
                                 [](const Value& args) { return args; });
  std::string text(8u << 20, '\0');
  for (size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>(i * 7 + (i >> 13));
  }
  const Value args = Value::record({Value::string(text)});
  Value reply = call_function(client, echo, g, invocation, args,
                              {&client, &server});
  const auto chars = reply.at(0).packed_chars();
  ASSERT_TRUE(chars.has_value());
  EXPECT_TRUE(*chars == text);
  EXPECT_EQ(client.stats().timed_out_calls, 0u);
  EXPECT_EQ(server.stats().messages_reassembled, 1u);
  EXPECT_EQ(client.stats().messages_reassembled, 1u);
  EXPECT_EQ(client.reassembly_bytes() + server.reassembly_bytes(), 0u);
}

TEST(Reliability, LossyClientLatchesPlainSocketServerIntoSequencing) {
  // Only the client's end is lossy (10% of frames dropped each way). Its
  // channel numbers its frames, so the server's channel, over a plain
  // socket, latches sequenced on the first one: it acks the client and
  // retransmits the replies the client's side drops.
  Ref invocation;
  Graph g = make_fn_graph(invocation);
  Node client(1), server(2);
  auto [lc, ls] = transport::make_socket_pair();
  transport::FaultOptions f;
  f.drop_probability = 0.1;
  f.seed = 20261017;
  client.connect(2, transport::make_lossy(std::move(lc), f));
  server.connect(1, std::move(ls));
  uint64_t fn = serve_function(server, g, invocation, [](const Value& args) {
    return Value::record({Value::real(static_cast<double>(args.at(0).as_int()) - 1)});
  });
  for (int i = 0; i < 200; ++i) {
    Value reply = call_function(client, fn, g, invocation,
                                Value::record({Value::integer(i)}),
                                {&client, &server});
    ASSERT_EQ(reply, Value::record({Value::real(i - 1.0)})) << "call " << i;
  }
  EXPECT_GT(server.stats().acks_sent, 0u);
  EXPECT_GT(server.stats().retransmits, 0u);
  EXPECT_GT(client.stats().retransmits, 0u);
  EXPECT_EQ(client.stats().timed_out_calls, 0u);
}

TEST(Reliability, MethodCallTimeoutIsTyped) {
  Graph g;
  Ref in = g.record({g.integer(0, 10)});
  Ref out = g.record({g.integer(0, 10)});
  Ref inv = g.record({in, g.port(out)});
  Ref choice = g.choice({inv}, {"echo"});
  transport::FaultOptions f;
  f.drop_probability = 1.0;
  Pair p(f);
  uint64_t obj = serve_object(p.server, g, choice,
                              {[](const Value& a) { return a; }});
  EXPECT_THROW(call_method(p.client, obj, g, choice, 0,
                           Value::record({Value::integer(1)}),
                           {&p.client, &p.server}),
               CallTimeoutError);
  EXPECT_EQ(p.client.stats().timed_out_calls, 1u);
}

TEST(Reliability, RegistryCountsEachNodeEventOnce) {
  // NodeStats and the registry are two views of one count: over a lossy
  // chunked exchange every rpc.* counter moves by exactly the two nodes'
  // deltas, and every high-water gauge covers both nodes' marks. The
  // names are the ones perfbench, `mbird top` and the batch report read.
  const auto before = obs::Registry::global().snapshot();
  transport::FaultOptions f;
  f.drop_probability = 0.1;
  f.duplicate_probability = 0.1;
  f.reorder_probability = 0.05;
  f.seed = 20261017;
  ReliabilityOptions relopts;
  relopts.max_frame_payload = 256;
  Pair p(f, relopts);
  Graph g;
  Ref msg = g.list_of(g.integer(0, 255));
  std::vector<Value> elems;
  for (int i = 0; i < 4096; ++i) elems.push_back(Value::integer(i % 256));
  const Value big = Value::list(std::move(elems));
  int hits = 0;
  uint64_t port = p.server.open_port(&g, msg, [&](const Value& v) {
    EXPECT_EQ(v, big);
    ++hits;
  });
  for (int i = 0; i < 4; ++i) p.client.send(port, g, msg, big);
  pump({&p.client, &p.server});
  ASSERT_EQ(hits, 4);
  EXPECT_GT(p.client.stats().retransmits, 0u);
  EXPECT_GT(p.server.stats().duplicates_dropped, 0u);
  EXPECT_GT(p.client.stats().chunks_sent, 0u);

  const auto moved = obs::Registry::global().snapshot().delta_since(before);
  const std::pair<const char*, obs::Count NodeStats::*> counts[] = {
      {"rpc.frames_sent", &NodeStats::frames_sent},
      {"rpc.frames_received", &NodeStats::frames_received},
      {"rpc.bytes_sent", &NodeStats::bytes_sent},
      {"rpc.local_deliveries", &NodeStats::local_deliveries},
      {"rpc.duplicates_dropped", &NodeStats::duplicates_dropped},
      {"rpc.unknown_port_drops", &NodeStats::unknown_port_drops},
      {"rpc.retransmits", &NodeStats::retransmits},
      {"rpc.acks_sent", &NodeStats::acks_sent},
      {"rpc.acks_received", &NodeStats::acks_received},
      {"rpc.frames_expired", &NodeStats::frames_expired},
      {"rpc.timed_out_calls", &NodeStats::timed_out_calls},
      {"rpc.chunks_sent", &NodeStats::chunks_sent},
      {"rpc.chunks_received", &NodeStats::chunks_received},
      {"rpc.messages_chunked", &NodeStats::messages_chunked},
      {"rpc.messages_reassembled", &NodeStats::messages_reassembled},
      {"rpc.chunk_aborts", &NodeStats::chunk_aborts},
      {"rpc.decode_faults", &NodeStats::decode_faults},
  };
  for (const auto& [name, field] : counts) {
    auto it = moved.counters.find(name);
    const uint64_t reg = it == moved.counters.end() ? 0 : it->second;
    EXPECT_EQ(reg, (p.client.stats().*field).value() +
                       (p.server.stats().*field).value())
        << name;
  }
  const std::pair<const char*, obs::HighWater NodeStats::*> marks[] = {
      {"rpc.max_inflight", &NodeStats::max_inflight},
      {"rpc.max_dedup_window", &NodeStats::max_dedup_window},
      {"rpc.peer.send_queue_depth", &NodeStats::max_queue_depth},
  };
  for (const auto& [name, field] : marks) {
    const int64_t reg = obs::gauge(name).value();
    for (const Node* n : {&p.client, &p.server}) {
      EXPECT_GE(reg, static_cast<int64_t>((n->stats().*field).value()))
          << name;
    }
  }
}

TEST(Pump, LivelockedHandlerHitsRoundBudget) {
  Graph g;
  Ref msg = g.unit();
  Node n(1);
  // A port that re-sends to itself forever: every round processes one
  // message, so quiescence never arrives and only the budget stops pump.
  uint64_t port = 0;
  port = n.open_port(&g, msg, [&](const Value&) {
    n.send(port, g, msg, Value::unit());
  });
  n.send(port, g, msg, Value::unit());
  PumpResult r = pump({&n}, 50);
  EXPECT_TRUE(r.hit_round_budget);
  EXPECT_EQ(r.rounds, 50u);
  EXPECT_EQ(r.processed, 50u);
}

TEST(Pump, ReportsRoundsToQuiescence) {
  Node a(1), b(2);
  PumpResult r = pump({&a, &b});
  EXPECT_FALSE(r.hit_round_budget);
  EXPECT_EQ(static_cast<size_t>(r), 0u);
}

TEST(Reliability, ExplicitAcksQuenchRetransmissionsOneWay) {
  // One-way traffic (no reply to piggyback on): only explicit ACK frames
  // can retire the sender's retransmit queue.
  Graph g;
  Ref msg = g.unit();
  Pair p({});
  int hits = 0;
  uint64_t port = p.server.open_port(&g, msg, [&](const Value&) { ++hits; });
  p.client.send(port, g, msg, Value::unit());
  PumpResult r = pump({&p.client, &p.server});
  EXPECT_FALSE(r.hit_round_budget);
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(p.client.has_pending());
  EXPECT_GE(p.server.stats().acks_sent, 1u);
  EXPECT_GE(p.client.stats().acks_received, 1u);
  EXPECT_EQ(p.client.stats().retransmits, 0u);
}

/// Forwards to an inner link but reports `*held` unsent bytes, standing in
/// for a socket whose send buffer is full.
class HoldingLink : public transport::Link {
 public:
  HoldingLink(std::unique_ptr<transport::Link> inner, const size_t* held)
      : inner_(std::move(inner)), held_(held) {}
  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    inner_->send(head, body);
  }
  std::optional<std::vector<uint8_t>> poll() override { return inner_->poll(); }
  bool reliable() const override { return inner_->reliable(); }
  size_t held_bytes() const override { return *held_; }

 private:
  std::unique_ptr<transport::Link> inner_;
  const size_t* held_;
};

TEST(Reliability, DueFramesWaitWhileTheLinkHoldsUnsentBytes) {
  // Every frame is dropped, so the one sent is due again after two ticks.
  // While the link reports unsent bytes the original has not left, and a
  // copy would only queue behind it: nothing is re-sent and nothing
  // expires. Once the link drains, retransmission and expiry resume.
  Graph g;
  Ref msg = g.unit();
  transport::FaultOptions f;
  f.drop_probability = 1.0;
  auto [lc, ls] = transport::make_inproc_pair(f);
  size_t held = 1;
  Node client(1), server(2);
  client.connect(2, std::make_unique<HoldingLink>(std::move(lc), &held));
  server.connect(1, std::move(ls));
  uint64_t port = server.open_port(&g, msg, [](const Value&) {});
  client.send(port, g, msg, Value::unit());
  for (int i = 0; i < 1000; ++i) client.poll();
  EXPECT_EQ(client.stats().retransmits, 0u);
  EXPECT_EQ(client.stats().frames_expired, 0u);
  EXPECT_EQ(client.send_queue_depth(2), 1u);

  held = 0;
  for (int i = 0; i < 1000 && client.has_pending(); ++i) client.poll();
  EXPECT_EQ(client.stats().retransmits,
            ReliabilityOptions{}.max_retries);
  EXPECT_EQ(client.stats().frames_expired, 1u);
  EXPECT_FALSE(client.has_pending());
}

/// An unreliable link whose every send throws, as a closed socket's does.
class ClosedLink : public transport::Link {
 public:
  void send(std::span<const uint8_t>, std::span<const uint8_t>) override {
    throw TransportError("link closed");
  }
  std::optional<std::vector<uint8_t>> poll() override { return std::nullopt; }
  bool reliable() const override { return false; }
  size_t held_bytes() const override { return 0; }
};

TEST(Reliability, SendThatThrowsLeavesNothingQueued) {
  // The frame whose transmission threw was never queued, so the node must
  // not count it as held or pending afterwards.
  Graph g;
  Ref msg = g.unit();
  Node client(1);
  client.connect(2, std::make_unique<ClosedLink>());
  EXPECT_THROW(client.send((uint64_t{2} << 48) | 1, g, msg, Value::unit()),
               TransportError);
  EXPECT_EQ(client.held_bytes(2), 0u);
  EXPECT_FALSE(client.has_pending());
  EXPECT_FALSE(client.needs_tick());
}

}  // namespace
}  // namespace mbird::rpc
