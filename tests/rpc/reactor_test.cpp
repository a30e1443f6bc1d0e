// The epoll reactor: many real-socket clients against one Node, peer
// identification from the first frame, reconnect supersession, chunked
// traffic, per-connection backpressure stall/resume, and hostile input the
// server must count and survive.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rpc/reactor.hpp"
#include "rpc/rpc.hpp"
#include "transport/socket.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {
namespace {

using mtype::Graph;
using mtype::Ref;
using runtime::Value;

// f(int x) -> real, the invocation shape the call helpers use.
struct Fn {
  Graph g;
  Ref in = mtype::kNullRef;
  Ref out = mtype::kNullRef;
  Ref invocation = mtype::kNullRef;
};

Fn make_fn() {
  Fn f;
  f.in = f.g.record({f.g.integer(-1000, 1000)}, {"x"});
  f.out = f.g.record({f.g.real(24, 8)}, {"return"});
  f.invocation = f.g.record({f.in, f.g.port(f.out)}, {"args", "reply"});
  return f;
}

std::string test_addr(const char* tag) {
  return "unix:/tmp/mbird_reactor_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Interleave the reactor loop with the clients' polled links until `done`
/// (or the round budget runs out). Single-threaded and deterministic: one
/// reactor iteration + one poll per client per round.
bool drive(Reactor& reactor, const std::vector<Node*>& clients,
           const std::function<bool()>& done, int budget = 50000) {
  for (int i = 0; i < budget && !done(); ++i) {
    reactor.run_once(0);
    for (Node* c : clients) c->poll();
  }
  return done();
}

Node* dial_client(std::vector<std::unique_ptr<Node>>& owned, uint16_t id,
                  const Reactor& reactor, const std::string& addr) {
  (void)reactor;
  auto node = std::make_unique<Node>(id);
  node->connect(1, transport::polled_socket_link(transport::dial_fd(addr)));
  owned.push_back(std::move(node));
  return owned.back().get();
}

TEST(Reactor, EchoRoundTripOverUnixSocket) {
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("echo"));
  uint64_t fn_port = serve_function(server, fn.g, fn.invocation,
                                    [](const Value& args) {
                                      return Value::record({Value::real(
                                          2.0 * static_cast<double>(
                                                    args.at(0).as_int()))});
                                    });

  std::vector<std::unique_ptr<Node>> owned;
  Node* client = dial_client(owned, 2, reactor, reactor.listen_address());
  std::optional<Value> reply;
  uint64_t rp = client->open_port(
      &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
  client->send(fn_port, fn.g, fn.invocation,
               Value::record({Value::record({Value::integer(21)}),
                              Value::port(rp)}));

  ASSERT_TRUE(drive(reactor, {client}, [&] { return reply.has_value(); }));
  EXPECT_EQ(*reply, Value::record({Value::real(42)}));
  EXPECT_EQ(reactor.peer_count(), 1u);
  EXPECT_EQ(server.stats().frames_received, 1u);
}

TEST(Reactor, ForgedListLengthIsCountedAndServingContinues) {
  // The 4-byte echo payload 0f ff ff ff claims a string of 2^28 - 1 chars
  // and carries none. The server must drop it as one decode fault and keep
  // answering the same client.
  Graph g;
  Ref blob = g.record({g.list_of(g.character(stype::Repertoire::Latin1))},
                      {"payload"});
  Ref invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("bomb"));
  uint64_t echo = serve_function(server, g, invocation,
                                 [](const Value& args) { return args; });

  std::vector<std::unique_ptr<Node>> owned;
  Node* client = dial_client(owned, 2, reactor, reactor.listen_address());
  client->send_marshaled(echo, {0x0f, 0xff, 0xff, 0xff});
  ASSERT_TRUE(drive(reactor, {client},
                    [&] { return server.stats().decode_faults == 1; }));

  std::optional<Value> reply;
  uint64_t rp = client->open_port(
      &g, blob, [&](const Value& v) { reply = v; }, true);
  const Value args = Value::record({Value::string("still serving")});
  client->send(echo, g, invocation, Value::record({args, Value::port(rp)}));
  ASSERT_TRUE(drive(reactor, {client}, [&] { return reply.has_value(); }));
  EXPECT_EQ(*reply, args);
  EXPECT_EQ(server.stats().decode_faults, 1u);
}

TEST(Reactor, ThrowingHandlersAreCountedAndReturnTheirBuffers) {
  // Two echo requests whose handlers throw: one names a reply port on a
  // node the server has no link to, the other names the echo port itself,
  // so its reply arrives back as a malformed request. Each is one counted
  // fault. 4097 more of the first kind must leave no send buffer checked
  // out and the server serving another client.
  Graph g;
  Ref blob = g.record({g.list_of(g.character(stype::Repertoire::Latin1))},
                      {"payload"});
  Ref invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("handlerfault"));
  uint64_t echo = serve_function(server, g, invocation,
                                 [](const Value& args) { return args; });

  std::vector<std::unique_ptr<Node>> owned;
  Node* hostile = dial_client(owned, 2, reactor, reactor.listen_address());
  const Value args = Value::record({Value::string("x")});
  auto request = [&](uint64_t reply_port) {
    hostile->send(echo, g, invocation,
                  Value::record({args, Value::port(reply_port)}));
  };
  const uint64_t unreachable = (uint64_t{999} << 48) | 1;
  request(unreachable);
  request(echo);
  ASSERT_TRUE(drive(reactor, {hostile},
                    [&] { return server.stats().decode_faults == 2; }));
  constexpr uint64_t kMore = 4097;
  for (uint64_t i = 0; i < kMore; ++i) request(unreachable);
  ASSERT_TRUE(drive(reactor, {hostile}, [&] {
    return server.stats().decode_faults == 2 + kMore;
  }));
  EXPECT_EQ(server.buffer_pool().outstanding(), 0u);
  EXPECT_FALSE(reactor.stalled());

  Node* caller = dial_client(owned, 3, reactor, reactor.listen_address());
  for (const char* text : {"first", "second"}) {
    std::optional<Value> reply;
    uint64_t rp = caller->open_port(
        &g, blob, [&](const Value& v) { reply = v; }, true);
    const Value sent = Value::record({Value::string(text)});
    caller->send(echo, g, invocation, Value::record({sent, Value::port(rp)}));
    ASSERT_TRUE(drive(reactor, {caller}, [&] { return reply.has_value(); }))
        << text;
    EXPECT_EQ(*reply, sent);
  }
  EXPECT_EQ(server.stats().decode_faults, 2 + kMore);
}

TEST(Reactor, JunkFirstFrameCannotClaimALivePeersId) {
  // A new connection's first frame is 40 bytes of junk whose bytes 7-8
  // read as node id 2, a live client's. It is no frame, so the connection
  // is dropped and the live client keeps its channel.
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("junk"));
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record(
            {Value::real(static_cast<double>(args.at(0).as_int()))});
      });
  std::vector<std::unique_ptr<Node>> owned;
  Node* client = dial_client(owned, 2, reactor, reactor.listen_address());
  auto call = [&](int x) {
    std::optional<Value> reply;
    uint64_t rp = client->open_port(
        &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
    client->send(fn_port, fn.g, fn.invocation,
                 Value::record({Value::record({Value::integer(x)}),
                                Value::port(rp)}));
    EXPECT_TRUE(drive(reactor, {client}, [&] { return reply.has_value(); }))
        << "call " << x;
    return reply;
  };
  ASSERT_TRUE(call(1).has_value());

  transport::SocketPeer junk(transport::dial_fd(reactor.listen_address()));
  std::vector<uint8_t> bytes(40, 0xee);
  bytes[7] = 0x00;
  bytes[8] = 0x02;
  junk.send(bytes, {});
  ASSERT_EQ(junk.held_bytes(), 0u);
  // The server hangs up on the junk connection.
  ASSERT_TRUE(drive(reactor, {client}, [&] { return !junk.on_readable(); }));

  auto reply = call(2);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, Value::record({Value::real(2)}));
  EXPECT_EQ(reactor.peer_count(), 1u);
}

TEST(Reactor, ManyConcurrentClientsOverTcp) {
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen("tcp:127.0.0.1:0");
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record({Value::real(
            static_cast<double>(args.at(0).as_int()) + 0.5)});
      });

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Node>> owned;
  std::vector<Node*> clients;
  std::vector<std::optional<Value>> replies(kClients);
  for (int i = 0; i < kClients; ++i) {
    Node* c = dial_client(owned, static_cast<uint16_t>(2 + i), reactor,
                          reactor.listen_address());
    uint64_t rp = c->open_port(
        &fn.g, fn.out, [&replies, i](const Value& v) { replies[static_cast<size_t>(i)] = v; },
        true);
    c->send(fn_port, fn.g, fn.invocation,
            Value::record({Value::record({Value::integer(i)}),
                           Value::port(rp)}));
    clients.push_back(c);
  }

  ASSERT_TRUE(drive(reactor, clients, [&] {
    for (auto& r : replies) {
      if (!r.has_value()) return false;
    }
    return true;
  }));
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(*replies[static_cast<size_t>(i)],
              Value::record({Value::real(i + 0.5)}));
  }
  EXPECT_EQ(reactor.peer_count(), static_cast<size_t>(kClients));
}

TEST(Reactor, ReconnectSupersedesStaleChannel) {
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("reconnect"));
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record(
            {Value::real(static_cast<double>(args.at(0).as_int()))});
      });

  auto call_once = [&](Node& client, int x) {
    std::optional<Value> reply;
    uint64_t rp = client.open_port(
        &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
    client.send(fn_port, fn.g, fn.invocation,
                Value::record({Value::record({Value::integer(x)}),
                               Value::port(rp)}));
    EXPECT_TRUE(drive(reactor, {&client}, [&] { return reply.has_value(); }));
    return reply;
  };

  // First incarnation of node 7, then a second dial under the same id —
  // the server must adopt the new connection and retire the stale one.
  auto first = std::make_unique<Node>(7);
  first->connect(1, transport::polled_socket_link(
                        transport::dial_fd(reactor.listen_address())));
  auto r1 = call_once(*first, 3);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, Value::record({Value::real(3)}));
  EXPECT_EQ(reactor.peer_count(), 1u);
  first.reset();  // closes the old socket

  Node second(7);
  second.connect(1, transport::polled_socket_link(
                        transport::dial_fd(reactor.listen_address())));
  auto r2 = call_once(second, 9);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, Value::record({Value::real(9)}));
  // The superseded (and hung-up) first connection is gone.
  ASSERT_TRUE(drive(reactor, {&second},
                    [&] { return reactor.peer_count() == 1u; }, 1000));
}

TEST(Reactor, ChunkedMessageThroughReactor) {
  // A message larger than the client's max_frame_payload crosses the
  // reactor as CHUNK frames and reassembles on the server node.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("chunks"));
  std::vector<Value> got;
  uint64_t p =
      server.open_port(&g, bytes, [&](const Value& v) { got.push_back(v); });

  ReliabilityOptions ro;
  ro.max_frame_payload = 64;
  Node client(2, ro);
  client.connect(1, transport::polled_socket_link(
                        transport::dial_fd(reactor.listen_address())));
  std::vector<Value> elems;
  for (int i = 0; i < 2000; ++i) {
    elems.push_back(Value::integer(static_cast<uint8_t>(i * 11)));
  }
  Value v = Value::list(std::move(elems));
  client.send(p, g, bytes, v);

  ASSERT_TRUE(drive(reactor, {&client}, [&] { return !got.empty(); }));
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(client.stats().messages_chunked, 1u);
  EXPECT_EQ(server.stats().messages_reassembled, 1u);
  EXPECT_GT(server.stats().chunks_received, 10u);
}

TEST(Reactor, PackedStringEchoesInChunks) {
  // A 1 MiB Latin1 string echoed through the reactor crosses the socket as
  // CHUNK frames both ways and comes back packed and byte-identical.
  Graph g;
  Ref blob = g.record({g.list_of(g.character(stype::Repertoire::Latin1))},
                      {"payload"});
  Ref invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("packed"));
  uint64_t echo = serve_function(server, g, invocation,
                                 [](const Value& args) { return args; });

  std::vector<std::unique_ptr<Node>> owned;
  Node* client = dial_client(owned, 2, reactor, reactor.listen_address());
  std::optional<Value> reply;
  uint64_t rp = client->open_port(
      &g, blob, [&](const Value& v) { reply = v; }, true);
  std::string text(1u << 20, '\0');
  for (size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>(i * 131 + (i >> 9));
  }
  client->send(echo, g, invocation,
               Value::record({Value::record({Value::string(text)}),
                              Value::port(rp)}));

  ASSERT_TRUE(drive(reactor, {client}, [&] { return reply.has_value(); }));
  const auto chars = reply->at(0).packed_chars();
  ASSERT_TRUE(chars.has_value());
  EXPECT_EQ(*chars, text);
  EXPECT_EQ(client->stats().messages_chunked, 1u);
  EXPECT_GT(server.stats().chunks_received, 10u);
  EXPECT_EQ(server.stats().messages_reassembled, 1u);
  EXPECT_EQ(server.stats().messages_chunked, 1u);
  EXPECT_GT(client->stats().chunks_received, 10u);
  EXPECT_EQ(client->stats().messages_reassembled, 1u);
}

TEST(Reactor, BackpressureStallsAndResumes) {
  // With a 16-byte bound (send_window 1 x max_frame_payload 16) the reply's
  // unacked frame trips the stall (EPOLLIN shed). The client's ack waits
  // unread behind it until the server retransmits the reply; the reactor
  // then reads the connection once, the ack lands, and with nothing held
  // the stall clears. The client's link is a zero-drop make_lossy wrapper,
  // so its channel runs the sublayer and the server's channel latches
  // sequenced too: only sequenced channels hold frames until acked.
  Fn fn = make_fn();
  ReliabilityOptions ro;
  ro.send_window = 1;
  ro.max_frame_payload = 16;
  Node server(1, ro);
  Reactor reactor(server);
  reactor.listen(test_addr("stall"));
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record(
            {Value::real(static_cast<double>(args.at(0).as_int()))});
      });

  Node client(2);
  client.connect(1, transport::make_lossy(
                        transport::polled_socket_link(
                            transport::dial_fd(reactor.listen_address())),
                        transport::FaultOptions{}));
  std::optional<Value> reply;
  uint64_t rp = client.open_port(
      &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
  client.send(fn_port, fn.g, fn.invocation,
              Value::record({Value::record({Value::integer(4)}),
                             Value::port(rp)}));

  // The reply itself was flushed to the socket before the stall latched.
  ASSERT_TRUE(drive(reactor, {&client}, [&] { return reply.has_value(); }));
  EXPECT_EQ(*reply, Value::record({Value::real(4)}));
  bool saw_stall = reactor.stalled();
  // Run the reactor alone until the retransmission lets the ack in; the
  // stall must have latched and then cleared.
  for (int i = 0; i < 5000 && (!saw_stall || reactor.stalled()); ++i) {
    reactor.run_once(0);
    saw_stall = saw_stall || reactor.stalled();
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_FALSE(reactor.stalled());
}

TEST(Reactor, SequencedClientEchoesMessagesAboveTheHeldBound) {
  // A zero-drop make_lossy client runs the sublayer, so the server holds
  // each reply frame until the client acks it. Replies of 3 and 5 MiB put
  // more than the 4 MiB bound in the server's queue toward the client; the
  // acks that free it arrive on the connection a stall would stop reading,
  // so both echoes must still complete without a frame expiring.
  Graph g;
  Ref blob = g.record({g.list_of(g.character(stype::Repertoire::Latin1))},
                      {"payload"});
  Ref invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("bigseq"));
  uint64_t echo = serve_function(server, g, invocation,
                                 [](const Value& args) { return args; });

  Node client(2);
  client.connect(1, transport::make_lossy(
                        transport::polled_socket_link(
                            transport::dial_fd(reactor.listen_address())),
                        transport::FaultOptions{}));
  for (size_t mib : {3u, 5u}) {
    std::string text(mib << 20, '\0');
    for (size_t i = 0; i < text.size(); ++i) {
      text[i] = static_cast<char>(i * 131 + (i >> 11) + mib);
    }
    std::optional<Value> reply;
    uint64_t rp = client.open_port(
        &g, blob, [&](const Value& v) { reply = v; }, true);
    client.send(echo, g, invocation,
                Value::record({Value::record({Value::string(text)}),
                               Value::port(rp)}));
    ASSERT_TRUE(drive(reactor, {&client}, [&] { return reply.has_value(); },
                      200000))
        << mib << " MiB";
    const auto chars = reply->at(0).packed_chars();
    ASSERT_TRUE(chars.has_value());
    EXPECT_TRUE(*chars == text) << mib << " MiB";
  }
  EXPECT_EQ(server.stats().frames_expired, 0u);
  EXPECT_EQ(client.stats().frames_expired, 0u);
}

TEST(Reactor, SequencedFloodStallsNoOtherClient) {
  // A second connection sends 6000 sequenced requests whose replies go back
  // to it, and never reads or acks them. The node holds those replies
  // toward that peer alone (well under the 4 MiB bound), so an established
  // stream client's next call completes long before any of them expire.
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("flood"));
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record(
            {Value::real(static_cast<double>(args.at(0).as_int()))});
      });
  std::vector<std::unique_ptr<Node>> owned;
  Node* client = dial_client(owned, 2, reactor, reactor.listen_address());
  auto call = [&](int x) {
    std::optional<Value> reply;
    uint64_t rp = client->open_port(
        &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
    client->send(fn_port, fn.g, fn.invocation,
                 Value::record({Value::record({Value::integer(x)}),
                                Value::port(rp)}));
    EXPECT_TRUE(drive(reactor, {client}, [&] { return reply.has_value(); }))
        << "call " << x;
    return reply;
  };
  ASSERT_TRUE(call(1).has_value());

  transport::SocketPeer flooder(transport::dial_fd(reactor.listen_address()));
  constexpr uint64_t kFlood = 6000;
  const uint64_t reply_port = (uint64_t{3} << 48) | 1;
  const std::vector<uint8_t> payload = wire::encode(
      fn.g, fn.invocation,
      Value::record({Value::record({Value::integer(7)}),
                     Value::port(reply_port)}));
  for (uint64_t seq = 1; seq <= kFlood; ++seq) {
    wire::FrameHeader h;
    h.kind = wire::FrameKind::Data;
    h.origin_node = 3;
    h.seq = seq;
    h.dest_port = fn_port;
    uint8_t head[wire::kMaxFrameHeaderSize];
    const size_t n = wire::pack_header(h, payload.size(), head);
    flooder.send({head, n}, payload);
  }
  for (int i = 0; i < 50000 && server.stats().frames_received < 1 + kFlood;
       ++i) {
    reactor.run_once(0);
    flooder.on_writable();
  }
  ASSERT_EQ(server.stats().frames_received, 1 + kFlood);

  auto reply = call(2);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, Value::record({Value::real(2)}));
  EXPECT_EQ(server.stats().frames_expired, 0u);
}

TEST(Reactor, StreamClientThatStopsReadingIsStalledUntilItReads) {
  // A stream client pipelines echo requests but never reads: once the
  // replies it leaves unread exceed send_window x max_frame_payload in the
  // server's socket buffer, its connection stops being read. When it reads
  // again the stall clears and every reply arrives intact.
  Graph g;
  Ref blob = g.record({g.list_of(g.character(stype::Repertoire::Latin1))},
                      {"payload"});
  Ref invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  ReliabilityOptions ro;
  ro.send_window = 4;
  ro.max_frame_payload = 16 * 1024;  // a 64 KiB bound on held replies
  Node server(1, ro);
  Reactor reactor(server);
  reactor.listen(test_addr("noread"));
  uint64_t echo = serve_function(server, g, invocation,
                                 [](const Value& args) { return args; });

  // The client's link is a bare SocketPeer: it writes on send() and
  // on_writable(), and reads only when the test calls on_readable().
  auto sock = std::make_shared<transport::SocketPeer>(
      transport::dial_fd(reactor.listen_address()));
  Node client(2);
  client.connect(1, sock);
  constexpr size_t kCalls = 64;
  std::vector<std::string> texts;
  std::vector<std::optional<Value>> replies(kCalls);
  for (size_t i = 0; i < kCalls; ++i) {
    texts.emplace_back(32 * 1024, static_cast<char>('a' + i % 26));
    uint64_t rp = client.open_port(
        &g, blob, [&replies, i](const Value& v) { replies[i] = v; }, true);
    client.send(echo, g, invocation,
                Value::record({Value::record({Value::string(texts[i])}),
                               Value::port(rp)}));
  }
  bool saw_stall = false;
  for (int i = 0; i < 20000 && !saw_stall; ++i) {
    reactor.run_once(0);
    sock->on_writable();
    saw_stall = reactor.stalled();
  }
  ASSERT_TRUE(saw_stall);
  EXPECT_EQ(client.stats().frames_received, 0u);

  auto all_in = [&] {
    for (const auto& r : replies) {
      if (!r) return false;
    }
    return true;
  };
  for (int i = 0; i < 200000 && !all_in(); ++i) {
    reactor.run_once(0);
    sock->on_writable();
    sock->on_readable();
    client.poll();
  }
  ASSERT_TRUE(all_in());
  for (size_t i = 0; i < kCalls; ++i) {
    const auto chars = replies[i]->at(0).packed_chars();
    ASSERT_TRUE(chars.has_value());
    EXPECT_TRUE(*chars == texts[i]) << "reply " << i;
  }
  reactor.run_once(0);
  EXPECT_FALSE(reactor.stalled());
  EXPECT_EQ(server.stats().retransmits, 0u);
  EXPECT_EQ(server.stats().acks_sent, 0u);
}

TEST(Reactor, OpenChunkStreamsDoNotStallOtherClients) {
  // One client opens 64 chunk streams and never finishes them. Open
  // reassembly buffers are nothing the node holds toward a peer: the
  // reactor must keep reading, so another client's calls still complete.
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("openstreams"));
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record(
            {Value::real(static_cast<double>(args.at(0).as_int()))});
      });
  std::vector<std::unique_ptr<Node>> owned;
  Node* caller = dial_client(owned, 2, reactor, reactor.listen_address());
  auto call = [&](int x) {
    std::optional<Value> reply;
    uint64_t rp = caller->open_port(
        &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
    caller->send(fn_port, fn.g, fn.invocation,
                 Value::record({Value::record({Value::integer(x)}),
                                Value::port(rp)}));
    EXPECT_TRUE(drive(reactor, {caller}, [&] { return reply.has_value(); }))
        << "call " << x;
    return reply;
  };
  ASSERT_TRUE(call(1).has_value());

  // Piece 0 of stream `id`: one byte, no Last flag.
  transport::SocketPeer opener(transport::dial_fd(reactor.listen_address()));
  constexpr uint32_t kStreams = 4 * 16;
  for (uint32_t id = 1; id <= kStreams; ++id) {
    wire::FrameHeader h;
    h.kind = wire::FrameKind::Chunk;
    h.origin_node = 3;
    h.dest_port = fn_port;
    uint8_t head[wire::kMaxFrameHeaderSize + wire::kChunkHeaderSize];
    const size_t n = wire::pack_header(h, wire::kChunkHeaderSize + 1, head);
    wire::pack_chunk_header(wire::ChunkInfo{id, 0, 0}, head + n);
    const uint8_t piece = 0x5a;
    opener.send({head, n + wire::kChunkHeaderSize}, {&piece, 1});
  }
  ASSERT_EQ(opener.held_bytes(), 0u);
  ASSERT_TRUE(drive(reactor, {},
                    [&] { return server.reassembly_bytes() == kStreams; }));

  for (int x = 2; x <= 4; ++x) {
    auto reply = call(x);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, Value::record({Value::real(x)}));
  }
  EXPECT_FALSE(reactor.stalled());
  EXPECT_EQ(server.reassembly_bytes(), kStreams);
}

TEST(Reactor, AddPeerReactorsExchangeLargeMessagesBothWays) {
  // Two reactors joined with add_peer() each send the other 8 MiB at once.
  // Both links hold far more unsent bytes than send_window x
  // max_frame_payload; neither side may stop reading, or neither could
  // drain and both messages would stall forever.
  Graph g;
  Ref blob = g.list_of(g.character(stype::Repertoire::Latin1));
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Node a(1), b(2);
  Reactor ra(a), rb(b);
  ra.add_peer(2, fds[0]);
  rb.add_peer(1, fds[1]);
  std::optional<Value> at_a, at_b;
  uint64_t pa = a.open_port(&g, blob, [&](const Value& v) { at_a = v; });
  uint64_t pb = b.open_port(&g, blob, [&](const Value& v) { at_b = v; });
  std::string to_a(8u << 20, '\0'), to_b(8u << 20, '\0');
  for (size_t i = 0; i < to_a.size(); ++i) {
    to_a[i] = static_cast<char>(i * 131 + (i >> 10));
    to_b[i] = static_cast<char>(i * 17 + (i >> 12));
  }
  a.send(pb, g, blob, Value::string(to_b));
  b.send(pa, g, blob, Value::string(to_a));

  for (int i = 0; i < 100000 && !(at_a && at_b); ++i) {
    ra.run_once(0);
    rb.run_once(0);
  }
  ASSERT_TRUE(at_a.has_value());
  ASSERT_TRUE(at_b.has_value());
  EXPECT_TRUE(at_a->packed_chars() == to_a);
  EXPECT_TRUE(at_b->packed_chars() == to_b);
  EXPECT_FALSE(ra.stalled());
  EXPECT_FALSE(rb.stalled());
}

TEST(Reactor, IdleStreamPeerCostsNoWakeups) {
  // After a call completes over a stream link nothing is due: the loop
  // blocks until an event instead of ticking every millisecond.
  Fn fn = make_fn();
  Node server(1);
  Reactor reactor(server);
  reactor.listen(test_addr("idle"));
  uint64_t fn_port = serve_function(
      server, fn.g, fn.invocation, [](const Value& args) {
        return Value::record(
            {Value::real(static_cast<double>(args.at(0).as_int()))});
      });
  std::vector<std::unique_ptr<Node>> owned;
  Node* client = dial_client(owned, 2, reactor, reactor.listen_address());
  std::optional<Value> reply;
  uint64_t rp = client->open_port(
      &fn.g, fn.out, [&](const Value& v) { reply = v; }, true);
  client->send(fn_port, fn.g, fn.invocation,
               Value::record({Value::record({Value::integer(5)}),
                              Value::port(rp)}));
  ASSERT_TRUE(drive(reactor, {client}, [&] { return reply.has_value(); }));
  ASSERT_FALSE(server.needs_tick());

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    reactor.wake();
  });
  size_t iterations = 0;
  reactor.run([&] {
    if (Clock::now() - start >= std::chrono::milliseconds(200)) return true;
    ++iterations;
    return false;
  });
  waker.join();
  EXPECT_LE(iterations, 2u);
  EXPECT_EQ(reactor.peer_count(), 1u);
}

TEST(Reactor, AddPeerAdoptsConnectedFd) {
  // The client side of a reactor-to-reactor topology: adopt an fd whose
  // peer id is known up front, no identification handshake needed.
  Graph g;
  Ref m = g.integer(0, 255);
  Node server(1);
  Reactor srv(server);
  srv.listen(test_addr("adopt"));
  std::vector<Value> got;
  uint64_t p = server.open_port(&g, m, [&](const Value& v) { got.push_back(v); });

  Node client(2);
  Reactor cli(client);
  cli.add_peer(1, transport::dial_fd(srv.listen_address()));
  client.send(p, g, m, Value::integer(42));

  for (int i = 0; i < 50000 && got.empty(); ++i) {
    srv.run_once(0);
    cli.run_once(0);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Value::integer(42));
  EXPECT_EQ(cli.peer_count(), 1u);
}

}  // namespace
}  // namespace mbird::rpc
