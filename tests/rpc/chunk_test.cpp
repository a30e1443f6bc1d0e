// Frame segmentation (CHUNK) edge cases and the large-message acceptance:
// a multi-MB payload crosses the link in bounded frames and reassembles
// equal to the original.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "transport/link.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {
namespace {

using mtype::Graph;
using mtype::Ref;
using runtime::Value;

/// Link decorator recording every on-wire frame size (header + payload):
/// the bounded-frame assertions watch what actually crosses the link.
class SpyLink : public transport::Link {
 public:
  SpyLink(std::shared_ptr<transport::Link> inner, std::vector<size_t>* sizes)
      : inner_(std::move(inner)), sizes_(sizes) {}
  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    sizes_->push_back(head.size() + body.size());
    inner_->send(head, body);
  }
  std::optional<std::vector<uint8_t>> poll() override {
    return inner_->poll();
  }
  bool reliable() const override { return inner_->reliable(); }
  size_t held_bytes() const override { return inner_->held_bytes(); }

 private:
  std::shared_ptr<transport::Link> inner_;
  std::vector<size_t>* sizes_;
};

/// A list-of-bytes value whose wire encoding is easy to size.
Value byte_list(size_t n, uint8_t mul = 1) {
  std::vector<Value> elems;
  elems.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elems.push_back(Value::integer(static_cast<uint8_t>(i * mul)));
  }
  return Value::list(std::move(elems));
}

// ---- segmentation edges ------------------------------------------------------

TEST(Chunking, ZeroLengthPayloadStaysSingleFrame) {
  // The empty record encodes to zero bytes — the smallest payload there is.
  // It must travel as one plain DATA frame, never a chunk.
  Graph g;
  Ref empty = g.record({});
  EXPECT_TRUE(wire::encode(g, empty, Value::record({})).empty());

  ReliabilityOptions ro;
  ro.max_frame_payload = 32;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  int hits = 0;
  uint64_t p = b.open_port(&g, empty, [&](const Value&) { ++hits; });

  a.send(p, g, empty, Value::record({}));
  pump({&a, &b});
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(a.stats().chunks_sent, 0u);
  EXPECT_EQ(a.stats().messages_chunked, 0u);
  EXPECT_EQ(b.stats().messages_reassembled, 0u);
}

TEST(Chunking, ExactlyMaxPayloadIsNotChunked) {
  // A payload of exactly max_frame_payload bytes rides one DATA frame; one
  // byte more forces the chunked path. Both must deliver identically.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Value v = byte_list(100);
  std::vector<uint8_t> payload = wire::encode(g, bytes, v);
  ASSERT_GT(payload.size(), wire::kChunkHeaderSize);

  ReliabilityOptions at;
  at.max_frame_payload = payload.size();
  Node a(1, at), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });
  a.send_marshaled(p, payload);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(a.stats().chunks_sent, 0u);
  EXPECT_EQ(a.stats().frames_sent, 1u);

  ReliabilityOptions under;
  under.max_frame_payload = payload.size() - 1;
  Node c(3, under);
  auto [lc, lb2] = transport::make_inproc_pair();
  c.connect(2, std::move(lc));
  b.connect(3, std::move(lb2));
  c.send_marshaled(p, wire::encode(g, bytes, v));
  pump({&c, &b});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], v);
  EXPECT_EQ(c.stats().messages_chunked, 1u);
  EXPECT_EQ(c.stats().chunks_sent, 2u);  // one full piece + the tail
  EXPECT_EQ(b.stats().messages_reassembled, 1u);
}

TEST(Chunking, BoundedFramesOnTheWire) {
  // Every frame of a chunked message must stay within header + max payload,
  // and full pieces must actually fill the budget (bounded but not tiny).
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Value v = byte_list(1000, 3);

  ReliabilityOptions ro;
  ro.max_frame_payload = 64;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  std::vector<size_t> sizes;
  a.connect(2, std::make_shared<SpyLink>(std::move(la), &sizes));
  b.connect(1, std::move(lb));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });

  a.send(p, g, bytes, v);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(a.stats().messages_chunked, 1u);
  EXPECT_GT(a.stats().chunks_sent, 10u);
  EXPECT_EQ(b.stats().messages_reassembled, 1u);
  size_t full_frames = 0;
  for (size_t s : sizes) {
    EXPECT_LE(s, wire::kFrameHeaderSize + ro.max_frame_payload);
    full_frames += s == wire::kFrameHeaderSize + ro.max_frame_payload;
  }
  EXPECT_GT(full_frames, 10u);  // the budget is used, not just respected
}

TEST(Chunking, InterleavedStreamsReassembleIndependently) {
  // Two chunked messages queued back-to-back over a reordering link: their
  // chunks arrive interleaved and out of order, so reassembly must key on
  // msg_id and piece index rather than arrival order.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Value v1 = byte_list(300, 3);
  Value v2 = byte_list(300, 5);

  transport::FaultOptions f;
  f.reorder_probability = 0.5;
  f.seed = 13;
  ReliabilityOptions ro;
  ro.max_frame_payload = 32;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair(f);
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });

  a.send(p, g, bytes, v1);
  a.send(p, g, bytes, v2);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 2u);
  // Completion order may vary with the shuffle; both must arrive intact.
  EXPECT_TRUE((got[0] == v1 && got[1] == v2) || (got[0] == v2 && got[1] == v1));
  EXPECT_EQ(b.stats().messages_reassembled, 2u);
  EXPECT_EQ(b.stats().chunks_received, a.stats().chunks_sent);
}

TEST(Chunking, LossyLinkReassemblesViaRetransmit) {
  // Chunks ride the normal seq/ack reliability: with 40% frame loss every
  // piece must eventually land via retransmission and the stream must
  // complete bit-exact.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Value v = byte_list(300, 7);

  transport::FaultOptions f;
  f.drop_probability = 0.4;
  f.seed = 7;
  ReliabilityOptions ro;
  ro.max_frame_payload = 32;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair(f);
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });

  a.send(p, g, bytes, v);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().messages_reassembled, 1u);
}

/// Write one piece of `message` (bytes [from, to)) as an unsequenced CHUNK
/// frame of stream `msg_id` toward `port`, the way a stream-side sender
/// frames it.
void send_piece(transport::Link& link, uint64_t port, uint32_t msg_id,
                uint32_t index, uint8_t flags, const std::vector<uint8_t>& message,
                size_t from, size_t to) {
  wire::FrameHeader h;
  h.kind = wire::FrameKind::Chunk;
  h.origin_node = 1;
  h.dest_port = port;
  uint8_t head[wire::kMaxFrameHeaderSize + wire::kChunkHeaderSize];
  const size_t n = wire::pack_header(h, wire::kChunkHeaderSize + (to - from), head);
  wire::pack_chunk_header(wire::ChunkInfo{msg_id, index, flags}, head + n);
  link.send({head, n + wire::kChunkHeaderSize},
            {message.data() + from, to - from});
}

TEST(Chunking, RepeatedAndStalePiecesOnStreamLinkAreIgnored) {
  // A stream link has no seq dedup below reassembly, so a piece index the
  // stream already holds must be ignored there: neither buffered again nor
  // appended twice.
  Node b(2);
  auto [la, lb] = transport::make_socket_pair();
  b.connect(1, std::move(lb));
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  const Value v = byte_list(300, 3);
  const std::vector<uint8_t> message = wire::encode(g, bytes, v);
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });

  send_piece(*la, p, 7, 0, 0, message, 0, 100);
  send_piece(*la, p, 7, 1, 0, message, 100, 200);
  send_piece(*la, p, 7, 1, 0, message, 100, 200);  // repeated
  send_piece(*la, p, 7, 0, 0, message, 0, 100);    // stale
  b.poll();
  EXPECT_EQ(b.reassembly_bytes(), 200u);  // pieces 0 and 1, once each
  send_piece(*la, p, 7, 2, wire::kChunkFlagLast, message, 200, message.size());
  b.poll();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(b.stats().chunks_received, 5u);
  EXPECT_EQ(b.stats().duplicates_dropped, 0u);  // no seq dedup on this link
  EXPECT_EQ(b.reassembly_bytes(), 0u);
}

TEST(Chunking, MidStreamFaultAbortsReassembly) {
  // A peer that gives up on a stream after pieces escaped sends a piece
  // flagged kChunkFlagAbort: the receiver discards the partial stream and
  // its buffered bytes, and delivers nothing.
  Node b(2);
  auto [la, lb] = transport::make_socket_pair();
  b.connect(1, std::move(lb));
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  const std::vector<uint8_t> message = wire::encode(g, bytes, byte_list(300, 3));
  int hits = 0;
  uint64_t p = b.open_port(&g, bytes, [&](const Value&) { ++hits; });

  send_piece(*la, p, 7, 0, 0, message, 0, 100);
  send_piece(*la, p, 7, 1, 0, message, 100, 200);
  b.poll();
  EXPECT_EQ(b.reassembly_bytes(), 200u);
  send_piece(*la, p, 7, 2, wire::kChunkFlagAbort, message, 200, 200);
  b.poll();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(b.stats().chunk_aborts, 1u);
  EXPECT_EQ(b.reassembly_bytes(), 0u);
  EXPECT_EQ(b.stats().messages_reassembled, 0u);
}

TEST(Chunking, ReassemblyBudgetCoversAllOfAPeersStreams) {
  // One peer opens 100 streams of 1 MiB and never sends their last piece.
  // Each stream alone fits a 4 MiB limit, but the limit covers the peer's
  // open streams together: the buffered total never exceeds it, and the
  // streams that would overflow it are aborted.
  ReliabilityOptions ro;
  ro.reassembly_limit = 4u << 20;
  Node b(2, ro);
  auto [la, lb] = transport::make_socket_pair();
  b.connect(1, std::move(lb));
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  uint64_t p = b.open_port(&g, bytes, [](const Value&) {
    ADD_FAILURE() << "an incomplete stream was delivered";
  });

  const std::vector<uint8_t> piece(64 * 1024, 0x5a);
  size_t peak = 0;
  for (uint32_t stream = 1; stream <= 100; ++stream) {
    for (uint32_t index = 0; index < 16; ++index) {
      send_piece(*la, p, stream, index, 0, piece, 0, piece.size());
      while (la->held_bytes() != 0) {
        b.poll();
        la->poll();  // flushes what the kernel refused
      }
      b.poll();
      peak = std::max(peak, b.reassembly_bytes());
    }
  }
  EXPECT_LE(peak, ro.reassembly_limit);
  EXPECT_EQ(peak, ro.reassembly_limit);  // four whole streams fit
  EXPECT_GT(b.stats().chunk_aborts, 0u);
  EXPECT_EQ(b.stats().chunks_received, 1600u);
}

TEST(Chunking, OpenStreamCountIsCappedPerPeer) {
  // One peer opens twice reassembly_limit / max_frame_payload streams (1024
  // by default) of one byte each and never finishes them. The byte budget
  // alone would admit them all; the stream cap keeps that peer's open
  // streams at 1024 and drops the rest as chunk aborts. Another peer's
  // chunked message still delivers.
  const ReliabilityOptions ro;
  const size_t cap = ro.reassembly_limit / ro.max_frame_payload;
  ASSERT_EQ(cap, 1024u);
  Node b(2), c(3);
  auto [la, lb] = transport::make_inproc_pair();
  b.connect(1, std::move(lb));
  auto [lc, lb3] = transport::make_inproc_pair();
  c.connect(2, std::move(lc));
  b.connect(3, std::move(lb3));
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });

  const std::vector<uint8_t> one{0x5a};
  size_t peak = 0;
  for (uint32_t stream = 1; stream <= 2 * cap; ++stream) {
    send_piece(*la, p, stream, 0, 0, one, 0, 1);
    b.poll();
    peak = std::max(peak, b.reassembly_bytes());  // one byte per open stream
  }
  EXPECT_EQ(peak, cap);
  EXPECT_EQ(b.stats().chunk_aborts, cap);
  EXPECT_EQ(b.stats().chunks_received, 2 * cap);
  EXPECT_TRUE(got.empty());

  const Value v = byte_list(100000, 7);
  c.send(p, g, bytes, v);
  pump({&b, &c});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(c.stats().messages_chunked, 1u);
  EXPECT_EQ(b.reassembly_bytes(), cap);
}

// ---- large messages ---------------------------------------------------------

/// ~4 MiB on the wire: 2^20 list elements, 4 encoded bytes each.
Value four_mib_value() {
  constexpr size_t kElems = 1u << 20;
  std::vector<Value> elems;
  elems.reserve(kElems);
  for (size_t i = 0; i < kElems; ++i) {
    elems.push_back(Value::integer(static_cast<uint32_t>(i * 2654435761u)));
  }
  return Value::list(std::move(elems));
}

Ref four_mib_type(Graph& g) { return g.list_of(g.integer(0, 0xFFFFFFFF)); }

TEST(Streaming, FourMiBRoundTripsInBoundedFrames) {
  // End to end through two nodes: a 4 MiB message crosses the link as
  // 64 KiB-bounded frames and arrives equal to the original.
  Graph g;
  Ref seq = four_mib_type(g);
  Value v = four_mib_value();

  ReliabilityOptions ro;
  ro.max_frame_payload = 64 * 1024;
  ro.send_window = 256;  // let the whole stream fly without window stalls
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  std::vector<size_t> sizes;
  a.connect(2, std::make_shared<SpyLink>(std::move(la), &sizes));
  b.connect(1, std::move(lb));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, seq, [&](const Value& x) { got.push_back(x); });

  a.send(p, g, seq, v);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(a.stats().messages_chunked, 1u);
  EXPECT_GE(a.stats().chunks_sent, (4u << 20) / ro.max_frame_payload);
  EXPECT_EQ(b.stats().messages_reassembled, 1u);
  for (size_t s : sizes) {
    EXPECT_LE(s, wire::kFrameHeaderSize + ro.max_frame_payload);
  }
}

TEST(Chunking, LossyStreamKeepsSendersTraceContext) {
  // Trace attribution across the chunk path under 10% loss: every CHUNK
  // frame of a stream — originals and retransmits — carries the sender's
  // trace extension, and the reassembled delivery runs under the context
  // stored from the stream's first-seen chunk, even when the last chunk
  // to arrive was a retransmit processed long after the sender's span
  // closed.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Value v = byte_list(400, 9);

  transport::FaultOptions f;
  f.drop_probability = 0.1;
  f.reorder_probability = 0.1;
  f.seed = 21;
  ReliabilityOptions ro;
  ro.max_frame_payload = 32;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair(f);
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));

  std::vector<obs::TraceContext> seen;
  uint64_t p = b.open_port(&g, bytes, [&](const Value&) {
    seen.push_back(obs::current_context());
  });
  const obs::TraceContext ctx{0x5151, 0xA0A0, true};
  {
    obs::ContextGuard guard(ctx);
    a.send(p, g, bytes, v);
  }  // span closed before retransmits drain — the stored context must win
  pump({&a, &b});

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].trace_id, ctx.trace_id);
  EXPECT_EQ(seen[0].span_id, ctx.span_id);
  EXPECT_GT(a.stats().retransmits, 0u) << "seed must exercise loss";
  EXPECT_EQ(b.stats().messages_reassembled, 1u);
}

TEST(Chunking, InterleavedStreamsDeliverUnderTheirOwnContexts) {
  // Two concurrent streams from differently-traced callers: each
  // reassembled delivery must adopt ITS stream's context, not the other's
  // and not whichever frame drained last.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  transport::FaultOptions f;
  f.reorder_probability = 0.5;
  f.seed = 13;
  ReliabilityOptions ro;
  ro.max_frame_payload = 32;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair(f);
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));

  Value v1 = byte_list(200, 3), v2 = byte_list(200, 5);
  std::vector<std::pair<size_t, uint64_t>> seen;  // (payload size, trace)
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) {
    seen.emplace_back(x.children().size(), obs::current_context().trace_id);
  });
  {
    obs::ContextGuard g1(obs::TraceContext{0xAAAA, 1, true});
    a.send(p, g, bytes, v1);
  }
  {
    obs::ContextGuard g2(obs::TraceContext{0xBBBB, 2, true});
    a.send(p, g, bytes, v2);
  }
  pump({&a, &b});
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [n, trace] : seen) {
    EXPECT_EQ(n, 200u);
    EXPECT_NE(trace, 0u);
  }
  // Both traces present, one per delivery.
  EXPECT_NE(seen[0].second, seen[1].second);
  for (const auto& [n, trace] : seen) {
    EXPECT_TRUE(trace == 0xAAAA || trace == 0xBBBB);
  }
}

}  // namespace
}  // namespace mbird::rpc
