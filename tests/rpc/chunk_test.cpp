// Frame segmentation (CHUNK) edge cases and the streaming-marshal
// acceptance: bounded frames for multi-MB payloads, byte-identical to the
// single-frame path, on the engine and through compiled stubs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "compare/compare.hpp"
#include "planir/planir.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "runtime/convert.hpp"
#include "runtime/layout.hpp"
#include "runtime/threaded.hpp"
#include "support/rng.hpp"
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
  // Both the auto-chunking send path and an explicit single-empty-piece
  // stream must deliver it as one plain DATA frame, never a chunk.
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
  a.send_chunked(p, [](size_t, const runtime::PieceSink& emit) {
    emit({}, true);  // a stream whose only piece is empty and last
  });
  pump({&a, &b});
  EXPECT_EQ(hits, 2);
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

TEST(Chunking, ExactlyOneChunkBoundaryDegradesToData) {
  // The streaming encoder may emit (full piece, empty last piece) when the
  // message lands exactly on the piece boundary; the sender must notice and
  // degrade to one plain DATA frame — the receiver can't tell the paths
  // apart, so no chunk ever hits the wire.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Value v = byte_list(64);
  std::vector<uint8_t> payload = wire::encode(g, bytes, v);

  ReliabilityOptions ro;
  ro.max_frame_payload = payload.size() + wire::kChunkHeaderSize;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  std::vector<Value> got;
  uint64_t p = b.open_port(&g, bytes, [&](const Value& x) { got.push_back(x); });

  // piece_max == payload size exactly: the stream is one full piece.
  a.send_streaming(p, g, bytes, v);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_EQ(a.stats().chunks_sent, 0u);
  EXPECT_EQ(a.stats().messages_chunked, 0u);
  EXPECT_EQ(b.stats().chunks_received, 0u);
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

  a.send_streaming(p, g, bytes, v);
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

  a.send_streaming(p, g, bytes, v1);
  a.send_streaming(p, g, bytes, v2);
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

  a.send_streaming(p, g, bytes, v);
  pump({&a, &b});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], v);
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().messages_reassembled, 1u);
}

TEST(Chunking, MidStreamFaultAbortsReassembly) {
  // A producer that throws after pieces escaped must propagate the
  // exception AND tell the receiver to discard the partial stream.
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  ReliabilityOptions ro;
  ro.max_frame_payload = 32;
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  int hits = 0;
  uint64_t p = b.open_port(&g, bytes, [&](const Value&) { ++hits; });

  EXPECT_THROW(
      a.send_chunked(p,
                     [](size_t max, const runtime::PieceSink& emit) {
                       emit(std::vector<uint8_t>(max, 1), false);
                       emit(std::vector<uint8_t>(max, 2), false);
                       throw std::runtime_error("marshal fault");
                     }),
      std::runtime_error);
  pump({&a, &b});
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(b.stats().chunk_aborts, 1u);
  EXPECT_EQ(b.stats().messages_reassembled, 0u);
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

// ---- streaming-marshal acceptance -------------------------------------------

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

TEST(Streaming, EncoderEmitsBoundedPiecesByteIdentical) {
  Graph g;
  Ref seq = four_mib_type(g);
  Value v = four_mib_value();
  std::vector<uint8_t> reference = wire::encode(g, seq, v);
  ASSERT_GE(reference.size(), 4u << 20);

  constexpr size_t kPiece = 256 * 1024;
  std::vector<uint8_t> cat;
  size_t pieces = 0;
  bool saw_last = false;
  wire::encode_chunked(g, seq, v, kPiece,
                       [&](std::vector<uint8_t>&& piece, bool last) {
                         EXPECT_FALSE(saw_last);
                         if (!last) {
                           EXPECT_EQ(piece.size(), kPiece);
                         } else {
                           EXPECT_LE(piece.size(), kPiece);
                           saw_last = true;
                         }
                         cat.insert(cat.end(), piece.begin(), piece.end());
                         ++pieces;
                       });
  EXPECT_TRUE(saw_last);
  EXPECT_GE(pieces, reference.size() / kPiece);
  EXPECT_EQ(cat, reference);  // concatenation == the single-frame path
}

/// Chunks of encode_chunked, checked as they arrive: every piece but the
/// last is exactly `max_piece` bytes. Returns their concatenation.
std::vector<uint8_t> chunked_bytes(const Graph& g, Ref type, const Value& v,
                                   size_t max_piece) {
  std::vector<uint8_t> cat;
  bool saw_last = false;
  wire::encode_chunked(g, type, v, max_piece,
                       [&](std::vector<uint8_t>&& piece, bool last) {
                         EXPECT_FALSE(saw_last);
                         if (last) {
                           EXPECT_LE(piece.size(), max_piece);
                           saw_last = true;
                         } else {
                           EXPECT_EQ(piece.size(), max_piece);
                         }
                         cat.insert(cat.end(), piece.begin(), piece.end());
                       });
  EXPECT_TRUE(saw_last);
  return cat;
}

TEST(Streaming, PackedStringEmitsBoundedPiecesByteIdentical) {
  std::string text(4u << 20, '\0');
  Rng rng(4);
  for (char& c : text) c = static_cast<char>(rng.below(256));
  const Value packed = Value::string(text);
  ASSERT_TRUE(packed.packed_chars().has_value());
  Graph g;
  for (auto rep : {stype::Repertoire::Latin1, stype::Repertoire::Unicode}) {
    Ref str = g.list_of(g.character(rep));
    Ref rec = g.record({g.integer(0, 9), str, g.integer(0, 70000)});
    const Value inv =
        Value::record({Value::integer(3), packed, Value::integer(65536)});
    const std::vector<uint8_t> reference = wire::encode(g, rec, inv);
    EXPECT_EQ(chunked_bytes(g, rec, inv, 256 * 1024), reference);
    // Pieces smaller than a length prefix or a 4-byte char.
    const Value small =
        Value::record({Value::integer(3), Value::string(text.substr(0, 40)),
                       Value::integer(7)});
    for (size_t piece : {1, 3, 5, 64}) {
      EXPECT_EQ(chunked_bytes(g, rec, small, piece), wire::encode(g, rec, small))
          << "piece " << piece;
    }
  }
}

TEST(Streaming, MarshalChunkedMatchesEncode) {
  // The engine's chunked marshal must match its single-buffer marshal and
  // the oracle byte-for-byte under the same piece bound. The plan is the
  // identity, so the oracle's convert-then-encode is wire::encode itself.
  Graph g;
  Ref seq = four_mib_type(g);
  Value v = four_mib_value();
  auto full = compare::compare_full(g, seq, g, seq);
  ASSERT_EQ(full.verdict, compare::Verdict::Equivalent);
  planir::Program p =
      planir::compile_marshal(full.to_right.plan, full.to_right.root, g, seq);
  planir::require_valid(p);

  runtime::ThreadedEngine te(p);
  std::vector<uint8_t> reference = wire::encode(g, seq, v);
  ASSERT_GE(reference.size(), 4u << 20);
  EXPECT_EQ(te.marshal(v), reference);

  constexpr size_t kPiece = 256 * 1024;
  auto collect = [&](auto&& marshal_chunked) {
    std::vector<uint8_t> cat;
    marshal_chunked([&](std::vector<uint8_t>&& piece, bool last) {
      if (!last) {
        EXPECT_EQ(piece.size(), kPiece);
      }
      EXPECT_LE(piece.size(), kPiece);  // the 256 KiB per-buffer ceiling
      cat.insert(cat.end(), piece.begin(), piece.end());
    });
    return cat;
  };
  EXPECT_EQ(collect([&](const runtime::PieceSink& emit) {
              te.marshal_chunked(v, kPiece, emit);
            }),
            reference);
}

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

  a.send_streaming(p, g, seq, v);
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

// struct { uint8_t tag; uint16_t count; float ratio; }, natural C layout
// (the same image tests/rpc/rpc_test.cpp marshals un-chunked).
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

TEST(Streaming, NativeChunkedMarshalMatchesSingleBuffer) {
  Graph g;
  Ref msg = g.record({g.integer(0, 255), g.integer(0, 65535), g.real(24, 8)},
                     {"tag", "count", "ratio"});
  auto full = compare::compare_full(g, msg, g, msg);
  ASSERT_EQ(full.verdict, compare::Verdict::Equivalent);
  auto layout = tagged_layout();
  planir::Program p = planir::compile_native_marshal(
      full.to_right.plan, full.to_right.root, g, msg, layout);
  planir::require_valid(p);

  runtime::NativeHeap heap;
  uint64_t base = heap.alloc(8, 4);
  heap.write_uint(base + 0, 1, 5);
  heap.write_uint(base + 2, 2, 31000);
  heap.write_f32(base + 4, 0.75f);

  runtime::ThreadedEngine te(p);
  std::vector<uint8_t> reference;
  te.marshal_native_into(heap, base, reference);
  const Value image = runtime::read_image(*layout, 0, heap, base);
  EXPECT_EQ(reference,
            wire::encode(g, msg,
                         runtime::Converter(full.to_right.plan)
                             .apply(full.to_right.root, image)));

  std::vector<uint8_t> cat;
  te.marshal_native_chunked(
      heap, base, 3, [&](std::vector<uint8_t>&& piece, bool last) {
        if (!last) {
          EXPECT_EQ(piece.size(), 3u);
        }
        EXPECT_LE(piece.size(), 3u);
        cat.insert(cat.end(), piece.begin(), piece.end());
      });
  EXPECT_EQ(cat, reference);
}

TEST(Streaming, NativeStubStreamingSendAcrossTiers) {
  // NativeStub::send_streaming must deliver the same value at both tiers;
  // the Compiled tier (contiguous dlopen'd stubs) streams through the
  // engine's chunked marshal rather than staging one buffer.
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
  const Value expect = Value::record(
      {Value::integer(3), Value::integer(777), Value::real(2.25)});

  const bool cc = std::system("cc --version > /dev/null 2>&1") == 0;
  for (auto tier : {NativeStub::Tier::Threaded, NativeStub::Tier::Compiled}) {
    if (tier == NativeStub::Tier::Compiled && !cc) continue;
    const char* name =
        tier == NativeStub::Tier::Compiled ? "compiled" : "threaded";
    ReliabilityOptions ro;
    ro.max_frame_payload = wire::kChunkHeaderSize + 3;  // 3-byte pieces
    Node client(1, ro), server(2);
    auto [lc, ls] = transport::make_inproc_pair();
    client.connect(2, std::move(lc));
    server.connect(1, std::move(ls));
    std::vector<Value> got;
    uint64_t p =
        server.open_port(&g, msg, [&](const Value& v) { got.push_back(v); });
    NativeStub stub(client, full.to_right.plan, full.to_right.root, g, msg,
                    layout, tier);
    EXPECT_EQ(stub.tier(), tier) << name;
    stub.send_streaming(p, heap, base);
    pump({&client, &server});
    ASSERT_EQ(got.size(), 1u) << name;
    EXPECT_EQ(got[0], expect) << name;
    EXPECT_EQ(client.stats().messages_chunked, 1u) << name;
    EXPECT_GE(client.stats().chunks_sent, 2u) << name;
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
    a.send_streaming(p, g, bytes, v);
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
    a.send_streaming(p, g, bytes, v1);
  }
  {
    obs::ContextGuard g2(obs::TraceContext{0xBBBB, 2, true});
    a.send_streaming(p, g, bytes, v2);
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
