// Mtype-driven wire format (CDR-style) and frame headers.
//
// Network-enabled stubs marshal Values guided by the Mtype of the port the
// message is sent to. The encoding is range-aware, as the Mtype model
// invites: an Integer Mtype's range picks its wire width (Int[0..255] costs
// one byte), characters cost 1 or 4 bytes by repertoire, reals 4 or 8 bytes
// by precision, and canonical lists are length-prefixed sequences.
// Multi-byte quantities are big-endian ("network order").
//
// A string — a list of chars in a 1-byte repertoire (Ascii or Latin1) — is
// therefore its u32 length followed by one run of bytes. decode() takes the
// run whole into a packed runtime::Value List, checking the claimed length
// against the bytes left first; encode() writes a packed List to a 1-byte
// repertoire with one append, and to anything else element by element.
//
// Frames (one per transported message):
//   magic "MBIR" | version u16 | kind u8 | origin node u16 | seq u64 |
//   cum_ack u64 | dest port u64 | payload len u32 | payload bytes
//
// Version 2 added the frame kind (DATA / ACK) and the cumulative-ack field
// that the rpc reliability sublayer uses for retransmission: every frame
// carries the highest contiguous sequence its sender has received on that
// channel, and ACK frames carry nothing else (seq 0, no payload).
//
// seq 0 on a DATA or CHUNK frame marks it unsequenced: its sender runs no
// reliability sublayer toward this peer (a stream link already delivers
// every frame once and in order), so the receiver delivers it without
// dedup and never acks it; its cum_ack is 0. Sequenced senders number from
// 1, so both kinds share the v2 format.
//
// The send path packs only the header (pack_header, into a stack buffer)
// and hands the payload to the link as a second byte run; the receive path
// parses the header in place (view_frame) and decodes straight from the
// payload bytes it points at.
//
// A frame may carry an optional trace-context extension (DESIGN.md §4l):
// the high bit of the kind byte marks its presence, and 17 extension
// bytes (trace id u64 | parent span id u64 | flags u8, bit 0 = sampled)
// sit between the fixed header and the payload. payload len still counts
// payload bytes only. Retransmits resend the packed bytes, preserving the
// extension verbatim.
//
// CHUNK frames carry one encoded message in bounded pieces, so no single
// frame of a multi-megabyte payload exceeds the sender's frame bound. The
// sender encodes the message once and splits the encoded bytes; a chunk's
// payload starts with a 9-byte sub-header (message id, piece index, flags)
// followed by that piece's bytes. The receiver reassembles pieces of a
// message id in index order and delivers the concatenation exactly as if a
// single DATA frame had arrived. Chunks are sequenced exactly when DATA
// is: on a sequenced channel loss and reordering are handled below
// reassembly, and on a stream link pieces arrive in order anyway. A message
// that fits one frame is sent as plain DATA.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mtype/mtype.hpp"
#include "runtime/value.hpp"
#include "support/error.hpp"

namespace mbird::wire {

inline constexpr uint16_t kVersion = 2;

/// Encode `v` (shaped like `type` in `g`) to bytes.
[[nodiscard]] std::vector<uint8_t> encode(const mtype::Graph& g, mtype::Ref type,
                                          const runtime::Value& v);

/// Append the encoding of `v` to `out` — the zero-allocation variant for
/// callers recycling buffers (see BufferPool). If encoding throws, `out` is
/// trimmed back to its original length.
void encode_into(const mtype::Graph& g, mtype::Ref type,
                 const runtime::Value& v, std::vector<uint8_t>& out);

/// Decode bytes back into a Value shaped like `type`. Throws WireError on
/// truncated or malformed input (every byte must be consumed).
[[nodiscard]] runtime::Value decode(const mtype::Graph& g, mtype::Ref type,
                                    const std::vector<uint8_t>& bytes);

/// Span-based overload: decode `len` bytes at `data` without requiring the
/// caller to own a vector (frame payload views, pooled buffers).
[[nodiscard]] runtime::Value decode(const mtype::Graph& g, mtype::Ref type,
                                    const uint8_t* data, size_t len);

/// Wire width (bytes) of an Integer Mtype with the given range.
[[nodiscard]] unsigned int_width(Int128 lo, Int128 hi);

enum class FrameKind : uint8_t {
  Data = 0,   // carries a marshaled message for dest_port
  Ack = 1,    // carries only cum_ack (seq 0, empty payload)
  Chunk = 2,  // one bounded piece of a segmented DATA message
};

/// Every frame field but the payload.
struct FrameHeader {
  FrameKind kind = FrameKind::Data;
  uint16_t origin_node = 0;
  /// The sender's sequence number on a sequenced channel (from 1); 0 marks
  /// an unsequenced frame.
  uint64_t seq = 0;
  /// Highest contiguous sequence the sender has received on this channel
  /// (0 when nothing has been received yet). Piggybacked on every frame.
  uint64_t cum_ack = 0;
  uint64_t dest_port = 0;
  /// Trace-context extension: nonzero trace_id packs the 17-byte
  /// extension after the header (kind-byte flag kFrameFlagTrace set).
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;
};

struct Frame : FrameHeader {
  std::vector<uint8_t> payload;
};

/// A frame parsed in place: the header fields and a view of the payload
/// bytes, which stay in the buffer the frame was parsed from.
struct FrameView : FrameHeader {
  const uint8_t* payload = nullptr;
  size_t len = 0;
};

/// Fixed frame header size: magic + version + kind + origin + seq + cum_ack
/// + dest_port + payload length.
inline constexpr size_t kFrameHeaderSize = 4 + 2 + 1 + 2 + 8 + 8 + 8 + 4;

/// Kind-byte flag: a trace-context extension follows the fixed header.
inline constexpr uint8_t kFrameFlagTrace = 0x80;
/// Trace-context extension size: trace id + parent span id + flags.
inline constexpr size_t kTraceExtSize = 8 + 8 + 1;

/// Largest packed header: the fixed header plus the trace extension.
inline constexpr size_t kMaxFrameHeaderSize = kFrameHeaderSize + kTraceExtSize;

/// Write the header of a frame carrying `payload_len` payload bytes to
/// `out`, which must have room for kMaxFrameHeaderSize bytes. Returns the
/// bytes written; the payload follows them on the wire.
size_t pack_header(const FrameHeader& h, size_t payload_len, uint8_t* out);

/// The whole frame, header and payload, in one buffer.
[[nodiscard]] std::vector<uint8_t> pack_frame(const Frame& f);

/// Parse the `len` frame bytes at `data` without copying the payload.
/// Throws WireError on a bad magic, version or kind, a truncated header or
/// extension, or a payload length that disagrees with `len`.
[[nodiscard]] FrameView view_frame(const uint8_t* data, size_t len);
/// view_frame plus a copy of the payload.
[[nodiscard]] Frame unpack_frame(const std::vector<uint8_t>& bytes);

// ---- CHUNK frames -----------------------------------------------------------

/// Final piece of its message: reassembly completes and delivers.
inline constexpr uint8_t kChunkFlagLast = 0x01;
/// The sender abandons the stream: the receiver discards the partial
/// reassembly. This node never sends it, since it splits messages that are
/// already fully encoded, but a peer may.
inline constexpr uint8_t kChunkFlagAbort = 0x02;

/// Sub-header at the front of every Chunk frame payload:
/// msg_id u32 | index u32 | flags u8.
inline constexpr size_t kChunkHeaderSize = 4 + 4 + 1;

struct ChunkInfo {
  /// Sender-scoped id tying the pieces of one message together. Ids from
  /// different origin nodes are independent namespaces.
  uint32_t msg_id = 0;
  uint32_t index = 0;  // 0-based piece position
  uint8_t flags = 0;
};

/// Write a Chunk frame's sub-header (kChunkHeaderSize bytes) to `out`; the
/// piece bytes follow it in the frame payload.
void pack_chunk_header(const ChunkInfo& info, uint8_t* out);

struct ChunkView {
  ChunkInfo info;
  const uint8_t* data = nullptr;  // piece bytes (borrowed from the payload)
  size_t len = 0;
};

/// Split the `len` bytes of a Chunk frame payload at `payload` back into
/// sub-header + piece bytes. Throws WireError when the payload is shorter
/// than the sub-header.
[[nodiscard]] ChunkView parse_chunk(const uint8_t* payload, size_t len);

// ---- the dynamic type (paper §6: "a dynamic type construct of our own
// which is similar to [CORBA] Any") ------------------------------------------
//
// A self-describing value carries its own Mtype: the structure reachable
// from the type node is serialized ahead of the payload, so a receiver
// that has never seen the declaration can decode — and then Compare — it.

/// Serialize the Mtype structure reachable from `type`.
[[nodiscard]] std::vector<uint8_t> encode_type(const mtype::Graph& g,
                                               mtype::Ref type);
/// Reconstruct a serialized Mtype into `g`; returns the root.
[[nodiscard]] mtype::Ref decode_type(mtype::Graph& g,
                                     const std::vector<uint8_t>& bytes);

struct AnyValue {
  mtype::Graph graph;
  mtype::Ref type = mtype::kNullRef;
  runtime::Value value;
};

[[nodiscard]] std::vector<uint8_t> encode_any(const mtype::Graph& g,
                                              mtype::Ref type,
                                              const runtime::Value& v);
[[nodiscard]] AnyValue decode_any(const std::vector<uint8_t>& bytes);

}  // namespace mbird::wire
