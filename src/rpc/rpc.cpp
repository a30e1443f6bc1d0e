#include "rpc/rpc.hpp"

#include <algorithm>
#include <optional>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planir/planir.hpp"
#include "runtime/layout.hpp"
#include "support/error.hpp"

namespace mbird::rpc {

using mtype::Graph;
using mtype::MKind;
using mtype::Ref;

namespace {
// Registry mirrors of NodeStats (DESIGN.md §4h). The per-node struct
// stays authoritative for Node::stats(); these aggregate every node in
// the process so `mbird stats`, batch reports and bench counters see
// delivery-layer behaviour without holding Node pointers.
struct RpcMetrics {
  obs::Counter& frames_sent = obs::counter("rpc.frames_sent");
  obs::Counter& frames_received = obs::counter("rpc.frames_received");
  obs::Counter& bytes_sent = obs::counter("rpc.bytes_sent");
  obs::Counter& local_deliveries = obs::counter("rpc.local_deliveries");
  obs::Counter& duplicates_dropped = obs::counter("rpc.duplicates_dropped");
  obs::Counter& unknown_port_drops = obs::counter("rpc.unknown_port_drops");
  obs::Counter& retransmits = obs::counter("rpc.retransmits");
  obs::Counter& acks_sent = obs::counter("rpc.acks_sent");
  obs::Counter& acks_received = obs::counter("rpc.acks_received");
  obs::Counter& frames_expired = obs::counter("rpc.frames_expired");
  obs::Counter& timed_out_calls = obs::counter("rpc.timed_out_calls");
  obs::Counter& calls = obs::counter("rpc.calls");
  obs::Counter& chunks_sent = obs::counter("rpc.chunks_sent");
  obs::Counter& chunks_received = obs::counter("rpc.chunks_received");
  obs::Counter& messages_chunked = obs::counter("rpc.messages_chunked");
  obs::Counter& messages_reassembled = obs::counter("rpc.messages_reassembled");
  obs::Counter& chunk_aborts = obs::counter("rpc.chunk_aborts");
  obs::Counter& decode_faults = obs::counter("rpc.decode_faults");
  obs::Gauge& max_inflight = obs::gauge("rpc.max_inflight");
  obs::Gauge& max_dedup_window = obs::gauge("rpc.max_dedup_window");
  obs::Gauge& send_queue_depth = obs::gauge("rpc.peer.send_queue_depth");
  obs::Histogram& call_ns = obs::histogram("rpc.call_ns");
};
RpcMetrics& rm() {
  static RpcMetrics m;
  return m;
}
}  // namespace

uint64_t Node::open_port(const Graph* g, Ref msg_type,
                         std::function<void(const Value&)> handler, bool once) {
  uint64_t id = (static_cast<uint64_t>(id_) << 48) | next_port_++;
  ports_.emplace(id, Port{g, msg_type, std::move(handler), once});
  return id;
}

void Node::close_port(uint64_t port) { ports_.erase(port); }

bool Node::is_once_port(uint64_t port) const {
  auto it = ports_.find(port);
  return it != ports_.end() && it->second.once;
}

void Node::connect(uint16_t peer, std::shared_ptr<transport::Link> link) {
  peers_[peer].link = std::move(link);
}

void Node::transmit(PeerState& ps, PeerState::Pending& p) {
  stats_.bytes_sent += p.bytes.size();
  rm().bytes_sent.add(p.bytes.size());
  p.backoff = relopts_.initial_backoff;
  p.next_resend_tick = tick_ + p.backoff;
  ps.resend_heap.emplace(p.next_resend_tick, p.seq);
  ps.link->send(p.bytes);
}

void Node::send(uint64_t dest_port, const Graph& g, Ref msg_type, const Value& v) {
  if (is_local(dest_port)) {
    local_queue_.emplace_back(dest_port, v);
    return;
  }
  // Encode into a pooled buffer; send_frame returns it once framed.
  std::vector<uint8_t> payload = pool_.acquire();
  wire::encode_into(g, msg_type, v, payload);
  send_frame(dest_port, std::move(payload));
}

void Node::send_marshaled(uint64_t dest_port, std::vector<uint8_t> payload) {
  if (is_local(dest_port)) {
    // Local delivery needs the Value back; the port's registered type is
    // authoritative (exactly what poll() does for arriving frames).
    auto it = ports_.find(dest_port);
    if (it == ports_.end()) {
      stats_.unknown_port_drops++;
      rm().unknown_port_drops.add();
      return;
    }
    local_queue_.emplace_back(
        dest_port, wire::decode(*it->second.graph, it->second.msg_type, payload));
    return;
  }
  send_frame(dest_port, std::move(payload));
}

void Node::note_queue_depth(const PeerState& ps) {
  if (ps.unacked.size() > stats_.max_inflight) {
    stats_.max_inflight = ps.unacked.size();
    rm().max_inflight.set_max(static_cast<int64_t>(stats_.max_inflight));
  }
  size_t depth = ps.unacked.size() + ps.backlog.size();
  if (depth > stats_.max_queue_depth) {
    stats_.max_queue_depth = depth;
    rm().send_queue_depth.set_max(static_cast<int64_t>(depth));
  }
}

void Node::send_frame_kind(uint64_t dest_port, wire::FrameKind kind,
                           std::vector<uint8_t> payload) {
  uint16_t dest_node = node_of(dest_port);
  auto it = peers_.find(dest_node);
  if (it == peers_.end()) {
    throw TransportError("node " + std::to_string(id_) + " has no link to node " +
                         std::to_string(dest_node));
  }
  PeerState& ps = it->second;
  wire::Frame f;
  f.kind = kind;
  f.origin_node = id_;
  f.seq = ps.next_seq++;
  f.cum_ack = ps.cum_recv;  // piggybacked ack for the reverse direction
  f.dest_port = dest_port;
  // Stamp the caller's trace context (innermost open span, or a context
  // adopted from an upstream frame) so the receiver can open its handling
  // spans as children. Packed into the frame bytes, so retransmits carry
  // it verbatim.
  const obs::TraceContext ctx = obs::current_context();
  if (ctx.valid()) {
    f.trace_id = ctx.trace_id;
    f.parent_span_id = ctx.span_id;
    f.sampled = ctx.sampled;
  }
  f.payload = std::move(payload);
  if (kind == wire::FrameKind::Chunk) {
    stats_.chunks_sent++;
    rm().chunks_sent.add();
  } else {
    stats_.frames_sent++;
    rm().frames_sent.add();
  }

  PeerState::Pending p;
  p.seq = f.seq;
  p.bytes = pool_.acquire();
  wire::pack_frame_into(f, p.bytes);
  // The payload's bytes now live in the frame buffer; recycle the payload
  // buffer (regardless of where the caller got it — the pool adopts any
  // vector).
  pool_.release(std::move(f.payload));
  if (ps.unacked.size() >= relopts_.send_window) {
    ps.backlog.push_back(std::move(p));
    note_queue_depth(ps);
    return;
  }
  transmit(ps, p);
  ps.unacked.push_back(std::move(p));
  note_queue_depth(ps);
}

void Node::send_frame(uint64_t dest_port, std::vector<uint8_t> payload) {
  if (payload.size() <= relopts_.max_frame_payload) {
    send_frame_kind(dest_port, wire::FrameKind::Data, std::move(payload));
    return;
  }
  // Oversized payload: slice into CHUNK frames so no single frame buffer
  // exceeds max_frame_payload. Each chunk frame's payload is sub-header +
  // piece, so pieces leave room for the sub-header.
  const size_t piece_max = relopts_.max_frame_payload > wire::kChunkHeaderSize
                               ? relopts_.max_frame_payload - wire::kChunkHeaderSize
                               : 1;
  stats_.messages_chunked++;
  rm().messages_chunked.add();
  wire::ChunkInfo info;
  info.msg_id = next_msg_id_++;
  size_t off = 0;
  while (off < payload.size()) {
    size_t n = std::min(piece_max, payload.size() - off);
    bool last = off + n == payload.size();
    info.flags = last ? wire::kChunkFlagLast : 0;
    std::vector<uint8_t> chunk = pool_.acquire();
    wire::pack_chunk_into(info, payload.data() + off, n, chunk);
    send_frame_kind(dest_port, wire::FrameKind::Chunk, std::move(chunk));
    info.index++;
    off += n;
  }
  pool_.release(std::move(payload));
}

void Node::send_chunked(
    uint64_t dest_port,
    const std::function<void(size_t max_piece,
                             const runtime::PieceSink& emit)>& produce) {
  const size_t piece_max = relopts_.max_frame_payload > wire::kChunkHeaderSize
                               ? relopts_.max_frame_payload - wire::kChunkHeaderSize
                               : 1;
  if (is_local(dest_port)) {
    // No wire to bound: collect the pieces and deliver like send_marshaled.
    std::vector<uint8_t> buf = pool_.acquire();
    produce(piece_max, [&buf](std::vector<uint8_t>&& piece, bool) {
      buf.insert(buf.end(), piece.begin(), piece.end());
    });
    send_marshaled(dest_port, std::move(buf));
    return;
  }
  // Fail before producing anything if there is no link to the destination.
  if (peers_.find(node_of(dest_port)) == peers_.end()) {
    throw TransportError("node " + std::to_string(id_) + " has no link to node " +
                         std::to_string(node_of(dest_port)));
  }
  // Hold the first piece back one step: a single-piece message (and the
  // exactly-one-chunk boundary, where the final piece is empty) degrades to
  // a plain DATA frame instead of a one-chunk stream.
  struct StreamState {
    std::vector<uint8_t> held;
    bool have_held = false;
    bool started = false;
    wire::ChunkInfo info;
  } st;
  auto flush_held_as_chunk = [&](bool last) {
    st.info.flags = last ? wire::kChunkFlagLast : 0;
    std::vector<uint8_t> chunk = pool_.acquire();
    wire::pack_chunk_into(st.info, st.held.data(), st.held.size(), chunk);
    send_frame_kind(dest_port, wire::FrameKind::Chunk, std::move(chunk));
    st.info.index++;
  };
  try {
    produce(piece_max, [&](std::vector<uint8_t>&& piece, bool last) {
      if (!st.have_held) {
        if (last) {
          // Single piece: plain DATA, indistinguishable from send_marshaled.
          send_frame_kind(dest_port, wire::FrameKind::Data, std::move(piece));
          st.started = false;
          st.have_held = true;  // consume: no further pieces expected
          return;
        }
        st.held = std::move(piece);
        st.have_held = true;
        return;
      }
      if (!st.started) {
        if (last && piece.empty()) {
          // Exactly-one-chunk boundary: the held piece IS the message.
          send_frame_kind(dest_port, wire::FrameKind::Data, std::move(st.held));
          return;
        }
        st.started = true;
        st.info.msg_id = next_msg_id_++;
        stats_.messages_chunked++;
        rm().messages_chunked.add();
        flush_held_as_chunk(/*last=*/false);
      }
      st.held = std::move(piece);
      flush_held_as_chunk(last);
    });
  } catch (...) {
    if (st.started) {
      // Chunks already escaped; tell the receiver to discard the stream.
      st.info.flags = wire::kChunkFlagAbort;
      std::vector<uint8_t> chunk = pool_.acquire();
      wire::pack_chunk_into(st.info, nullptr, 0, chunk);
      send_frame_kind(dest_port, wire::FrameKind::Chunk, std::move(chunk));
    }
    throw;
  }
}

void Node::send_streaming(uint64_t dest_port, const Graph& g, Ref msg_type,
                          const Value& v) {
  if (is_local(dest_port)) {
    send(dest_port, g, msg_type, v);
    return;
  }
  send_chunked(dest_port,
               [&](size_t max_piece, const runtime::PieceSink& emit) {
                 wire::encode_chunked(g, msg_type, v, max_piece, emit);
               });
}

void Node::apply_cum_ack(PeerState& ps, uint64_t cum_ack) {
  while (!ps.unacked.empty() && ps.unacked.front().seq <= cum_ack) {
    // The delivery layer is done with this frame: its buffer goes back to
    // the pool for the next send.
    pool_.release(std::move(ps.unacked.front().bytes));
    ps.unacked.pop_front();
  }
  // Freed window space admits backlogged frames.
  while (!ps.backlog.empty() && ps.unacked.size() < relopts_.send_window) {
    PeerState::Pending p = std::move(ps.backlog.front());
    ps.backlog.pop_front();
    transmit(ps, p);
    ps.unacked.push_back(std::move(p));
    note_queue_depth(ps);
  }
}

bool Node::accept_seq(PeerState& ps, uint64_t seq) {
  if (seq <= ps.cum_recv || ps.ooo.count(seq) != 0) return false;
  ps.ooo.insert(seq);
  while (ps.ooo.count(ps.cum_recv + 1) != 0) {
    ps.ooo.erase(ps.cum_recv + 1);
    ps.cum_recv++;
  }
  // Bound the window even if the sender abandoned a sequence and left a
  // permanent gap: fold the oldest entries into cum_recv. A late frame
  // below the forced cum is then mistaken for a duplicate — at-most-once
  // delivery is preserved, memory stays O(dedup_window).
  while (ps.ooo.size() > relopts_.dedup_window) {
    ps.cum_recv = *ps.ooo.begin();
    ps.ooo.erase(ps.ooo.begin());
    while (ps.ooo.count(ps.cum_recv + 1) != 0) {
      ps.ooo.erase(ps.cum_recv + 1);
      ps.cum_recv++;
    }
  }
  if (ps.ooo.size() > stats_.max_dedup_window) {
    stats_.max_dedup_window = ps.ooo.size();
    rm().max_dedup_window.set_max(static_cast<int64_t>(stats_.max_dedup_window));
  }
  return true;
}

void Node::retransmit_due(PeerState& ps) {
  // The deadline heap makes this O(expired log n) instead of a full scan of
  // the retransmit queue: only entries whose deadline has passed are popped.
  // Entries go stale when a frame is acked (gone from `unacked`) or was
  // re-scheduled (stored deadline no longer matches); stale pops are
  // skipped. Each live Pending has exactly one matching heap entry, pushed
  // by transmit() or by the retransmission below.
  while (!ps.resend_heap.empty() && ps.resend_heap.top().first <= tick_) {
    auto [due, seq] = ps.resend_heap.top();
    ps.resend_heap.pop();
    auto it = std::lower_bound(
        ps.unacked.begin(), ps.unacked.end(), seq,
        [](const PeerState::Pending& p, uint64_t s) { return p.seq < s; });
    if (it == ps.unacked.end() || it->seq != seq || it->next_resend_tick != due) {
      continue;  // acked or re-scheduled since this entry was pushed
    }
    if (it->retries_used >= relopts_.max_retries) {
      // A frame that spends its retries declares the channel dead for
      // whatever is queued: keeping the rest pending could never complete
      // (cumulative acks cannot pass the gap), so drop it all and let
      // callers time out.
      stats_.frames_expired += ps.unacked.size() + ps.backlog.size();
      rm().frames_expired.add(ps.unacked.size() + ps.backlog.size());
      for (auto& dead : ps.unacked) pool_.release(std::move(dead.bytes));
      for (auto& dead : ps.backlog) pool_.release(std::move(dead.bytes));
      ps.unacked.clear();
      ps.backlog.clear();
      ps.resend_heap = {};
      return;
    }
    it->retries_used++;
    it->backoff = std::min(it->backoff * 2, relopts_.max_backoff);
    it->next_resend_tick = tick_ + it->backoff;
    ps.resend_heap.emplace(it->next_resend_tick, it->seq);
    stats_.retransmits++;
    stats_.bytes_sent += it->bytes.size();
    rm().retransmits.add();
    rm().bytes_sent.add(it->bytes.size());
    ps.link->send(it->bytes);
  }
}

void Node::dispatch(uint64_t port_id, const Value& v) {
  auto it = ports_.find(port_id);
  if (it == ports_.end()) {
    stats_.unknown_port_drops++;
    rm().unknown_port_drops.add();
    return;
  }
  // Copy the handler out first: once-ports close before running (the
  // handler itself may open/close ports).
  auto handler = it->second.handler;
  if (it->second.once) ports_.erase(it);
  handler(v);
}

size_t Node::deliver_local() {
  // Local deliveries queued before this round (messages enqueued by the
  // handlers run here are processed on the next round, keeping rounds fair).
  size_t processed = 0;
  std::vector<std::pair<uint64_t, Value>> batch;
  batch.swap(local_queue_);
  for (auto& [port_id, v] : batch) {
    stats_.local_deliveries++;
    rm().local_deliveries.add();
    dispatch(port_id, v);
    ++processed;
  }
  return processed;
}

size_t Node::accept_chunk(uint16_t peer_id, PeerState& ps,
                          const wire::Frame& frame) {
  (void)peer_id;
  wire::ChunkView cv;
  try {
    cv = wire::parse_chunk(frame.payload);
  } catch (const WireError&) {
    note_decode_fault("rpc.chunk_fault");
    return 0;
  }
  stats_.chunks_received++;
  rm().chunks_received.add();
  if ((cv.info.flags & wire::kChunkFlagAbort) != 0) {
    if (ps.reassembly.erase(cv.info.msg_id) != 0) {
      stats_.chunk_aborts++;
      rm().chunk_aborts.add();
      obs::FlightRecorder::global().fault("rpc.chunk_abort");
    }
    return 0;
  }
  PeerState::Reassembly& r = ps.reassembly[cv.info.msg_id];
  r.dest_port = frame.dest_port;
  if (r.trace_id == 0 && frame.trace_id != 0) {
    r.trace_id = frame.trace_id;
    r.parent_span_id = frame.parent_span_id;
    r.sampled = frame.sampled;
  }
  if (r.bytes + cv.len > relopts_.reassembly_limit) {
    // Stream exceeded the buffering cap; discard everything collected.
    ps.reassembly.erase(cv.info.msg_id);
    stats_.chunk_aborts++;
    rm().chunk_aborts.add();
    obs::FlightRecorder::global().fault("rpc.reassembly_limit");
    return 0;
  }
  r.bytes += cv.len;
  r.pieces.emplace(cv.info.index,
                   std::vector<uint8_t>(cv.data, cv.data + cv.len));
  if ((cv.info.flags & wire::kChunkFlagLast) != 0) r.total = cv.info.index + 1;
  if (r.total == 0 || r.pieces.size() < r.total) return 0;

  // Stream complete: concatenate in index order and deliver like one frame.
  std::vector<uint8_t> whole = pool_.acquire();
  whole.reserve(r.bytes);
  for (auto& [idx, piece] : r.pieces) {
    (void)idx;
    whole.insert(whole.end(), piece.begin(), piece.end());
  }
  uint64_t dest_port = r.dest_port;
  // Deliver on behalf of the stream's trace (stored from its first
  // chunk), not whatever context the final chunk's drain round holds.
  obs::ContextGuard adopt(
      obs::TraceContext{r.trace_id, r.parent_span_id, r.sampled});
  ps.reassembly.erase(cv.info.msg_id);
  stats_.messages_reassembled++;
  rm().messages_reassembled.add();
  auto it = ports_.find(dest_port);
  if (it == ports_.end()) {
    stats_.unknown_port_drops++;
    rm().unknown_port_drops.add();
    pool_.release(std::move(whole));
    return 0;
  }
  Value v;
  try {
    v = wire::decode(*it->second.graph, it->second.msg_type, whole);
  } catch (const WireError&) {
    pool_.release(std::move(whole));
    note_decode_fault("rpc.marshal_fault");
    return 0;
  }
  pool_.release(std::move(whole));
  stats_.frames_received++;
  rm().frames_received.add();
  dispatch(dest_port, v);
  return 1;
}

size_t Node::drain_peer(uint16_t peer_id, PeerState& ps) {
  size_t processed = 0;
  while (auto bytes = ps.link->poll()) {
    wire::Frame f;
    try {
      f = wire::unpack_frame(*bytes);
    } catch (const WireError&) {
      // A malformed frame must not take the node down: drop it, count it,
      // and leave the recent past in the flight recorder.
      note_decode_fault("rpc.frame_fault");
      continue;
    }
    // Every frame carries the peer's cumulative ack; retire covered
    // retransmit entries whether it is DATA or an explicit ACK.
    apply_cum_ack(ps, f.cum_ack);
    if (f.kind == wire::FrameKind::Ack) {
      stats_.acks_received++;
      rm().acks_received.add();
      continue;
    }
    if (!accept_seq(ps, f.seq)) {
      stats_.duplicates_dropped++;
      rm().duplicates_dropped.add();
      ps.ack_due = true;  // re-ack: the ack for this frame was likely lost
      continue;
    }
    ps.ack_due = true;
    // Work on behalf of the frame's originating trace while handling it:
    // spans opened by the port handler (serve.request, compare, marshal)
    // become children of the sender's rpc.call span.
    obs::ContextGuard adopt(
        obs::TraceContext{f.trace_id, f.parent_span_id, f.sampled});
    if (f.kind == wire::FrameKind::Chunk) {
      processed += accept_chunk(peer_id, ps, f);
      continue;
    }
    auto it = ports_.find(f.dest_port);
    if (it == ports_.end()) {
      stats_.unknown_port_drops++;
      rm().unknown_port_drops.add();
      continue;
    }
    Value v;
    try {
      v = wire::decode(*it->second.graph, it->second.msg_type, f.payload);
    } catch (const WireError&) {
      note_decode_fault("rpc.marshal_fault");
      continue;
    }
    stats_.frames_received++;
    rm().frames_received.add();
    dispatch(f.dest_port, v);
    ++processed;
  }
  return processed;
}

void Node::note_decode_fault(const char* reason) {
  stats_.decode_faults++;
  rm().decode_faults.add();
  // Pin the faulting request's identity into the ring before the dump: the
  // decode never reached a handler, so no span would otherwise tie the
  // dump to the trace that caused it. The drain loop's ContextGuard holds
  // the frame's own context here (zeros for an unparseable frame).
  auto& fr = obs::FlightRecorder::global();
  if (fr.enabled()) {
    const obs::TraceContext ctx = obs::current_context();
    fr.record(reason, obs::now_ns(), 0, ctx.trace_id, 0, ctx.span_id);
  }
  fr.fault(reason);
}

void Node::flush_ack(PeerState& ps) {
  if (!ps.ack_due) return;
  wire::Frame ack;
  ack.kind = wire::FrameKind::Ack;
  ack.origin_node = id_;
  ack.cum_ack = ps.cum_recv;
  auto ack_bytes = wire::pack_frame(ack);
  stats_.acks_sent++;
  stats_.bytes_sent += ack_bytes.size();
  rm().acks_sent.add();
  rm().bytes_sent.add(ack_bytes.size());
  ps.link->send(std::move(ack_bytes));
  ps.ack_due = false;
}

size_t Node::poll() {
  tick_++;
  size_t processed = deliver_local();
  for (auto& [peer, ps] : peers_) {
    processed += drain_peer(peer, ps);
    retransmit_due(ps);
    flush_ack(ps);
  }
  return processed;
}

size_t Node::poll_peer(uint16_t peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  size_t processed = drain_peer(peer, it->second);
  flush_ack(it->second);
  return processed;
}

size_t Node::tick() {
  tick_++;
  size_t processed = deliver_local();
  for (auto& [peer, ps] : peers_) {
    (void)peer;
    retransmit_due(ps);
    flush_ack(ps);
  }
  return processed;
}

void Node::disconnect(uint16_t peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& ps = it->second;
  for (auto& p : ps.unacked) pool_.release(std::move(p.bytes));
  for (auto& p : ps.backlog) pool_.release(std::move(p.bytes));
  peers_.erase(it);
}

size_t Node::send_queue_depth(uint16_t peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  return it->second.unacked.size() + it->second.backlog.size();
}

bool Node::has_pending() const {
  for (const auto& [peer, ps] : peers_) {
    (void)peer;
    if (!ps.unacked.empty() || !ps.backlog.empty()) return true;
  }
  return false;
}

size_t Node::dedup_entries() const {
  size_t total = 0;
  for (const auto& [peer, ps] : peers_) {
    (void)peer;
    total += ps.ooo.size();
  }
  return total;
}

PumpResult pump(const std::vector<Node*>& nodes, size_t max_rounds) {
  PumpResult result;
  for (; result.rounds < max_rounds; ++result.rounds) {
    size_t processed = 0;
    for (Node* n : nodes) processed += n->poll();
    result.processed += processed;
    if (processed != 0) continue;
    // A quiet round is only quiescence when no node still owes the wire a
    // retransmission or has frames waiting for window space.
    bool pending = false;
    for (Node* n : nodes) pending = pending || n->has_pending();
    if (!pending) return result;
  }
  result.hit_round_budget = true;
  return result;
}

/// For an invocation type Record(I, port(O)), fetch O.
Ref reply_msg_type(const Graph& g, Ref invocation_type) {
  Ref r = mtype::skip_var(g, invocation_type);
  const auto& inv = g.at(r);
  if (inv.kind != MKind::Record || inv.children.size() != 2) {
    throw MbError("invocation type is not Record(I, port(O)): " +
                  mtype::print(g, invocation_type));
  }
  const auto& port = g.at(inv.children[1]);
  if (port.kind != MKind::Port) {
    throw MbError("invocation type's second child is not a port");
  }
  return port.body();
}

uint64_t serve_function(Node& node, const Graph& g, Ref invocation_type,
                        std::function<Value(const Value&)> impl) {
  Ref out_type = reply_msg_type(g, invocation_type);
  return node.open_port(
      &g, invocation_type,
      [&node, &g, out_type, impl = std::move(impl)](const Value& inv) {
        const Value& args = inv.at(0);
        uint64_t reply_port = inv.at(1).as_port();
        Value out = impl(args);
        node.send(reply_port, g, out_type, out);
      });
}

uint64_t serve_object(Node& node, const Graph& g, Ref choice_type,
                      std::vector<std::function<Value(const Value&)>> methods) {
  Ref r = mtype::skip_var(g, choice_type);
  const auto& n = g.at(r);

  // One-method objects lower to port(Record(I, port(O))) directly.
  if (n.kind == MKind::Record) {
    if (methods.size() != 1) {
      throw MbError("object type has one method; got " +
                    std::to_string(methods.size()) + " implementations");
    }
    return serve_function(node, g, r, std::move(methods[0]));
  }
  if (n.kind != MKind::Choice) {
    throw MbError("object type is not a choice of methods");
  }
  if (methods.size() != n.children.size()) {
    throw MbError("method count mismatch: type has " +
                  std::to_string(n.children.size()) + ", got " +
                  std::to_string(methods.size()));
  }
  std::vector<Ref> out_types;
  out_types.reserve(n.children.size());
  for (Ref c : n.children) out_types.push_back(reply_msg_type(g, c));

  return node.open_port(
      &g, r,
      [&node, &g, out_types, methods = std::move(methods)](const Value& msg) {
        uint32_t arm = msg.arm();
        const Value& inv = msg.inner();
        const Value& args = inv.at(0);
        uint64_t reply_port = inv.at(1).as_port();
        Value out = methods.at(arm)(args);
        node.send(reply_port, g, out_types.at(arm), out);
      });
}

Value call_function(Node& client, uint64_t fn_port, const Graph& g,
                    Ref invocation_type, const Value& args,
                    const std::vector<Node*>& nodes, const CallOptions& options) {
  // One span per call covering send -> ack -> reply; the retransmit and
  // backoff behaviour during the window lands in the notes.
  obs::Span span("rpc.call");
  obs::ScopedTimer timer(rm().call_ns);
  rm().calls.add();
  const uint64_t retrans0 = client.stats().retransmits;
  Ref out_type = reply_msg_type(g, invocation_type);
  std::optional<Value> reply;
  uint64_t reply_port = client.open_port(
      &g, out_type, [&reply](const Value& v) { reply = v; }, /*once=*/true);

  Value invocation = Value::record({args, Value::port(reply_port)});
  client.send(fn_port, g, invocation_type, invocation);

  size_t quiet = 0;
  for (size_t round = 0; round < options.max_rounds; ++round) {
    size_t processed = 0;
    for (Node* n : nodes) processed += n->poll();
    if (reply) {
      if (span.recording()) {
        span.note("rounds", static_cast<uint64_t>(round + 1));
        span.note("retransmits", client.stats().retransmits - retrans0);
      }
      return *reply;
    }
    bool pending = false;
    for (Node* n : nodes) pending = pending || n->has_pending();
    quiet = (processed == 0 && !pending) ? quiet + 1 : 0;
    if (options.resend_every != 0 && quiet >= options.resend_every) {
      client.send(fn_port, g, invocation_type, invocation);
      quiet = 0;
    } else if (options.resend_every == 0 && quiet > 2) {
      // Retransmissions exhausted (or never started) with no reply in
      // flight anywhere: waiting out the full deadline cannot help.
      break;
    }
  }
  client.close_port(reply_port);
  client.note_timed_out_call();
  rm().timed_out_calls.add();
  if (span.recording()) {
    span.note("retransmits", client.stats().retransmits - retrans0);
    span.note("timeout", "true");
  }
  throw CallTimeoutError("call timed out waiting for reply (deadline " +
                         std::to_string(options.max_rounds) + " rounds)");
}

Value call_method(Node& client, uint64_t obj_port, const Graph& g,
                  Ref choice_type, uint32_t arm, const Value& args,
                  const std::vector<Node*>& nodes, const CallOptions& options) {
  Ref r = mtype::skip_var(g, choice_type);
  const auto& n = g.at(r);
  if (n.kind == MKind::Record) {
    return call_function(client, obj_port, g, r, args, nodes, options);
  }
  if (n.kind != MKind::Choice || arm >= n.children.size()) {
    throw MbError("bad method arm");
  }
  Ref inv_type = n.children[arm];
  Ref out_type = reply_msg_type(g, inv_type);

  obs::Span span("rpc.call");
  obs::ScopedTimer timer(rm().call_ns);
  rm().calls.add();
  const uint64_t retrans0 = client.stats().retransmits;
  std::optional<Value> reply;
  uint64_t reply_port = client.open_port(
      &g, out_type, [&reply](const Value& v) { reply = v; }, /*once=*/true);
  Value invocation =
      Value::choice(arm, Value::record({args, Value::port(reply_port)}));
  client.send(obj_port, g, r, invocation);

  size_t quiet = 0;
  for (size_t round = 0; round < options.max_rounds; ++round) {
    size_t processed = 0;
    for (Node* nd : nodes) processed += nd->poll();
    if (reply) {
      if (span.recording()) {
        span.note("arm", static_cast<uint64_t>(arm));
        span.note("rounds", static_cast<uint64_t>(round + 1));
        span.note("retransmits", client.stats().retransmits - retrans0);
      }
      return *reply;
    }
    bool pending = false;
    for (Node* nd : nodes) pending = pending || nd->has_pending();
    quiet = (processed == 0 && !pending) ? quiet + 1 : 0;
    if (options.resend_every != 0 && quiet >= options.resend_every) {
      client.send(obj_port, g, r, invocation);
      quiet = 0;
    } else if (options.resend_every == 0 && quiet > 2) {
      break;
    }
  }
  client.close_port(reply_port);
  client.note_timed_out_call();
  rm().timed_out_calls.add();
  if (span.recording()) {
    span.note("retransmits", client.stats().retransmits - retrans0);
    span.note("timeout", "true");
  }
  throw CallTimeoutError("method call timed out waiting for reply (deadline " +
                         std::to_string(options.max_rounds) + " rounds)");
}

namespace {

/// One engine per PortMap node and direction, built the first time a proxy
/// for that node needs it: `convert` serves proxies whose original port is
/// local; `marshal` runs the fused convert+encode program for remote
/// originals. Shared (by shared_ptr) across every proxy an adapter spawns,
/// including nested ones. Node handlers deliver on one thread, matching the
/// engine's single-thread contract.
struct ProxyEngines {
  struct Entry {
    std::unique_ptr<const runtime::ThreadedEngine> convert;
    std::unique_ptr<const runtime::ThreadedEngine> marshal;
  };
  std::map<plan::PlanRef, Entry> by_portmap;
};

uint64_t open_proxy(Node& node, const plan::PlanGraph& plans, const Graph& left,
                    const Graph& right,
                    const std::shared_ptr<ProxyEngines>& cache,
                    uint64_t src_port, plan::PlanRef portmap_ref) {
  const plan::PlanNode& pm = plans.at(portmap_ref);
  const Graph& dst_graph = pm.port_dst_in_left ? left : right;
  const Graph& src_graph = pm.port_src_in_left ? left : right;
  const Ref src_msg = pm.port_src_msg;

  // The proxy accepts dst-shaped messages, converts them back to the src
  // shape (contravariance), and forwards to the original port. When the
  // original port is remote, the forwarded message would be encoded for
  // the wire anyway, so run the fused convert+marshal program and hand the
  // bytes straight to the reliability layer — the src-shaped Value is
  // never materialized.
  const bool remote = !node.is_local(src_port);
  ProxyEngines::Entry& entry = cache->by_portmap[portmap_ref];
  auto& slot = remote ? entry.marshal : entry.convert;
  if (!slot) {
    auto prog = std::make_shared<const planir::Program>(
        remote ? planir::compile_marshal(plans, pm.inner, src_graph, src_msg)
               : planir::compile(plans, pm.inner));
    // Messages may themselves carry ports, so the engine wraps them with
    // this same adapter. It holds the cache weakly: the cache owns the
    // engine, and an engine only runs inside a proxy handler, which holds
    // the cache.
    std::weak_ptr<ProxyEngines> weak = cache;
    slot = std::make_unique<const runtime::ThreadedEngine>(
        std::move(prog),
        [&node, &plans, &left, &right, weak](uint64_t port,
                                             plan::PlanRef pm_ref) {
          return open_proxy(node, plans, left, right, weak.lock(), port,
                            pm_ref);
        });
  }
  const runtime::ThreadedEngine* engine = slot.get();
  return node.open_port(
      &dst_graph, pm.port_dst_msg,
      [&node, cache, engine, src_port, &src_graph, src_msg,
       remote](const Value& v) {
        if (remote) {
          std::vector<uint8_t> buf = node.buffer_pool().acquire();
          engine->marshal_into(v, buf);
          node.send_marshaled(src_port, std::move(buf));
        } else {
          node.send(src_port, src_graph, src_msg, engine->apply(v));
        }
      },
      /*once=*/!remote && node.is_once_port(src_port));
}

}  // namespace

runtime::PortAdapter make_port_adapter(Node& node, const plan::PlanGraph& plans,
                                       const Graph& left, const Graph& right) {
  return [&node, &plans, &left, &right,
          cache = std::make_shared<ProxyEngines>()](uint64_t src_port,
                                                    plan::PlanRef portmap_ref) {
    return open_proxy(node, plans, left, right, cache, src_port, portmap_ref);
  };
}

NativeStub::NativeStub(Node& node, const plan::PlanGraph& plans,
                       plan::PlanRef root, const mtype::Graph& dst_graph,
                       mtype::Ref dst_msg,
                       std::shared_ptr<const runtime::ImageLayout> layout,
                       Tier tier, runtime::PortAdapter port_adapter,
                       runtime::CustomRegistry custom)
    : node_(node),
      engine_(std::make_shared<const planir::Program>(
                  planir::compile_native_marshal(plans, root, dst_graph,
                                                 dst_msg, std::move(layout))),
              std::move(port_adapter), std::move(custom)) {
  if (tier == Tier::Compiled) {
    stub_ = codegen::StubCache::process().get(engine_.program());
  }
}

void NativeStub::send(uint64_t dest_port, const runtime::NativeHeap& heap,
                      uint64_t addr) {
  std::vector<uint8_t> buf = node_.buffer_pool().acquire();
  marshal_into(heap, addr, buf);
  node_.send_marshaled(dest_port, std::move(buf));
}

void NativeStub::send_streaming(uint64_t dest_port,
                                const runtime::NativeHeap& heap, uint64_t addr) {
  if (node_.is_local(dest_port)) {
    send(dest_port, heap, addr);
    return;
  }
  // Compiled stubs write one contiguous output buffer, so the Compiled tier
  // cannot stream; use the engine's chunked marshal (same bytes, same fault
  // ordering).
  node_.send_chunked(
      dest_port, [&](size_t max_piece, const runtime::PieceSink& emit) {
        engine_.marshal_native_chunked(heap, addr, max_piece, emit);
      });
}

std::vector<uint8_t> NativeStub::marshal(const runtime::NativeHeap& heap,
                                         uint64_t addr) const {
  std::vector<uint8_t> out;
  marshal_into(heap, addr, out);
  return out;
}

void NativeStub::marshal_into(const runtime::NativeHeap& heap, uint64_t addr,
                              std::vector<uint8_t>& out) const {
  if (stub_) {
    // One bounds probe covers the whole image (the verifier pins every
    // stub access inside the layout); the stub then runs check-free.
    uint64_t img_size = engine_.program().src_layout->size;
    const uint8_t* img = img_size != 0 ? heap.at(addr, img_size) : nullptr;
    size_t mark = out.size();
    out.resize(mark + stub_->wire_size());
    size_t n = stub_->fn()(img, out.data() + mark);
    if (n != static_cast<size_t>(-1)) {
      out.resize(mark + n);
      return;
    }
    // The stub signals a marshaling fault without the message; re-run on
    // the engine, which performs the same checks in the same order and
    // throws the precise typed error.
    out.resize(mark);
  }
  engine_.marshal_native_into(heap, addr, out);
}

}  // namespace mbird::rpc
