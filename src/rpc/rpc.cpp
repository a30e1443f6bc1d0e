#include "rpc/rpc.hpp"

#include <algorithm>
#include <cstring>
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
struct RpcMetrics {
  obs::Counter& calls = obs::counter("rpc.calls");
  obs::Histogram& call_ns = obs::histogram("rpc.call_ns");
};
RpcMetrics& rm() {
  static RpcMetrics m;
  return m;
}

/// Hands a send's payload buffer back to the pool however the send ends, a
/// throw included.
class ReleaseToPool {
 public:
  ReleaseToPool(wire::BufferPool& pool, std::vector<uint8_t>& buf)
      : pool_(pool), buf_(buf) {}
  ~ReleaseToPool() { pool_.release(std::move(buf_)); }
  ReleaseToPool(const ReleaseToPool&) = delete;
  ReleaseToPool& operator=(const ReleaseToPool&) = delete;

 private:
  wire::BufferPool& pool_;
  std::vector<uint8_t>& buf_;
};
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
  PeerState& ps = peers_[peer];
  ps.link = std::move(link);
  ps.sequenced = ps.sequenced || !ps.link->reliable();
}

void Node::transmit(PeerState& ps, PeerState::Pending& p) {
  stats_.bytes_sent.add(p.bytes.size());
  p.backoff = relopts_.initial_backoff;
  p.next_resend_tick = tick_ + p.backoff;
  ps.resend_heap.emplace(p.next_resend_tick, p.seq);
  ps.link->send(p.bytes, {});
}

void Node::send(uint64_t dest_port, const Graph& g, Ref msg_type, Value v) {
  if (is_local(dest_port)) {
    local_queue_.emplace_back(dest_port, std::move(v));
    return;
  }
  std::vector<uint8_t> payload = pool_.acquire();
  const ReleaseToPool release(pool_, payload);
  wire::encode_into(g, msg_type, v, payload);
  send_frame(dest_port, payload);
}

void Node::send_marshaled(uint64_t dest_port, std::vector<uint8_t> payload) {
  const ReleaseToPool release(pool_, payload);
  if (is_local(dest_port)) {
    // Local delivery needs the Value back; the port's registered type is
    // authoritative (exactly what poll() does for arriving frames).
    auto it = ports_.find(dest_port);
    if (it == ports_.end()) {
      stats_.unknown_port_drops.add();
      return;
    }
    local_queue_.emplace_back(
        dest_port, wire::decode(*it->second.graph, it->second.msg_type, payload));
    return;
  }
  send_frame(dest_port, payload);
}

void Node::note_queue_depth(const PeerState& ps) {
  stats_.max_inflight.set_max(ps.unacked.size());
  stats_.max_queue_depth.set_max(ps.unacked.size() + ps.backlog.size());
}

void Node::emit_frame(uint64_t dest_port, wire::FrameKind kind,
                      std::span<const uint8_t> sub,
                      std::span<const uint8_t> body) {
  uint16_t dest_node = node_of(dest_port);
  auto it = peers_.find(dest_node);
  if (it == peers_.end()) {
    throw TransportError("node " + std::to_string(id_) + " has no link to node " +
                         std::to_string(dest_node));
  }
  PeerState& ps = it->second;
  wire::FrameHeader h;
  h.kind = kind;
  h.origin_node = id_;
  if (ps.sequenced) {
    h.seq = ps.next_seq++;
    h.cum_ack = ps.cum_recv;  // piggybacked ack for the reverse direction
  }
  h.dest_port = dest_port;
  // Stamp the caller's trace context (innermost open span, or a context
  // adopted from an upstream frame) so the receiver can open its handling
  // spans as children. Packed into the frame bytes, so retransmits carry
  // it verbatim.
  const obs::TraceContext ctx = obs::current_context();
  if (ctx.valid()) {
    h.trace_id = ctx.trace_id;
    h.parent_span_id = ctx.span_id;
    h.sampled = ctx.sampled;
  }
  if (kind == wire::FrameKind::Chunk) {
    stats_.chunks_sent.add();
  } else {
    stats_.frames_sent.add();
  }
  // Header and chunk sub-header are packed on the stack; the body stays
  // where the encoder put it.
  uint8_t head[wire::kMaxFrameHeaderSize + wire::kChunkHeaderSize];
  size_t n = wire::pack_header(h, sub.size() + body.size(), head);
  if (!sub.empty()) std::memcpy(head + n, sub.data(), sub.size());
  n += sub.size();

  if (!ps.sequenced) {
    stats_.bytes_sent.add(n + body.size());
    ps.link->send({head, n}, body);
    return;
  }
  PeerState::Pending p;
  p.seq = h.seq;
  p.bytes = pool_.acquire();
  p.bytes.reserve(n + body.size());
  p.bytes.insert(p.bytes.end(), head, head + n);
  p.bytes.insert(p.bytes.end(), body.begin(), body.end());
  if (ps.unacked.size() >= relopts_.send_window) {
    ps.backlog.push_back(std::move(p));
    ps.queued_bytes += ps.backlog.back().held();
    note_queue_depth(ps);
    return;
  }
  transmit(ps, p);
  ps.unacked.push_back(std::move(p));
  ps.queued_bytes += ps.unacked.back().held();
  note_queue_depth(ps);
}

void Node::send_frame(uint64_t dest_port, std::span<const uint8_t> payload) {
  if (payload.size() <= relopts_.max_frame_payload) {
    emit_frame(dest_port, wire::FrameKind::Data, {}, payload);
    return;
  }
  // Oversized payload: slice into CHUNK frames so no single frame exceeds
  // max_frame_payload. Each chunk frame's payload is sub-header + piece,
  // so pieces leave room for the sub-header.
  const size_t piece_max = relopts_.max_frame_payload > wire::kChunkHeaderSize
                               ? relopts_.max_frame_payload - wire::kChunkHeaderSize
                               : 1;
  stats_.messages_chunked.add();
  wire::ChunkInfo info;
  info.msg_id = next_msg_id_++;
  uint8_t sub[wire::kChunkHeaderSize];
  size_t off = 0;
  while (off < payload.size()) {
    size_t n = std::min(piece_max, payload.size() - off);
    bool last = off + n == payload.size();
    info.flags = last ? wire::kChunkFlagLast : 0;
    wire::pack_chunk_header(info, sub);
    emit_frame(dest_port, wire::FrameKind::Chunk, sub,
               {payload.data() + off, n});
    info.index++;
    off += n;
  }
}

void Node::apply_cum_ack(PeerState& ps, uint64_t cum_ack) {
  while (!ps.unacked.empty() && ps.unacked.front().seq <= cum_ack) {
    // The delivery layer is done with this frame: its buffer goes back to
    // the pool for the next send.
    ps.queued_bytes -= ps.unacked.front().held();
    pool_.release(std::move(ps.unacked.front().bytes));
    ps.unacked.pop_front();
  }
  // Freed window space admits backlogged frames.
  while (!ps.backlog.empty() && ps.unacked.size() < relopts_.send_window) {
    PeerState::Pending p = std::move(ps.backlog.front());
    ps.backlog.pop_front();
    ps.queued_bytes -= p.held();
    transmit(ps, p);
    ps.unacked.push_back(std::move(p));
    ps.queued_bytes += ps.unacked.back().held();
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
  stats_.max_dedup_window.set_max(ps.ooo.size());
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
    // While the link holds unsent bytes a copy would only queue behind
    // them, and its ack with it: due frames wait until the link drains.
    if (ps.link->held_bytes() != 0) return;
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
      stats_.frames_expired.add(ps.unacked.size() + ps.backlog.size());
      for (auto& dead : ps.unacked) pool_.release(std::move(dead.bytes));
      for (auto& dead : ps.backlog) pool_.release(std::move(dead.bytes));
      ps.unacked.clear();
      ps.backlog.clear();
      ps.queued_bytes = 0;
      ps.resend_heap = {};
      return;
    }
    it->retries_used++;
    it->backoff = std::min(it->backoff * 2, relopts_.max_backoff);
    it->next_resend_tick = tick_ + it->backoff;
    ps.resend_heap.emplace(it->next_resend_tick, it->seq);
    stats_.retransmits.add();
    stats_.bytes_sent.add(it->bytes.size());
    ps.link->send(it->bytes, {});
  }
}

void Node::dispatch(uint64_t port_id, const Value& v) {
  auto it = ports_.find(port_id);
  if (it == ports_.end()) {
    stats_.unknown_port_drops.add();
    return;
  }
  // Copy the handler out first: once-ports close before running (the
  // handler itself may open/close ports).
  auto handler = it->second.handler;
  if (it->second.once) ports_.erase(it);
  // A handler that throws (its reply port unreachable, a message shaped for
  // another port) loses its request, not the node: the drain goes on.
  try {
    handler(v);
  } catch (const std::exception&) {
    note_decode_fault("rpc.handler_fault");
  }
}

size_t Node::deliver_local() {
  // Local deliveries queued before this round (messages enqueued by the
  // handlers run here are processed on the next round, keeping rounds fair).
  size_t processed = 0;
  std::vector<std::pair<uint64_t, Value>> batch;
  batch.swap(local_queue_);
  for (auto& [port_id, v] : batch) {
    stats_.local_deliveries.add();
    dispatch(port_id, v);
    ++processed;
  }
  return processed;
}

void Node::drop_stream(PeerState& ps,
                       std::map<uint32_t, PeerState::Reassembly>::iterator it) {
  ps.reassembly_bytes -= it->second.bytes;
  pool_.release(std::move(it->second.data));
  ps.reassembly.erase(it);
}

size_t Node::accept_chunk(PeerState& ps, const wire::FrameView& frame) {
  wire::ChunkView cv;
  try {
    cv = wire::parse_chunk(frame.payload, frame.len);
  } catch (const WireError&) {
    note_decode_fault("rpc.chunk_fault");
    return 0;
  }
  stats_.chunks_received.add();
  auto it = ps.reassembly.find(cv.info.msg_id);
  if ((cv.info.flags & wire::kChunkFlagAbort) != 0) {
    if (it != ps.reassembly.end()) {
      drop_stream(ps, it);
      stats_.chunk_aborts.add();
      obs::FlightRecorder::global().fault("rpc.chunk_abort");
    }
    return 0;
  }
  if (it == ps.reassembly.end()) {
    // No more open streams than the byte budget admits full-sized ones, so
    // streams of tiny pieces cannot pin bookkeeping the budget misses.
    const size_t max_streams =
        relopts_.reassembly_limit /
        std::max<size_t>(relopts_.max_frame_payload, 1);
    if (ps.reassembly.size() >= max_streams) {
      stats_.chunk_aborts.add();
      obs::FlightRecorder::global().fault("rpc.reassembly_limit");
      return 0;
    }
    it = ps.reassembly.emplace(cv.info.msg_id, PeerState::Reassembly{}).first;
    it->second.data = pool_.acquire();
  }
  PeerState::Reassembly& r = it->second;
  r.dest_port = frame.dest_port;
  if (r.trace_id == 0 && frame.trace_id != 0) {
    r.trace_id = frame.trace_id;
    r.parent_span_id = frame.parent_span_id;
    r.sampled = frame.sampled;
  }
  const uint32_t idx = cv.info.index;
  if (idx < r.next || r.ahead.count(idx) != 0 ||
      (r.total != 0 && idx >= r.total)) {
    return 0;  // a repeated or stale piece: the stream already has it
  }
  if (ps.reassembly_bytes + cv.len > relopts_.reassembly_limit) {
    // The peer's open streams would exceed the buffering cap; discard this
    // one and everything it collected.
    drop_stream(ps, it);
    stats_.chunk_aborts.add();
    obs::FlightRecorder::global().fault("rpc.reassembly_limit");
    return 0;
  }
  ps.reassembly_bytes += cv.len;
  r.bytes += cv.len;
  if ((cv.info.flags & wire::kChunkFlagLast) != 0) r.total = idx + 1;
  if (idx != r.next) {
    r.ahead.emplace(idx, std::vector<uint8_t>(cv.data, cv.data + cv.len));
    return 0;
  }
  r.data.insert(r.data.end(), cv.data, cv.data + cv.len);
  r.next++;
  for (auto a = r.ahead.begin(); a != r.ahead.end() && a->first == r.next;
       a = r.ahead.erase(a)) {
    r.data.insert(r.data.end(), a->second.begin(), a->second.end());
    r.next++;
  }
  if (r.total == 0 || r.next < r.total) return 0;

  // Stream complete: deliver the concatenation like one frame.
  std::vector<uint8_t> whole = std::move(r.data);
  const uint64_t dest_port = r.dest_port;
  // Deliver on behalf of the stream's trace (stored from its first
  // chunk), not whatever context the final chunk's drain round holds.
  obs::ContextGuard adopt(
      obs::TraceContext{r.trace_id, r.parent_span_id, r.sampled});
  ps.reassembly_bytes -= r.bytes;
  ps.reassembly.erase(it);
  stats_.messages_reassembled.add();
  auto port = ports_.find(dest_port);
  if (port == ports_.end()) {
    stats_.unknown_port_drops.add();
    pool_.release(std::move(whole));
    return 0;
  }
  Value v;
  try {
    v = wire::decode(*port->second.graph, port->second.msg_type, whole);
  } catch (const WireError&) {
    pool_.release(std::move(whole));
    note_decode_fault("rpc.marshal_fault");
    return 0;
  }
  stats_.frames_received.add();
  dispatch(dest_port, v);
  // Released after the handler, so its reply is not encoded into this
  // buffer (that cost a 128 KiB echo about 70 µs of daemon CPU).
  pool_.release(std::move(whole));
  return 1;
}

size_t Node::drain_peer(PeerState& ps) {
  size_t processed = 0;
  while (auto bytes = ps.link->poll()) {
    wire::FrameView f;
    try {
      f = wire::view_frame(bytes->data(), bytes->size());
    } catch (const WireError&) {
      // A malformed frame must not take the node down: drop it, count it,
      // and leave the recent past in the flight recorder.
      note_decode_fault("rpc.frame_fault");
      continue;
    }
    // A peer that numbers its frames runs the sublayer toward us: answer
    // in kind from now on (acks, and retransmission of what we send).
    if (f.seq != 0) ps.sequenced = true;
    // Every frame carries the peer's cumulative ack; retire covered
    // retransmit entries whether it is DATA or an explicit ACK.
    apply_cum_ack(ps, f.cum_ack);
    if (f.kind == wire::FrameKind::Ack) {
      stats_.acks_received.add();
      continue;
    }
    if (f.seq != 0) {
      if (!accept_seq(ps, f.seq)) {
        stats_.duplicates_dropped.add();
        ps.ack_due = true;  // re-ack: the ack for this frame was likely lost
        continue;
      }
      ps.ack_due = true;
    }
    // Work on behalf of the frame's originating trace while handling it:
    // spans opened by the port handler (serve.request, compare, marshal)
    // become children of the sender's rpc.call span.
    obs::ContextGuard adopt(
        obs::TraceContext{f.trace_id, f.parent_span_id, f.sampled});
    if (f.kind == wire::FrameKind::Chunk) {
      processed += accept_chunk(ps, f);
      continue;
    }
    auto it = ports_.find(f.dest_port);
    if (it == ports_.end()) {
      stats_.unknown_port_drops.add();
      continue;
    }
    Value v;
    try {
      v = wire::decode(*it->second.graph, it->second.msg_type, f.payload, f.len);
    } catch (const WireError&) {
      note_decode_fault("rpc.marshal_fault");
      continue;
    }
    stats_.frames_received.add();
    dispatch(f.dest_port, v);
    ++processed;
  }
  return processed;
}

void Node::note_decode_fault(const char* reason) {
  stats_.decode_faults.add();
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
  wire::FrameHeader ack;
  ack.kind = wire::FrameKind::Ack;
  ack.origin_node = id_;
  ack.cum_ack = ps.cum_recv;
  uint8_t head[wire::kMaxFrameHeaderSize];
  const size_t n = wire::pack_header(ack, 0, head);
  stats_.acks_sent.add();
  stats_.bytes_sent.add(n);
  ps.link->send({head, n}, {});
  ps.ack_due = false;
}

size_t Node::poll() {
  tick_++;
  size_t processed = deliver_local();
  for (auto& [peer, ps] : peers_) {
    (void)peer;
    processed += drain_peer(ps);
    retransmit_due(ps);
    flush_ack(ps);
  }
  return processed;
}

size_t Node::poll_peer(uint16_t peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  size_t processed = drain_peer(it->second);
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
  for (auto& [msg_id, r] : ps.reassembly) pool_.release(std::move(r.data));
  peers_.erase(it);
}

size_t Node::send_queue_depth(uint16_t peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  return it->second.unacked.size() + it->second.backlog.size();
}

size_t Node::held_bytes(uint16_t peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  // On a sequenced channel the link's unsent bytes copy queued frames.
  const PeerState& ps = it->second;
  return ps.sequenced ? ps.queued_bytes : ps.link->held_bytes();
}

size_t Node::oldest_retries(uint16_t peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.unacked.empty()) return 0;
  return it->second.unacked.front().retries_used;
}

bool Node::has_pending() const {
  for (const auto& [peer, ps] : peers_) {
    (void)peer;
    if (!ps.unacked.empty() || !ps.backlog.empty() ||
        ps.link->held_bytes() != 0) {
      return true;
    }
  }
  return false;
}

bool Node::needs_tick() const {
  for (const auto& [peer, ps] : peers_) {
    (void)peer;
    if (!ps.unacked.empty() || !ps.backlog.empty() || ps.ack_due) return true;
  }
  return false;
}

size_t Node::reassembly_bytes() const {
  size_t total = 0;
  for (const auto& [peer, ps] : peers_) {
    (void)peer;
    total += ps.reassembly_bytes;
  }
  return total;
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
        node.send(reply_port, g, out_type, impl(args));
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
        node.send(reply_port, g, out_types.at(arm), methods.at(arm)(args));
      });
}

namespace {

/// The wait loop behind call_function and call_method: open a once reply
/// port, send Record(args, port(reply)) to `dest` — wrapped as arm `arm` of
/// the object's choice when one is given — and poll `nodes` until the reply
/// lands, the deadline passes, or nothing is left in flight.
Value await_call(Node& client, uint64_t dest, const Graph& g, Ref msg_type,
                 Ref out_type, const Value& args, std::optional<uint32_t> arm,
                 const std::vector<Node*>& nodes, const CallOptions& options) {
  // One span per call covering send -> ack -> reply; the retransmit and
  // backoff behaviour during the window lands in the notes.
  obs::Span span("rpc.call");
  obs::ScopedTimer timer(rm().call_ns);
  rm().calls.add();
  const uint64_t retrans0 = client.stats().retransmits;
  std::optional<Value> reply;
  uint64_t reply_port = client.open_port(
      &g, out_type, [&reply](const Value& v) { reply = v; }, /*once=*/true);
  // Built in place: an initializer list would copy `args` twice.
  std::vector<Value> parts;
  parts.reserve(2);
  parts.push_back(args);
  parts.push_back(Value::port(reply_port));
  Value invocation = Value::record(std::move(parts));
  if (arm) invocation = Value::choice(*arm, std::move(invocation));
  client.send(dest, g, msg_type, std::move(invocation));

  size_t quiet = 0;
  for (size_t round = 0; round < options.max_rounds; ++round) {
    size_t processed = 0;
    for (Node* n : nodes) processed += n->poll();
    if (reply) {
      if (span.recording()) {
        if (arm) span.note("arm", static_cast<uint64_t>(*arm));
        span.note("rounds", static_cast<uint64_t>(round + 1));
        span.note("retransmits", client.stats().retransmits - retrans0);
      }
      return std::move(*reply);
    }
    bool pending = false;
    for (Node* n : nodes) pending = pending || n->has_pending();
    quiet = (processed == 0 && !pending) ? quiet + 1 : 0;
    // Retransmissions exhausted (or never started) with no reply in flight
    // anywhere: waiting out the full deadline cannot help.
    if (quiet > 2) break;
  }
  client.close_port(reply_port);
  client.note_timed_out_call();
  if (span.recording()) {
    span.note("retransmits", client.stats().retransmits - retrans0);
    span.note("timeout", "true");
  }
  throw CallTimeoutError(std::string(arm ? "method call" : "call") +
                         " timed out waiting for reply (deadline " +
                         std::to_string(options.max_rounds) + " rounds)");
}

}  // namespace

Value call_function(Node& client, uint64_t fn_port, const Graph& g,
                    Ref invocation_type, const Value& args,
                    const std::vector<Node*>& nodes, const CallOptions& options) {
  return await_call(client, fn_port, g, invocation_type,
                    reply_msg_type(g, invocation_type), args, std::nullopt,
                    nodes, options);
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
  return await_call(client, obj_port, g, r, reply_msg_type(g, n.children[arm]),
                    args, arm, nodes, options);
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
  try {
    marshal_into(heap, addr, buf);
  } catch (...) {
    // An image that fails a read-time check sends nothing.
    node_.buffer_pool().release(std::move(buf));
    throw;
  }
  node_.send_marshaled(dest_port, std::move(buf));
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
