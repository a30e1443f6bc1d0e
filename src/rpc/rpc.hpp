// The port model made executable (paper §3.3).
//
// A Node is one simulated process. Ports are typed message endpoints:
// port(tau) values in the Mtype model become 64-bit endpoint ids here
// ((node id << 48) | local id). Messages to local ports are queued and
// delivered on poll(); messages to remote ports are marshaled with the
// wire format and carried by a transport Link.
//
// On top of raw ports, helpers implement the paper's function model —
// a function reference is port(Record(Inputs, port(Outputs))) — and the
// object model port(Choice(m1..mn)). make_port_adapter() lets the plan
// engine wrap ports contravariantly when conversions cross the network
// (the PortMap op).
//
// Everything is single-threaded and pump-driven for determinism; pump()
// cycles a set of nodes until quiescence.
//
// Remote sends ride a reliability sublayer (per-peer channels): every DATA
// frame is held in a retransmit queue until the peer's cumulative ack covers
// its sequence, retransmissions back off exponentially on the node's logical
// clock (one tick per poll), and a frame whose bounded retries run out tears
// down the channel's queue so pump() can still reach quiescence. Receivers
// dedup with per-peer highest-contiguous-sequence plus a bounded
// out-of-order window, so dedup state is O(window) regardless of traffic.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "codegen/stubcache.hpp"
#include "mtype/mtype.hpp"
#include "plan/plan.hpp"
#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/threaded.hpp"
#include "runtime/value.hpp"
#include "transport/link.hpp"
#include "wire/bufferpool.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {

using runtime::Value;

struct NodeStats {
  uint64_t frames_sent = 0;        // DATA frames submitted by the application
  uint64_t frames_received = 0;    // fresh DATA frames delivered to a port
  uint64_t bytes_sent = 0;         // on-wire bytes incl. retransmits and acks
  uint64_t local_deliveries = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t unknown_port_drops = 0;
  uint64_t retransmits = 0;        // DATA frames re-sent after a backoff tick
  uint64_t acks_sent = 0;          // explicit ACK frames emitted
  uint64_t acks_received = 0;      // explicit ACK frames consumed
  uint64_t frames_expired = 0;     // unacked frames abandoned (retries spent)
  uint64_t timed_out_calls = 0;    // call_* helpers that threw CallTimeoutError
  uint64_t max_inflight = 0;       // high-water unacked DATA frames (per peer)
  uint64_t max_dedup_window = 0;   // high-water out-of-order dedup set size
  uint64_t chunks_sent = 0;        // CHUNK frames submitted
  uint64_t chunks_received = 0;    // fresh CHUNK frames accepted
  uint64_t messages_chunked = 0;   // outbound messages split into chunks
  uint64_t messages_reassembled = 0;  // inbound chunk streams completed
  uint64_t chunk_aborts = 0;       // reassemblies discarded (sender abort/limit)
  uint64_t max_queue_depth = 0;    // high-water unacked+backlog frames (per peer)
  uint64_t decode_faults = 0;      // malformed frames/payloads dropped
};

/// Tuning for the per-peer ack/retransmit machinery. Backoff is measured on
/// the node's logical clock: one tick per poll(), so "2" means "retransmit
/// if no ack after two polls".
struct ReliabilityOptions {
  size_t max_retries = 8;        // retransmissions per frame beyond the first send
  uint64_t initial_backoff = 2;  // ticks before the first retransmission
  uint64_t max_backoff = 64;     // backoff doubles up to this many ticks
  size_t send_window = 64;       // max unacked frames per peer; excess is queued
  size_t dedup_window = 128;     // max out-of-order seqs remembered per peer
  // Payloads above this many bytes are split into CHUNK frames (each chunk
  // rides the normal seq/ack reliability). Bounds the per-frame wire buffer
  // regardless of message size.
  size_t max_frame_payload = 64 * 1024;
  // Cap on buffered bytes per in-progress inbound chunk stream; a stream
  // exceeding it is discarded (counted as a chunk_abort).
  size_t reassembly_limit = 64 * 1024 * 1024;
};

class Node {
 public:
  explicit Node(uint16_t id, ReliabilityOptions reliability = {})
      : id_(id), relopts_(reliability) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] uint16_t id() const { return id_; }
  [[nodiscard]] static uint16_t node_of(uint64_t port) {
    return static_cast<uint16_t>(port >> 48);
  }

  /// Open a port accepting messages of Mtype `msg_type` (in `*g`, which
  /// must outlive the port). `once` ports close after one delivery (reply
  /// ports).
  uint64_t open_port(const mtype::Graph* g, mtype::Ref msg_type,
                     std::function<void(const Value&)> handler,
                     bool once = false);
  void close_port(uint64_t port);
  [[nodiscard]] size_t open_port_count() const { return ports_.size(); }
  /// True when `port` is an open once-port on this node.
  [[nodiscard]] bool is_once_port(uint64_t port) const;

  /// Connect a link toward a peer node.
  void connect(uint16_t peer, std::shared_ptr<transport::Link> link);

  /// True when `port` lives on this node (messages to it short-circuit the
  /// wire; the fused marshal path is only worth taking when this is false).
  [[nodiscard]] bool is_local(uint64_t port) const {
    return node_of(port) == id_;
  }

  /// Send `v` (shaped like msg_type in g) to a port, local or remote.
  void send(uint64_t dest_port, const mtype::Graph& g, mtype::Ref msg_type,
            const Value& v);

  /// Send pre-encoded wire bytes (e.g. from ThreadedEngine::marshal) to a
  /// port.
  /// Remote destinations frame the payload directly — no intermediate Value
  /// is ever built. Local destinations decode against the port's registered
  /// type and queue the Value (an unknown local port counts an
  /// unknown_port_drop immediately). Payloads above max_frame_payload are
  /// split into CHUNK frames transparently.
  void send_marshaled(uint64_t dest_port, std::vector<uint8_t> payload);

  /// Streaming send: `produce(max_piece, emit)` must deliver the message's
  /// wire bytes through `emit` honoring the PieceSink contract (every piece
  /// except the last exactly max_piece bytes). Each piece becomes one CHUNK
  /// frame as it arrives, so peak wire buffering is O(max_frame_payload)
  /// regardless of message size. Single-piece messages degrade to a plain
  /// DATA frame — the receiver cannot tell this path from send_marshaled.
  /// If `produce` throws after pieces were emitted, an abort chunk tells the
  /// receiver to discard the partial stream, then the exception propagates.
  /// Local destinations buffer and decode the concatenation.
  void send_chunked(
      uint64_t dest_port,
      const std::function<void(size_t max_piece,
                               const runtime::PieceSink& emit)>& produce);

  /// Send `v` via the chunked streaming encoder (wire::encode_chunked):
  /// semantically identical to send(), but multi-MB values never stage a
  /// full contiguous wire buffer on the send side.
  void send_streaming(uint64_t dest_port, const mtype::Graph& g,
                      mtype::Ref msg_type, const Value& v);

  /// Deliver pending local messages, drain link frames, retransmit unacked
  /// frames whose backoff expired, and emit acks. Advances the logical
  /// clock by one tick. Returns the number of messages delivered to ports
  /// (reliability traffic — acks, retransmits — is not counted).
  size_t poll();

  /// Reactor-oriented slice of poll(): drain frames from ONE peer's link and
  /// deliver them, without advancing the logical clock or touching other
  /// peers. Returns messages delivered. No-op for unknown peers.
  size_t poll_peer(uint16_t peer);

  /// Reactor-oriented slice of poll(): advance the logical clock one tick,
  /// deliver queued local messages, run retransmit backoff for every peer,
  /// and flush due acks. Returns local messages delivered.
  size_t tick();

  /// Drop the channel toward `peer`: its link, retransmit queue, and
  /// reassembly state. Unacked frames are released (not counted as
  /// expired). Safe for unknown peers.
  void disconnect(uint16_t peer);

  /// True while any peer channel holds unacked or window-queued frames:
  /// the node is not quiescent even if a poll delivers nothing.
  [[nodiscard]] bool has_pending() const;

  /// Outbound frames held for `peer` (unacked + window backlog): the
  /// per-peer send-queue depth the reactor's backpressure watches.
  [[nodiscard]] size_t send_queue_depth(uint16_t peer) const;

  [[nodiscard]] const ReliabilityOptions& reliability() const {
    return relopts_;
  }

  /// Total out-of-order dedup entries across peers (bounded by
  /// dedup_window per peer; exposed for the memory regression tests).
  [[nodiscard]] size_t dedup_entries() const;

  [[nodiscard]] const NodeStats& stats() const { return stats_; }

  /// The node's reusable buffer pool. Payload and frame buffers cycle
  /// through it: send paths acquire, the delivery layer releases once a
  /// frame is acked (or expired), so steady-state sends stop allocating.
  /// Callers producing payloads for send_marshaled may acquire from here
  /// too — send_frame returns every payload buffer to the pool after
  /// framing it.
  [[nodiscard]] wire::BufferPool& buffer_pool() { return pool_; }

  /// Bookkeeping hook for the call_* helpers (they are free functions).
  void note_timed_out_call() { stats_.timed_out_calls++; }

 private:
  struct Port {
    const mtype::Graph* graph;
    mtype::Ref msg_type;
    std::function<void(const Value&)> handler;
    bool once;
  };

  /// One reliability channel toward a peer (both directions of bookkeeping).
  struct PeerState {
    std::shared_ptr<transport::Link> link;
    // Outbound: sequence assignment, the unacked retransmit queue (ordered
    // by seq), and frames waiting for send-window space.
    uint64_t next_seq = 1;
    struct Pending {
      uint64_t seq = 0;
      std::vector<uint8_t> bytes;
      size_t retries_used = 0;
      uint64_t backoff = 0;
      uint64_t next_resend_tick = 0;
    };
    std::deque<Pending> unacked;
    std::deque<Pending> backlog;
    // Deadline index over `unacked`: min-heap of (next_resend_tick, seq)
    // with lazy deletion, so the per-tick retransmit scan touches only due
    // entries instead of walking the whole queue. Entries go stale when a
    // frame is acked or re-scheduled; pops cross-check against the live
    // Pending before acting.
    std::priority_queue<std::pair<uint64_t, uint64_t>,
                        std::vector<std::pair<uint64_t, uint64_t>>,
                        std::greater<>>
        resend_heap;
    // Inbound: highest contiguous seq delivered plus the bounded
    // out-of-order window of delivered seqs above it.
    uint64_t cum_recv = 0;
    std::set<uint64_t> ooo;
    bool ack_due = false;
    // In-progress inbound chunk streams, keyed by sender msg_id. Pieces are
    // stored by index (chunks may arrive out of order within the dedup
    // window); `total` is learned from the Last-flagged chunk.
    struct Reassembly {
      uint64_t dest_port = 0;
      std::map<uint32_t, std::vector<uint8_t>> pieces;
      size_t bytes = 0;
      uint32_t total = 0;  // piece count once known, else 0
      // Trace context of the stream (every chunk carries the sender's;
      // the first to arrive wins), re-adopted when delivery completes.
      uint64_t trace_id = 0;
      uint64_t parent_span_id = 0;
      bool sampled = false;
    };
    std::map<uint32_t, Reassembly> reassembly;
  };

  void dispatch(uint64_t port_id, const Value& v);
  /// Frame `payload` as DATA toward a remote port and hand it to the
  /// reliability machinery (shared tail of send / send_marshaled).
  /// Oversized payloads are split into CHUNK frames.
  void send_frame(uint64_t dest_port, std::vector<uint8_t> payload);
  /// Frame one payload as `kind` toward a remote port (the common tail of
  /// DATA and CHUNK sends).
  void send_frame_kind(uint64_t dest_port, wire::FrameKind kind,
                       std::vector<uint8_t> payload);
  void transmit(PeerState& ps, PeerState::Pending& p);
  void apply_cum_ack(PeerState& ps, uint64_t cum_ack);
  /// Dedup + window bookkeeping for an arriving DATA/CHUNK seq. Returns
  /// false if the frame is a duplicate.
  bool accept_seq(PeerState& ps, uint64_t seq);
  void retransmit_due(PeerState& ps);
  /// Drain and deliver everything `ps`'s link has to offer (shared by
  /// poll() and poll_peer()). Returns messages delivered.
  size_t drain_peer(uint16_t peer_id, PeerState& ps);
  /// Count a malformed frame/payload and poke the flight recorder.
  void note_decode_fault(const char* reason);
  /// Deliver the local-queue batch staged before this round.
  size_t deliver_local();
  /// Emit an explicit ACK frame if one is due for `ps`.
  void flush_ack(PeerState& ps);
  /// Route an accepted CHUNK frame into `ps.reassembly`; dispatches the
  /// message when its stream completes. Returns deliveries (0 or 1).
  size_t accept_chunk(uint16_t peer_id, PeerState& ps,
                      const wire::Frame& frame);
  void note_queue_depth(const PeerState& ps);

  uint16_t id_;
  ReliabilityOptions relopts_;
  wire::BufferPool pool_;
  uint64_t next_port_ = 1;
  uint32_t next_msg_id_ = 1;  // chunk-stream ids (per node, all peers)
  uint64_t tick_ = 0;  // logical clock: one tick per poll()
  std::map<uint64_t, Port> ports_;
  std::map<uint16_t, PeerState> peers_;
  std::vector<std::pair<uint64_t, Value>> local_queue_;
  NodeStats stats_;
};

/// What pump() did: total deliveries, rounds executed, and whether it gave
/// up because the round budget ran out (livelocked handlers, retransmit
/// storms) rather than reaching quiescence. Converts to the delivery count
/// so existing `pump(...) == 0` call sites keep reading naturally.
struct PumpResult {
  size_t processed = 0;
  size_t rounds = 0;
  bool hit_round_budget = false;
  operator size_t() const { return processed; }  // NOLINT(google-explicit-constructor)
};

/// Poll all nodes round-robin until quiescent: a full round processes
/// nothing AND no node holds unacked frames awaiting retransmission.
/// Stops after max_rounds regardless and reports that in the result.
PumpResult pump(const std::vector<Node*>& nodes, size_t max_rounds = 100000);

/// For an invocation type Record(I, port(O)), fetch O — the message type
/// a caller's reply port must register. Throws MbError on other shapes.
[[nodiscard]] mtype::Ref reply_msg_type(const mtype::Graph& g,
                                        mtype::Ref invocation_type);

/// Serve a function: `invocation_type` is Record(I, port(O)) — the child
/// of the function's port Mtype. Returns the function's port id.
uint64_t serve_function(Node& node, const mtype::Graph& g,
                        mtype::Ref invocation_type,
                        std::function<Value(const Value&)> impl);

/// Serve an object: `choice_type` is Choice(m1..mn) (or a single method
/// Record for one-method objects). `methods[i]` implements arm i.
uint64_t serve_object(Node& node, const mtype::Graph& g, mtype::Ref choice_type,
                      std::vector<std::function<Value(const Value&)>> methods);

struct CallOptions {
  /// Deadline: pump rounds to wait for the reply before giving up.
  size_t max_rounds = 100000;
  /// When nonzero, re-send the whole request every `resend_every` quiet
  /// rounds. This is an application-level resend (a NEW sequence number, so
  /// the server may execute twice); the transport-level ack/retransmit
  /// machinery normally makes it unnecessary — idempotent impls only.
  size_t resend_every = 0;
};

/// Synchronous call: build Record(args, port(reply)), send to `fn_port`,
/// pump `nodes` until the reply lands. Throws CallTimeoutError when the
/// deadline passes or every bounded retransmission is exhausted with no
/// reply (the latter is detected early: no reply, nothing in flight).
[[nodiscard]] Value call_function(Node& client, uint64_t fn_port,
                                  const mtype::Graph& g,
                                  mtype::Ref invocation_type, const Value& args,
                                  const std::vector<Node*>& nodes,
                                  const CallOptions& options = {});

/// Invoke method `arm` on an object port typed Choice(m1..mn).
[[nodiscard]] Value call_method(Node& client, uint64_t obj_port,
                                const mtype::Graph& g, mtype::Ref choice_type,
                                uint32_t arm, const Value& args,
                                const std::vector<Node*>& nodes,
                                const CallOptions& options = {});

/// Sender-side zero-copy stub: pairs a coercion plan with the ImageLayout of
/// a native message image once (planir::compile_native_marshal — BlockCopy
/// specialization included), verifies the program a single time, and then
/// marshals native images straight into pooled wire payload buffers on every
/// send. The two-phase equivalent — CReader/read_image, convert, encode — is
/// never run on the hot path, and steady-state sends perform no payload
/// allocation (buffers cycle through the node's BufferPool as frames are
/// acked).
///
/// All referenced objects (node, dst_graph, layout target) must outlive the
/// stub.
///
/// The stub always holds a runtime::ThreadedEngine over the program. Asked
/// for Tier::Compiled, it also loads a dlopen'd C stub from
/// codegen::StubCache and marshals through that; an ineligible program or a
/// missing toolchain leaves it on the engine, and a compiled stub that hits
/// a marshaling fault re-runs the image on the engine so the caller always
/// sees the precise typed error.
class NativeStub {
 public:
  /// Which executor marshals: the engine, or a compiled stub where one can
  /// be built.
  enum class Tier : unsigned char { Threaded, Compiled };

  NativeStub(Node& node, const plan::PlanGraph& plans, plan::PlanRef root,
             const mtype::Graph& dst_graph, mtype::Ref dst_msg,
             std::shared_ptr<const runtime::ImageLayout> layout,
             Tier tier = Tier::Threaded,
             runtime::PortAdapter port_adapter = {},
             runtime::CustomRegistry custom = {});

  /// Marshal the image at `addr` in `heap` and send the bytes to
  /// `dest_port` (local ports decode against the port's registered type,
  /// remote ports frame the payload directly).
  void send(uint64_t dest_port, const runtime::NativeHeap& heap, uint64_t addr);

  /// Streaming variant of send(): marshal through the chunked engine path
  /// so remote sends of multi-MB images emit bounded CHUNK frames instead
  /// of staging one contiguous payload. The Compiled tier (contiguous
  /// dlopen'd stubs) degrades to the engine's chunked marshal here; local
  /// destinations fall back to the plain path.
  void send_streaming(uint64_t dest_port, const runtime::NativeHeap& heap,
                      uint64_t addr);

  /// Marshal without sending (tests, diagnostics).
  [[nodiscard]] std::vector<uint8_t> marshal(const runtime::NativeHeap& heap,
                                             uint64_t addr) const;
  /// Append the marshaled bytes to `out` (the send() path; trims on throw).
  void marshal_into(const runtime::NativeHeap& heap, uint64_t addr,
                    std::vector<uint8_t>& out) const;

  /// The compiled native-marshal program (e.g. to count BlockCopy ops).
  [[nodiscard]] const planir::Program& program() const {
    return engine_.program();
  }
  /// The tier this stub actually runs (after automatic degradation).
  [[nodiscard]] Tier tier() const {
    return stub_ ? Tier::Compiled : Tier::Threaded;
  }

 private:
  Node& node_;
  runtime::ThreadedEngine engine_;
  std::shared_ptr<const codegen::CompiledStub> stub_;  // Compiled tier
};

/// A PortAdapter for runtime::Converter or a runtime::ThreadedEngine that
/// realizes PortMap ops as converting proxy ports on `node`. `left`/`right`
/// are the two graphs the plan's port_*_in_left flags refer to (the
/// comparison's first and second graphs). Each PortMap node's message plan
/// is lowered to PlanIR and loaded into an engine once, on the first proxy
/// that needs it, and cached for as long as the adapter or any of its
/// proxies lives; proxies forwarding to a remote port use the fused
/// convert+marshal program, so dst-shaped messages become src-shaped wire
/// bytes without materializing the converted Value. A proxy standing in
/// for a local once-port (a call's reply port) is itself a once-port, so
/// per-call proxies close after their reply. All referenced objects must
/// outlive the converted values.
[[nodiscard]] runtime::PortAdapter make_port_adapter(
    Node& node, const plan::PlanGraph& plans, const mtype::Graph& left,
    const mtype::Graph& right);

}  // namespace mbird::rpc
