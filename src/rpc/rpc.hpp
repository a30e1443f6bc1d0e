// The port model made executable (paper §3.3).
//
// A Node is one simulated process. Ports are typed message endpoints:
// port(tau) values in the Mtype model become 64-bit endpoint ids here
// ((node id << 48) | local id). Messages to local ports are queued and
// delivered on poll(); messages to remote ports are marshaled with the
// wire format and carried by a transport Link. Every remote send encodes
// its message once, into a buffer from the node's pool, and one framing
// step puts it on the link: as a DATA frame, or as CHUNK frames when it is
// larger than max_frame_payload.
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
// Each peer is one channel, and whether it runs a reliability sublayer
// depends on its link:
//   * Over a link that delivers every frame once and in order (a stream
//     socket; transport::Link::reliable()) the channel is unsequenced: its
//     frames carry seq 0 and are never acked, deduped or queued for
//     retransmission. A frame goes from the encoder's buffer to the link as
//     a stack-packed header plus the payload bytes, and the payload buffer
//     returns to the pool as soon as the link has written it.
//   * Over any other link (in-process queues, make_lossy) the channel is
//     sequenced: every DATA/CHUNK frame is held in a retransmit queue until
//     the peer's cumulative ack covers its sequence, retransmissions back
//     off exponentially on the node's logical clock (one tick per poll),
//     and a frame whose bounded retries run out tears down the channel's
//     queue so pump() can still reach quiescence. Receivers dedup with
//     per-peer highest-contiguous-sequence plus a bounded out-of-order
//     window, so dedup state is O(window) regardless of traffic.
// The latch: an unsequenced channel becomes sequenced for good on the first
// frame its peer sends with seq != 0, so a peer that runs the sublayer (a
// client over make_lossy, a hand-built frame) gets acks and retransmissions
// back from a node whose own link is a plain socket. Unsequenced frames
// arriving on a sequenced channel are delivered as they come.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "codegen/stubcache.hpp"
#include "mtype/mtype.hpp"
#include "obs/metrics.hpp"
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

/// Per-node delivery stats. Each field also feeds the process-wide registry
/// instrument named beside it (summed over every node; high-water fields
/// are maxima), so `mbird stats`, `mbird top` and the benches see the same
/// events without holding Node pointers.
struct NodeStats {
  // DATA frames submitted by the application
  obs::Count frames_sent{"rpc.frames_sent"};
  // fresh DATA frames delivered to a port
  obs::Count frames_received{"rpc.frames_received"};
  // on-wire bytes incl. retransmits and acks
  obs::Count bytes_sent{"rpc.bytes_sent"};
  obs::Count local_deliveries{"rpc.local_deliveries"};
  obs::Count duplicates_dropped{"rpc.duplicates_dropped"};
  obs::Count unknown_port_drops{"rpc.unknown_port_drops"};
  // DATA frames re-sent after a backoff tick
  obs::Count retransmits{"rpc.retransmits"};
  // explicit ACK frames emitted / consumed
  obs::Count acks_sent{"rpc.acks_sent"};
  obs::Count acks_received{"rpc.acks_received"};
  // unacked frames abandoned (retries spent)
  obs::Count frames_expired{"rpc.frames_expired"};
  // call_* helpers that threw CallTimeoutError
  obs::Count timed_out_calls{"rpc.timed_out_calls"};
  // high-water unacked DATA frames (per peer)
  obs::HighWater max_inflight{"rpc.max_inflight"};
  // high-water out-of-order dedup set size
  obs::HighWater max_dedup_window{"rpc.max_dedup_window"};
  // CHUNK frames submitted / fresh CHUNK frames accepted
  obs::Count chunks_sent{"rpc.chunks_sent"};
  obs::Count chunks_received{"rpc.chunks_received"};
  // outbound messages split into chunks
  obs::Count messages_chunked{"rpc.messages_chunked"};
  // inbound chunk streams completed
  obs::Count messages_reassembled{"rpc.messages_reassembled"};
  // reassemblies discarded (sender abort/limit)
  obs::Count chunk_aborts{"rpc.chunk_aborts"};
  // high-water unacked+backlog frames (per peer)
  obs::HighWater max_queue_depth{"rpc.peer.send_queue_depth"};
  // malformed frames/payloads dropped, and requests whose handler threw
  obs::Count decode_faults{"rpc.decode_faults"};
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
  // is sequenced exactly when DATA is). Bounds the per-frame wire buffer
  // regardless of message size.
  size_t max_frame_payload = 64 * 1024;
  // Cap on the bytes buffered across all of one peer's in-progress inbound
  // chunk streams; the stream whose piece would exceed it is discarded
  // (counted as a chunk_abort). It also caps the peer's open streams at
  // reassembly_limit / max_frame_payload: a piece that would open one more
  // is dropped and counted the same way.
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

  /// Send `v` (shaped like msg_type in g) to a port, local or remote. A
  /// local port's queue takes `v` itself, so a caller that moves its value
  /// in copies nothing; a remote port's message is encoded from it.
  void send(uint64_t dest_port, const mtype::Graph& g, mtype::Ref msg_type,
            Value v);

  /// Send pre-encoded wire bytes (e.g. from ThreadedEngine::marshal) to a
  /// port.
  /// Remote destinations frame the payload directly — no intermediate Value
  /// is ever built. Local destinations decode against the port's registered
  /// type and queue the Value (an unknown local port counts an
  /// unknown_port_drop immediately). Payloads above max_frame_payload are
  /// split into CHUNK frames transparently. However the send ends, a throw
  /// included, `payload` goes back to the node's buffer pool.
  void send_marshaled(uint64_t dest_port, std::vector<uint8_t> payload);

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

  /// True while any peer channel holds unacked or window-queued frames, or
  /// its link still holds bytes it has not written: the node is not
  /// quiescent even if a poll delivers nothing.
  [[nodiscard]] bool has_pending() const;

  /// True while a sequenced channel holds unacked or backlogged frames or
  /// owes its peer an ack: only then does tick() have timed work to do.
  [[nodiscard]] bool needs_tick() const;

  /// True while local deliveries wait for the next poll()/tick().
  [[nodiscard]] bool has_local_deliveries() const {
    return !local_queue_.empty();
  }

  /// Bytes buffered in incomplete inbound chunk streams, over all peers
  /// (each peer's share is capped by reassembly_limit).
  [[nodiscard]] size_t reassembly_bytes() const;

  /// Outbound frames held for `peer` (unacked + window backlog), which the
  /// reactor reports per peer.
  [[nodiscard]] size_t send_queue_depth(uint16_t peer) const;

  /// Bytes the node holds toward `peer` (the reactor's backpressure): on a
  /// sequenced channel its unacked and backlogged frames, each counted with
  /// its queue entry; otherwise what the link has not written. 0 if unknown.
  [[nodiscard]] size_t held_bytes(uint16_t peer) const;

  /// Retransmissions so far of the oldest frame `peer` has not acked (0
  /// when none waits).
  [[nodiscard]] size_t oldest_retries(uint16_t peer) const;

  [[nodiscard]] const ReliabilityOptions& reliability() const {
    return relopts_;
  }

  /// Total out-of-order dedup entries across peers (bounded by
  /// dedup_window per peer; exposed for the memory regression tests).
  [[nodiscard]] size_t dedup_entries() const;

  [[nodiscard]] const NodeStats& stats() const { return stats_; }

  /// The node's reusable buffer pool. Payload and frame buffers cycle
  /// through it: send paths acquire, and a payload buffer is released as
  /// soon as its frames are written (an unsequenced channel) or framed into
  /// retransmit entries, which are released once acked or expired (a
  /// sequenced one), so steady-state sends stop allocating.
  /// Callers producing payloads for send_marshaled may acquire from here
  /// too — send_marshaled returns every payload buffer to the pool.
  [[nodiscard]] wire::BufferPool& buffer_pool() { return pool_; }

  /// Bookkeeping hook for the call_* helpers (they are free functions).
  void note_timed_out_call() { stats_.timed_out_calls.add(); }

 private:
  struct Port {
    const mtype::Graph* graph;
    mtype::Ref msg_type;
    std::function<void(const Value&)> handler;
    bool once;
  };

  /// One channel toward a peer (both directions of bookkeeping).
  struct PeerState {
    std::shared_ptr<transport::Link> link;
    // Whether the reliability sublayer runs: from the start over an
    // unreliable link, and for good once the peer sends a frame with
    // seq != 0. Everything below down to `ack_due` is used only then.
    bool sequenced = false;
    // Outbound: sequence assignment, the unacked retransmit queue (ordered
    // by seq), and frames waiting for send-window space.
    uint64_t next_seq = 1;
    struct Pending {
      uint64_t seq = 0;
      std::vector<uint8_t> bytes;
      size_t retries_used = 0;
      uint64_t backoff = 0;
      uint64_t next_resend_tick = 0;
      // What the frame holds while queued: its bytes and this entry.
      [[nodiscard]] size_t held() const {
        return bytes.size() + sizeof(Pending);
      }
    };
    std::deque<Pending> unacked;
    std::deque<Pending> backlog;
    size_t queued_bytes = 0;  // bytes + entries of unacked and backlog
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
    // In-progress inbound chunk streams, keyed by sender msg_id. In-order
    // pieces are appended to one pool_ buffer; a piece that arrives ahead
    // of a gap (a sequenced channel's reordering) waits in `ahead` until
    // the gap fills. `total` is learned from the Last-flagged chunk.
    struct Reassembly {
      uint64_t dest_port = 0;
      std::vector<uint8_t> data;  // pieces [0, next) concatenated
      uint32_t next = 0;
      std::map<uint32_t, std::vector<uint8_t>> ahead;
      size_t bytes = 0;    // data plus ahead
      uint32_t total = 0;  // piece count once known, else 0
      // Trace context of the stream (every chunk carries the sender's;
      // the first to arrive wins), re-adopted when delivery completes.
      uint64_t trace_id = 0;
      uint64_t parent_span_id = 0;
      bool sampled = false;
    };
    std::map<uint32_t, Reassembly> reassembly;
    size_t reassembly_bytes = 0;  // sum of reassembly[*].bytes
  };

  /// Run `port_id`'s handler on `v`. A handler that throws is counted as a
  /// decode fault and its request dropped.
  void dispatch(uint64_t port_id, const Value& v);
  /// Frame `payload` as DATA toward a remote port (shared tail of send /
  /// send_marshaled), splitting oversized payloads into CHUNK frames.
  void send_frame(uint64_t dest_port, std::span<const uint8_t> payload);
  /// Send one `kind` frame whose payload is `sub` (a chunk sub-header, or
  /// empty) followed by `body` toward a remote port: written straight to
  /// the link on an unsequenced channel, copied into a retransmit entry on
  /// a sequenced one. Both runs are consumed before it returns.
  void emit_frame(uint64_t dest_port, wire::FrameKind kind,
                  std::span<const uint8_t> sub, std::span<const uint8_t> body);
  void transmit(PeerState& ps, PeerState::Pending& p);
  void apply_cum_ack(PeerState& ps, uint64_t cum_ack);
  /// Dedup + window bookkeeping for an arriving DATA/CHUNK seq. Returns
  /// false if the frame is a duplicate.
  bool accept_seq(PeerState& ps, uint64_t seq);
  void retransmit_due(PeerState& ps);
  /// Drain and deliver everything `ps`'s link has to offer (shared by
  /// poll() and poll_peer()). Returns messages delivered.
  size_t drain_peer(PeerState& ps);
  /// Count a malformed frame/payload or a throwing handler, and poke the
  /// flight recorder.
  void note_decode_fault(const char* reason);
  /// Deliver the local-queue batch staged before this round.
  size_t deliver_local();
  /// Emit an explicit ACK frame if one is due for `ps`.
  void flush_ack(PeerState& ps);
  /// Route an accepted CHUNK frame into `ps.reassembly`; dispatches the
  /// message when its stream completes. Returns deliveries (0 or 1).
  size_t accept_chunk(PeerState& ps, const wire::FrameView& frame);
  /// Discard an incomplete inbound stream and its buffered bytes.
  void drop_stream(PeerState& ps,
                   std::map<uint32_t, PeerState::Reassembly>::iterator it);
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
/// nothing AND no node has_pending() (unacked frames awaiting
/// retransmission, or bytes a link has yet to write).
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
};

/// Synchronous call: build Record(args, port(reply)), send to `fn_port`,
/// pump `nodes` until the reply lands. The invocation holds the call's one
/// copy of `args`, and the reply is moved out to the caller. Throws
/// CallTimeoutError when the deadline passes or every bounded
/// retransmission is exhausted with no reply (the latter is detected
/// early: no reply, nothing in flight).
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
/// written or acked).
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
  /// remote ports frame the payload directly). An image that fails a
  /// read-time check throws and sends nothing. The pool buffer goes back
  /// either way.
  void send(uint64_t dest_port, const runtime::NativeHeap& heap, uint64_t addr);

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
