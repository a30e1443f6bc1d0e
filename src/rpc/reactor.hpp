// Async multi-peer reactor (DESIGN.md §4k): one epoll loop owns N peers on
// nonblocking sockets and drives a single rpc::Node through them.
//
// The polled transport::Link model performs I/O inside poll(), which makes
// a node's cost per round O(peers) whether or not a peer has traffic. The
// reactor inverts control: epoll reports which fds are ready, the loop
// pushes kernel bytes into that peer's SocketPeer state machine, and only
// then does the node poll that one peer (Node::poll_peer — no clock
// advance, no retransmit scan). The logical clock ticks once per reactor
// iteration (Node::tick), so retransmission backoff is driven by wall-time
// iterations instead of per-peer polls.
//
// The idle wait: an iteration blocks only as long as nothing is due. While
// a sequenced channel (a peer running the reliability sublayer) holds
// unacked or backlogged frames or owes an ack, iterations come at least
// every millisecond, so backoff ticks keep their pace; while local
// deliveries are queued the wait is zero; otherwise the loop sleeps until
// the next readiness event (or the caller's cap). Stream-only traffic
// therefore costs no wakeups between requests. wake() makes a blocked wait
// return from any thread or a signal handler.
//
// Peers arrive two ways: listen() accepts unidentified connections whose
// node id is learned from the origin field of their first frame (the wire
// protocol needs no handshake), and add_peer() adopts a connected fd whose
// peer id the caller already knows (client side, tests). A reconnect for an
// already-known peer id retires the stale connection.
//
// Backpressure is one rule: the reactor stops arming EPOLLIN for an
// accepted connection while the node holds more than send_window ×
// max_frame_payload bytes toward its peer (Node::held_bytes; 4 MiB by
// default), and arms it again once the node holds nothing for it. Its
// requests stay in the kernel, and socket flow control pushes back on that
// sender alone. A sequenced peer's acks, the only thing that frees what the
// node holds for it, arrive on that same connection, so each retransmission
// of the oldest frame it has not acked lets the reactor read it once more.
// Connections adopted with add_peer() keep reading: two reactors joined
// that way that both stopped reading would never drain each other.
// Stall transitions, ready-peer counts, and send-queue depths land in the
// rpc.reactor.* instruments.
#pragma once

#include <sys/epoll.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "transport/socket.hpp"

namespace mbird::rpc {

class Reactor {
 public:
  explicit Reactor(Node& node);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind an accepting socket ("unix:PATH", "tcp:HOST:PORT", bare path).
  /// Accepted connections are identified by their first frame's origin
  /// field; one whose first frame does not parse is dropped. Throws
  /// TransportError if the address cannot be bound.
  void listen(const std::string& addr);
  /// The resolved listen address (ephemeral TCP ports filled in).
  [[nodiscard]] const std::string& listen_address() const;

  /// Adopt a connected fd (takes ownership) for a peer whose node id is
  /// already known; registers the link on the node immediately.
  void add_peer(uint16_t peer_id, int fd);

  /// One iteration: wait for readiness as long as nothing is due (see the
  /// idle wait above), but no longer than `timeout_ms` when it is not
  /// negative; accept pending connections, service ready peers, then
  /// advance the node's clock (retransmits, acks, local deliveries) and
  /// refresh read and write interest. Returns messages delivered to ports.
  size_t run_once(int timeout_ms = -1);

  /// Loop run_once until `should_stop()` returns true (checked every
  /// iteration). With no cap an idle loop sleeps until an event, so a stop
  /// condition set from outside the loop must be followed by wake().
  /// Returns total messages delivered.
  size_t run(const std::function<bool()>& should_stop, int timeout_ms = -1);

  /// Make the current or next wait return at once. Async-signal-safe (one
  /// write(2) to an eventfd the loop polls) and callable from any thread.
  void wake() const;

  /// Connections currently registered (identified or not).
  [[nodiscard]] size_t peer_count() const { return conns_.size(); }
  /// True while any connection is not read for backpressure.
  [[nodiscard]] bool stalled() const { return stalled_conns_ != 0; }

 private:
  struct Conn {
    std::shared_ptr<transport::SocketPeer> sock;
    uint16_t peer_id = 0;
    bool identified = false;
    bool accepted = false;  // came through listen(); may stall on held bytes
    uint32_t events = 0;  // epoll interest currently armed
    bool stalled = false;  // not read for backpressure
    size_t stall_retries = 0;  // node_.oldest_retries(peer_id) at the stall
  };

  void accept_pending();
  void register_conn(int fd, Conn conn);
  /// Drain one ready connection; returns deliveries. Sets `dead` when the
  /// connection should be retired.
  size_t service(Conn& c, uint32_t events, bool& dead);
  void retire(int fd);
  void update_interest();

  Node& node_;
  int epfd_ = -1;
  int wake_fd_ = -1;  // eventfd written by wake()
  std::array<epoll_event, 64> events_{};  // epoll_wait output, reused
  std::unique_ptr<transport::ListenSocket> listener_;
  std::map<int, Conn> conns_;            // by fd
  std::map<uint16_t, int> fd_by_peer_;   // identified peers -> fd
  size_t stalled_conns_ = 0;  // connections not read for backpressure
  // Per-peer inflight gauges (rpc.peer.<id>.inflight), resolved once per
  // peer id — registry lookups are by string, too slow for every loop.
  std::map<uint16_t, obs::Gauge*> peer_inflight_;
  // Recent retire timestamps (ns) for retire-storm detection.
  std::vector<uint64_t> retire_times_;
};

}  // namespace mbird::rpc
