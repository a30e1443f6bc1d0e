#include "rpc/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {

namespace {

struct ReactorMetrics {
  obs::Counter& accepts = obs::counter("rpc.reactor.accepts");
  obs::Counter& retires = obs::counter("rpc.reactor.retires");
  obs::Counter& stalls = obs::counter("rpc.reactor.stalls");
  obs::Gauge& peers = obs::gauge("rpc.reactor.peers");
  obs::Gauge& ready_peers = obs::gauge("rpc.reactor.ready_peers");
  obs::Gauge& queue_depth = obs::gauge("rpc.reactor.queue_depth");
  obs::Gauge& stalled = obs::gauge("rpc.reactor.stalled");
  // Time from epoll wakeup to drain completion on iterations with at
  // least one ready fd — the dashboard's reactor responsiveness signal.
  obs::Histogram& loop_lag_ns = obs::histogram("rpc.reactor.loop_lag_ns");
};
ReactorMetrics& xm() {
  static ReactorMetrics m;
  return m;
}

}  // namespace

Reactor::Reactor(Node& node) : node_(node) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    throw TransportError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (wake_fd_ < 0 || epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const std::string why = std::strerror(errno);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(epfd_);
    throw TransportError("reactor wake fd: " + why);
  }
}

Reactor::~Reactor() {
  ::close(wake_fd_);
  ::close(epfd_);
}

void Reactor::wake() const {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Reactor::listen(const std::string& addr) {
  listener_ = std::make_unique<transport::ListenSocket>(addr);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_->fd();
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, listener_->fd(), &ev) != 0) {
    throw TransportError(std::string("epoll_ctl(listener): ") +
                         std::strerror(errno));
  }
}

const std::string& Reactor::listen_address() const {
  if (!listener_) {
    throw TransportError("reactor is not listening");
  }
  return listener_->address();
}

void Reactor::register_conn(int fd, Conn conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw TransportError(std::string("epoll_ctl(peer): ") +
                         std::strerror(errno));
  }
  conn.events = EPOLLIN;
  conns_.emplace(fd, std::move(conn));
  xm().peers.set(static_cast<int64_t>(conns_.size()));
}

void Reactor::add_peer(uint16_t peer_id, int fd) {
  Conn conn;
  conn.sock = std::make_shared<transport::SocketPeer>(fd);
  conn.peer_id = peer_id;
  conn.identified = true;
  node_.connect(peer_id, conn.sock);
  fd_by_peer_[peer_id] = fd;
  register_conn(fd, std::move(conn));
}

void Reactor::accept_pending() {
  while (true) {
    int fd = listener_->accept_fd();
    if (fd < 0) return;
    Conn conn;
    conn.sock = std::make_shared<transport::SocketPeer>(fd);
    conn.accepted = true;
    xm().accepts.add();
    register_conn(fd, std::move(conn));
  }
}

size_t Reactor::service(Conn& c, uint32_t events, bool& dead) {
  size_t processed = 0;
  if ((events & EPOLLOUT) != 0) c.sock->on_writable();
  bool alive = true;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    alive = c.sock->on_readable();
  }
  if (!c.identified) {
    // A server-accepted connection names itself with its first frame's
    // origin field — no handshake round-trip. Until a complete frame
    // arrives there is nothing to deliver.
    const std::vector<uint8_t>* first = c.sock->front();
    if (first != nullptr) {
      std::optional<uint16_t> origin;
      try {
        origin = wire::view_frame(first->data(), first->size()).origin_node;
      } catch (const WireError&) {
        // Not a frame: drop the connection before it can claim a peer id.
        alive = false;
      }
      if (origin) {
        c.peer_id = *origin;
        c.identified = true;
        // A reconnect supersedes the stale channel toward the same peer.
        auto prev = fd_by_peer_.find(c.peer_id);
        if (prev != fd_by_peer_.end()) {
          node_.disconnect(c.peer_id);
          retire(prev->second);
        }
        fd_by_peer_[c.peer_id] = c.sock->fd();
        node_.connect(c.peer_id, c.sock);
      }
    }
  }
  if (c.identified) processed += node_.poll_peer(c.peer_id);
  dead = !alive && !c.sock->wants_write();
  return processed;
}

void Reactor::retire(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.identified) {
    auto by_peer = fd_by_peer_.find(c.peer_id);
    if (by_peer != fd_by_peer_.end() && by_peer->second == fd) {
      node_.disconnect(c.peer_id);
      fd_by_peer_.erase(by_peer);
    }
  }
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(it);  // SocketPeer destructor closes the fd
  xm().retires.add();
  xm().peers.set(static_cast<int64_t>(conns_.size()));
  // Retire-storm detection: eight or more retires inside one second is a
  // fleet-level event (mass disconnect, crashing clients, bad deploy) —
  // snapshot the flight recorder so the lead-up survives.
  const uint64_t now = obs::now_ns();
  retire_times_.push_back(now);
  retire_times_.erase(
      std::remove_if(retire_times_.begin(), retire_times_.end(),
                     [now](uint64_t t) { return now - t > 1'000'000'000ull; }),
      retire_times_.end());
  if (retire_times_.size() >= 8) {
    obs::FlightRecorder::global().fault("rpc.reactor.retire_storm");
    retire_times_.clear();
  }
}

void Reactor::update_interest() {
  // An accepted connection toward which the node holds more than
  // send_window × max_frame_payload bytes is not taking its replies; stop
  // reading it until the node holds nothing for it, or resends the oldest
  // frame its peer has not acked (that ack may wait unread behind the stall).
  const ReliabilityOptions& ro = node_.reliability();
  const size_t held_cap = ro.send_window * ro.max_frame_payload;
  size_t max_depth = 0;
  stalled_conns_ = 0;
  for (auto& [fd, c] : conns_) {
    size_t held = 0;
    if (c.identified) {
      const size_t depth = node_.send_queue_depth(c.peer_id);
      max_depth = std::max(max_depth, depth);
      obs::Gauge*& g = peer_inflight_[c.peer_id];
      if (g == nullptr) {
        g = &obs::gauge("rpc.peer." + std::to_string(c.peer_id) +
                        ".inflight");
      }
      g->set(static_cast<int64_t>(depth));
      held = node_.held_bytes(c.peer_id);
    }
    if (c.accepted && !c.stalled && held > held_cap) {
      c.stalled = true;
      c.stall_retries = node_.oldest_retries(c.peer_id);
      xm().stalls.add();
    } else if (c.stalled && (held == 0 || node_.oldest_retries(c.peer_id) !=
                                             c.stall_retries)) {
      c.stalled = false;
    }
    if (c.stalled) ++stalled_conns_;
    uint32_t want = c.stalled ? 0u : static_cast<uint32_t>(EPOLLIN);
    if (c.sock->wants_write()) want |= EPOLLOUT;
    if (want == c.events) continue;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = fd;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
    c.events = want;
  }
  xm().stalled.set(stalled() ? 1 : 0);
  xm().queue_depth.set_max(static_cast<int64_t>(max_depth));
}

size_t Reactor::run_once(int timeout_ms) {
  // Wait only as long as nothing is due: queued local deliveries run now,
  // a sequenced channel's timers run on the 1 ms tick, and otherwise the
  // next event (or the caller's cap) ends the wait.
  int wait = -1;
  if (node_.has_local_deliveries()) {
    wait = 0;
  } else if (node_.needs_tick()) {
    wait = 1;
  }
  if (timeout_ms >= 0 && (wait < 0 || timeout_ms < wait)) wait = timeout_ms;
  int n = epoll_wait(epfd_, events_.data(), static_cast<int>(events_.size()),
                     wait);
  if (n < 0) {
    if (errno == EINTR) n = 0;
    else
      throw TransportError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  const uint64_t wake_ns = obs::now_ns();
  size_t processed = 0;
  size_t ready = 0;
  std::vector<int> dead_fds;
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = events_[static_cast<size_t>(i)];
    const int fd = ev.data.fd;
    if (fd == wake_fd_) {
      uint64_t count = 0;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof count);
      continue;
    }
    if (listener_ && fd == listener_->fd()) {
      accept_pending();
      continue;
    }
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    ++ready;
    bool dead = false;
    processed += service(it->second, ev.events, dead);
    if (dead) dead_fds.push_back(fd);
  }
  for (int fd : dead_fds) retire(fd);
  // One logical tick per iteration: local deliveries, retransmit backoff,
  // due acks. The retransmits/acks land in SocketPeer write buffers, so
  // write interest is refreshed after.
  processed += node_.tick();
  xm().ready_peers.set(static_cast<int64_t>(ready));
  update_interest();
  // Loop lag: epoll wakeup -> drain + tick + interest refresh done. Only
  // iterations that had ready fds count; idle wakeups measure nothing.
  if (n > 0) xm().loop_lag_ns.record(obs::now_ns() - wake_ns);
  return processed;
}

size_t Reactor::run(const std::function<bool()>& should_stop, int timeout_ms) {
  size_t processed = 0;
  while (!should_stop()) processed += run_once(timeout_ms);
  return processed;
}

}  // namespace mbird::rpc
