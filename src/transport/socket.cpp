#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace mbird::transport {

namespace {

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Parsed address: unix path or tcp host/port.
struct Addr {
  bool is_unix = true;
  std::string path;  // unix
  std::string host;  // tcp
  uint16_t port = 0;
};

Addr parse_addr(const std::string& addr) {
  Addr a;
  if (addr.rfind("unix:", 0) == 0) {
    a.path = addr.substr(5);
  } else if (addr.rfind("tcp:", 0) == 0) {
    std::string rest = addr.substr(4);
    auto colon = rest.rfind(':');
    if (colon == std::string::npos) {
      throw TransportError("tcp address needs host:port, got '" + addr + "'");
    }
    a.is_unix = false;
    a.host = rest.substr(0, colon);
    a.port = static_cast<uint16_t>(std::stoi(rest.substr(colon + 1)));
  } else {
    a.path = addr;  // bare path = unix
  }
  if (a.is_unix && a.path.size() + 1 > sizeof(sockaddr_un{}.sun_path)) {
    throw TransportError("unix socket path too long: " + a.path);
  }
  if (a.is_unix && a.path.empty()) {
    throw TransportError("empty unix socket path");
  }
  return a;
}

}  // namespace

// ---- SocketPeer -------------------------------------------------------------

namespace {

/// Free space one recv() is offered. The read buffer grows only as bytes
/// arrive, so a forged length prefix cannot make it allocate ahead of them.
constexpr size_t kReadChunk = 64 * 1024;

uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

}  // namespace

SocketPeer::SocketPeer(int fd) : fd_(fd) { set_nonblocking(fd_); }

SocketPeer::~SocketPeer() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketPeer::mark_closed(const std::string& why) {
  if (closed_) return;
  closed_ = true;
  close_reason_ = why;
  out_.clear();  // undeliverable
  out_off_ = 0;
}

void SocketPeer::send(std::span<const uint8_t> head,
                      std::span<const uint8_t> body) {
  if (closed_) return;  // dropped; the rpc layer above sees it as loss
  const size_t len = head.size() + body.size();
  uint8_t prefix[4] = {static_cast<uint8_t>(len >> 24), static_cast<uint8_t>(len >> 16),
                       static_cast<uint8_t>(len >> 8), static_cast<uint8_t>(len)};
  if (held_bytes() != 0) {
    // The kernel refused bytes last time: queue this frame behind them,
    // first dropping the written front once it is the larger part.
    if (out_off_ > out_.size() / 2) {
      out_.erase(out_.begin(), out_.begin() + static_cast<long>(out_off_));
      out_off_ = 0;
    }
    out_.insert(out_.end(), prefix, prefix + sizeof prefix);
    out_.insert(out_.end(), head.begin(), head.end());
    out_.insert(out_.end(), body.begin(), body.end());
    flush();
    return;
  }
  iovec iov[3];
  int n = 0;
  iov[n++] = {prefix, sizeof prefix};
  if (!head.empty()) iov[n++] = {const_cast<uint8_t*>(head.data()), head.size()};
  if (!body.empty()) iov[n++] = {const_cast<uint8_t*>(body.data()), body.size()};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<size_t>(n);
  size_t sent = 0;
  for (;;) {
    ssize_t w = ::sendmsg(fd_, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w >= 0) {
      sent = static_cast<size_t>(w);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    mark_closed(std::string("send failed: ") + std::strerror(errno));
    return;
  }
  // Keep what the kernel refused, in order.
  auto keep = [&](const uint8_t* p, size_t size) {
    const size_t skip = std::min(sent, size);
    sent -= skip;
    out_.insert(out_.end(), p + skip, p + size);
  };
  keep(prefix, sizeof prefix);
  keep(head.data(), head.size());
  keep(body.data(), body.size());
}

void SocketPeer::flush() {
  while (out_off_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // keep the tail
      mark_closed(std::string("send failed: ") + std::strerror(errno));
      return;
    }
    out_off_ += static_cast<size_t>(n);
  }
  out_.clear();
  out_off_ = 0;
}

bool SocketPeer::on_writable() {
  if (!closed_) flush();
  return !closed_;
}

void SocketPeer::reserve_read_space() {
  if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
  if (in_cap_ - in_end_ >= kReadChunk) return;
  if (in_begin_ != 0) {
    // Move the partial frame to the front; the bytes before it are framed.
    std::memmove(in_.get(), in_.get() + in_begin_, in_end_ - in_begin_);
    in_end_ -= in_begin_;
    in_begin_ = 0;
  }
  if (in_cap_ - in_end_ < kReadChunk) {
    const size_t cap = std::max(in_cap_ * 2, in_end_ + kReadChunk);
    auto grown = std::make_unique_for_overwrite<uint8_t[]>(cap);
    if (in_end_ != 0) std::memcpy(grown.get(), in_.get(), in_end_);
    in_ = std::move(grown);
    in_cap_ = cap;
  }
}

bool SocketPeer::on_readable() {
  if (!eof_ && !closed_) {
    for (;;) {
      reserve_read_space();
      const size_t room = in_cap_ - in_end_;
      ssize_t n = ::recv(fd_, in_.get() + in_end_, room, MSG_DONTWAIT);
      if (n > 0) {
        in_end_ += static_cast<size_t>(n);
        // A short read emptied the kernel buffer; skip the EAGAIN probe.
        if (static_cast<size_t>(n) < room) break;
        continue;
      }
      if (n == 0) {
        eof_ = true;  // orderly hangup; buffered frames still deliver
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      mark_closed(std::string("recv failed: ") + std::strerror(errno));
      break;
    }
  }
  // Cut out every complete frame.
  while (in_end_ - in_begin_ >= 4) {
    const uint8_t* p = in_.get() + in_begin_;
    const size_t len = load_be32(p);
    if (in_end_ - in_begin_ < 4 + len) break;
    frames_.emplace_back(p + 4, p + 4 + len);
    in_begin_ += 4 + len;
  }
  return !(frames_.empty() && (eof_ || closed_));
}

std::optional<std::vector<uint8_t>> SocketPeer::poll() {
  if (frames_.empty()) return std::nullopt;
  auto f = std::move(frames_.front());
  frames_.pop_front();
  return f;
}

// ---- polled wrapper ---------------------------------------------------------

namespace {

/// The polled view over a SocketPeer: poll() performs the recv itself, and
/// a latched hangup surfaces as a typed LinkClosedError on the next send
/// (never as SIGPIPE, never as a silent byte drop).
class PolledSocketLink : public Link {
 public:
  explicit PolledSocketLink(int fd) : peer_(fd) {}

  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    if (peer_.closed()) {
      throw LinkClosedError("link closed: " + peer_.close_reason());
    }
    peer_.send(head, body);
    if (peer_.closed()) {
      throw LinkClosedError("link closed: " + peer_.close_reason());
    }
  }

  std::optional<std::vector<uint8_t>> poll() override {
    // A full kernel buffer earlier may have left bytes unflushed; the poll
    // loop is our next chance to move them. Frames already cut out are
    // handed over before the socket is read again.
    peer_.on_writable();
    if (peer_.inbound_frames() == 0) peer_.on_readable();
    return peer_.poll();
  }

  [[nodiscard]] bool reliable() const override { return true; }
  [[nodiscard]] size_t held_bytes() const override {
    return peer_.held_bytes();
  }

 private:
  SocketPeer peer_;
};

class LossyLink : public Link {
 public:
  LossyLink(std::unique_ptr<Link> inner, const FaultOptions& faults)
      : inner_(std::move(inner)), faults_(faults), rng_(faults.seed) {}

  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    if (faults_.drop_probability > 0 && rng_.chance(faults_.drop_probability)) {
      return;
    }
    bool dup = faults_.duplicate_probability > 0 &&
               rng_.chance(faults_.duplicate_probability);
    if (dup) inner_->send(head, body);
    inner_->send(head, body);
  }

  std::optional<std::vector<uint8_t>> poll() override {
    // Inbound loss: keep polling past dropped frames so one poll() still
    // yields the next surviving frame (matching what the wire would carry).
    for (;;) {
      auto f = inner_->poll();
      if (!f) return std::nullopt;
      if (faults_.drop_probability > 0 && rng_.chance(faults_.drop_probability)) {
        continue;
      }
      return f;
    }
  }

  /// Injected loss: the channel above must run the reliability sublayer.
  [[nodiscard]] bool reliable() const override { return false; }
  [[nodiscard]] size_t held_bytes() const override {
    return inner_->held_bytes();
  }

 private:
  std::unique_ptr<Link> inner_;
  FaultOptions faults_;
  Rng rng_;
};

}  // namespace

std::unique_ptr<Link> polled_socket_link(int fd) {
  return std::make_unique<PolledSocketLink>(fd);
}

std::unique_ptr<Link> make_lossy(std::unique_ptr<Link> inner,
                                 const FaultOptions& faults) {
  return std::make_unique<LossyLink>(std::move(inner), faults);
}

// ---- ListenSocket -----------------------------------------------------------

ListenSocket::ListenSocket(const std::string& addr, int backlog) {
  Addr a = parse_addr(addr);
  if (a.is_unix) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw TransportError(std::string("socket failed: ") + std::strerror(errno));
    }
    ::unlink(a.path.c_str());  // stale socket file from a crashed server
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, a.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      int e = errno;
      ::close(fd_);
      fd_ = -1;
      throw TransportError("bind " + a.path + " failed: " + std::strerror(e));
    }
    unlink_path_ = a.path;
    address_ = "unix:" + a.path;
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw TransportError(std::string("socket failed: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(a.port);
    if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd_);
      fd_ = -1;
      throw TransportError("bad tcp host '" + a.host + "'");
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      int e = errno;
      ::close(fd_);
      fd_ = -1;
      throw TransportError("bind " + addr + " failed: " + std::strerror(e));
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
    address_ = "tcp:" + a.host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(fd_, backlog) != 0) {
    int e = errno;
    ::close(fd_);
    fd_ = -1;
    throw TransportError("listen failed: " + std::string(std::strerror(e)));
  }
  set_nonblocking(fd_);
}

ListenSocket::~ListenSocket() {
  if (fd_ >= 0) ::close(fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

int ListenSocket::accept_fd() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNABORTED) continue;  // client gave up while queued
    throw TransportError(std::string("accept failed: ") + std::strerror(errno));
  }
}

int dial_fd(const std::string& addr) {
  Addr a = parse_addr(addr);
  int fd;
  if (a.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw TransportError(std::string("socket failed: ") + std::strerror(errno));
    }
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, a.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      int e = errno;
      ::close(fd);
      throw TransportError("connect " + a.path + " failed: " + std::strerror(e));
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw TransportError(std::string("socket failed: ") + std::strerror(errno));
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(a.port);
    if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      throw TransportError("bad tcp host '" + a.host + "'");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      int e = errno;
      ::close(fd);
      throw TransportError("connect " + addr + " failed: " + std::strerror(e));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  set_nonblocking(fd);
  return fd;
}

std::unique_ptr<Link> dial(const std::string& addr) {
  return polled_socket_link(dial_fd(addr));
}

}  // namespace mbird::transport
