// Readiness-driven socket endpoints for the rpc reactor (DESIGN.md §4k).
//
// transport::Link is a polled abstraction: poll() performs the I/O. A
// reactor inverts that — epoll says which fd is ready, and the loop pushes
// bytes into the link. SocketPeer is the shared state machine under both
// styles:
//
//   * outbound: with nothing waiting, send() writes the length prefix, the
//     frame's header run and its body run with one sendmsg — no userspace
//     copy of the frame — and buffers only what the kernel refuses. While
//     bytes wait, a new frame is appended behind them and the buffer is
//     flushed. The write buffer advances an offset as it drains instead of
//     erasing its front; held_bytes() reports what it holds, and
//     wants_write() tells the reactor to arm EPOLLOUT until it drains.
//   * inbound: on_readable() drains the kernel straight into a reassembly
//     buffer (no bounce buffer) and cuts complete frames into a queue;
//     poll() only pops that queue (no syscall), so a reactor pays recv()
//     once per readiness event regardless of how many times the node polls
//     the link.
//   * hangup: every send uses MSG_NOSIGNAL — a dead peer can never raise
//     SIGPIPE. EPIPE/ECONNRESET (and recv EOF) latch closed(); SocketPeer
//     itself never throws from the state machine, so a reactor can notice
//     the hangup and retire the peer gracefully. The polled wrapper
//     returned by make_socket_pair()/dial() converts the latched state
//     into a typed LinkClosedError on the next send.
//
// A stream socket delivers every frame once and in order, so SocketPeer
// (which a reactor registers on its node as the link itself) and the
// polled wrapper report reliable(): rpc channels over them send
// unsequenced frames and skip acks, dedup and retransmission.
//
// ListenSocket binds a nonblocking accepting socket on a unix path
// ("unix:/tmp/x.sock" or a bare path) or TCP ("tcp:127.0.0.1:0"; port 0
// picks an ephemeral port, address() reports the resolved one). dial()
// connects to the same address forms.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "transport/link.hpp"

namespace mbird::transport {

class SocketPeer : public Link {
 public:
  /// Takes ownership of `fd` and switches it to nonblocking mode.
  explicit SocketPeer(int fd);
  ~SocketPeer() override;
  SocketPeer(const SocketPeer&) = delete;
  SocketPeer& operator=(const SocketPeer&) = delete;

  /// Write one frame (length-prefixed on the wire) with a single sendmsg,
  /// buffering whatever the kernel does not take; while earlier bytes
  /// still wait, queue the frame behind them instead. Never throws and never
  /// raises SIGPIPE: when the peer is gone the frame is dropped and
  /// closed() latches.
  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override;

  /// Pop the next complete inbound frame. Pure memory operation; a reactor
  /// must have called on_readable() first. (The polled wrapper calls it
  /// internally.)
  std::optional<std::vector<uint8_t>> poll() override;

  /// A stream socket: every frame arrives once, in order.
  [[nodiscard]] bool reliable() const override { return true; }
  /// Outbound bytes the kernel has not yet taken.
  [[nodiscard]] size_t held_bytes() const override {
    return out_.size() - out_off_;
  }

  /// Drain the kernel receive buffer into the frame queue. Returns false
  /// once the peer has hung up (EOF or fatal error) AND no buffered frame
  /// remains to deliver.
  bool on_readable();

  /// Flush buffered outbound bytes after an EPOLLOUT readiness event.
  bool on_writable();

  /// True while buffered outbound bytes are waiting for kernel space (the
  /// reactor arms EPOLLOUT exactly while this holds).
  [[nodiscard]] bool wants_write() const { return held_bytes() != 0 && !closed_; }
  /// Latched once the peer hangs up or the socket faults.
  [[nodiscard]] bool closed() const { return closed_; }
  /// Human-readable reason closed() latched ("" while open).
  [[nodiscard]] const std::string& close_reason() const { return close_reason_; }
  [[nodiscard]] int fd() const { return fd_; }
  /// Complete frames buffered and ready for poll().
  [[nodiscard]] size_t inbound_frames() const { return frames_.size(); }
  /// Peek the front inbound frame without consuming it (peer
  /// identification reads the origin field of the first frame).
  [[nodiscard]] const std::vector<uint8_t>* front() const {
    return frames_.empty() ? nullptr : &frames_.front();
  }

 private:
  void flush();
  void mark_closed(const std::string& why);
  /// Make room for one more recv at the end of the read buffer.
  void reserve_read_space();

  int fd_;
  bool closed_ = false;
  bool eof_ = false;
  std::string close_reason_;
  std::vector<uint8_t> out_;  // outbound bytes the kernel refused
  size_t out_off_ = 0;        // bytes at the front of out_ already written
  // Inbound byte reassembly: recv() writes at in_end_, complete frames are
  // cut from in_begin_. Never zero-filled, so the pages recv() has not
  // written cost no memory.
  std::unique_ptr<uint8_t[]> in_;
  size_t in_cap_ = 0;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
  std::deque<std::vector<uint8_t>> frames_;  // complete inbound frames
};

class ListenSocket {
 public:
  /// Bind + listen on `addr` ("unix:PATH", "tcp:HOST:PORT", or a bare unix
  /// path). Throws TransportError when the address cannot be bound.
  explicit ListenSocket(const std::string& addr, int backlog = 128);
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// The resolved dialable address ("tcp:127.0.0.1:41873" after binding
  /// port 0; the unix form round-trips unchanged).
  [[nodiscard]] const std::string& address() const { return address_; }

  /// Accept one pending connection; -1 when none is pending (EAGAIN).
  /// Throws TransportError on fatal accept errors. The returned fd is
  /// nonblocking.
  [[nodiscard]] int accept_fd();

 private:
  int fd_ = -1;
  std::string address_;
  std::string unlink_path_;  // unix socket file removed on destruction
};

/// Connect to an address ListenSocket understands and return the connected
/// fd (nonblocking). Throws TransportError when the connection fails.
[[nodiscard]] int dial_fd(const std::string& addr);

/// Connect and wrap the fd as a polled Link (the client side of `mbird
/// serve --listen`): poll() ingests readiness internally, send() throws the
/// typed LinkClosedError once the peer is gone.
[[nodiscard]] std::unique_ptr<Link> dial(const std::string& addr);

/// Wrap `fd` as a polled Link (same behavior as dial()'s result).
[[nodiscard]] std::unique_ptr<Link> polled_socket_link(int fd);

/// Decorate a link with fault injection on both directions: each frame
/// sent, and each frame received, is independently dropped with
/// `faults.drop_probability`, and each frame sent is duplicated with
/// `faults.duplicate_probability`. It never reorders frames, whatever
/// `faults.reorder_probability` says. The reliability sublayer sees real
/// loss over a real socket — the lossy-link load harness uses this to
/// exercise retransmission under traffic.
[[nodiscard]] std::unique_ptr<Link> make_lossy(std::unique_ptr<Link> inner,
                                               const FaultOptions& faults);

}  // namespace mbird::transport
