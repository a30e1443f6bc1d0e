// Transports: bidirectional message links between simulated processes.
//
// Two implementations:
//  * In-process queue pairs with injectable faults (drop / duplicate /
//    reorder) for deterministic failure testing.
//  * A real Unix socketpair carrying length-prefixed frames — the
//    "different processes" path of the paper's network-enabled stubs
//    exercised over an actual kernel byte stream.
//
// Links are polled (single-threaded, deterministic): send() enqueues toward
// the peer; the peer's poll() dequeues.
//
// send() takes one frame as two byte runs, a header and a body, so the rpc
// layer can hand over a header packed on its stack and a payload still in
// the encoder's buffer without first joining them; the link copies or
// writes both before returning. A link also answers two questions the rpc
// layer asks of it: whether it delivers every frame exactly once and in
// order (stream sockets do, so channels over them skip the reliability
// sublayer), and how many bytes it has accepted but not yet handed on (a
// socket's tail waiting for kernel space, which keeps a node from taking a
// quiet round for quiescence).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace mbird::transport {

class Link {
 public:
  virtual ~Link() = default;
  /// Queue one message frame toward the peer: the bytes of `head` followed
  /// by the bytes of `body`. Both runs are consumed before send() returns.
  virtual void send(std::span<const uint8_t> head,
                    std::span<const uint8_t> body) = 0;
  /// Dequeue the next frame from the peer, if any.
  virtual std::optional<std::vector<uint8_t>> poll() = 0;
  /// True when every frame sent arrives exactly once and in send order
  /// (a stream socket); false when frames may be lost, duplicated or
  /// reordered (fault injection).
  [[nodiscard]] virtual bool reliable() const = 0;
  /// Bytes accepted by send() that the link still holds, not yet handed to
  /// the peer's side (0 for links that deliver on send()).
  [[nodiscard]] virtual size_t held_bytes() const = 0;
};

struct FaultOptions {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;  // swap with the previous queued frame
  uint64_t seed = 1;
};

/// Two connected in-process link endpoints. Faults are applied on send.
std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>> make_inproc_pair(
    const FaultOptions& faults = {});

/// Two connected endpoints over a real AF_UNIX socketpair (non-blocking:
/// bytes the kernel will not take yet are buffered in the link and flushed
/// on later send()/poll() calls, so a full socket buffer never throws or
/// deadlocks). Throws TransportError if the socketpair cannot be created.
std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>> make_socket_pair();

}  // namespace mbird::transport
