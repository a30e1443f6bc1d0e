// A freelist of reusable byte buffers for the marshal → frame → transport
// pipeline. Steady-state sends acquire a buffer (keeping the capacity a
// previous message grew it to), encode into it, and release it once the
// delivery layer no longer needs the bytes (ack received or frame expired)
// — so a long-lived channel stops allocating payload memory entirely.
//
// Ownership protocol: acquire() transfers ownership to the caller; the
// buffer is always empty but may carry capacity. release() takes ownership
// back unconditionally — the pool clears the buffer and either retains it
// for reuse or lets it free when retention limits are hit. A buffer may
// also simply be dropped instead of released (it is a plain std::vector);
// the pool never tracks outstanding buffers, so that is safe, just a lost
// reuse. Thread-safe: senders and the ack-processing path release from
// different threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace mbird::wire {

class BufferPool {
 public:
  /// `max_retained` bounds the freelist length; `max_bytes_each` bounds the
  /// capacity of a retained buffer (jumbo one-off messages should not pin
  /// their footprint forever).
  explicit BufferPool(size_t max_retained = 64,
                      size_t max_bytes_each = 1u << 20)
      : max_retained_(max_retained), max_bytes_each_(max_bytes_each) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer, reusing retained capacity when available.
  [[nodiscard]] std::vector<uint8_t> acquire();

  /// Return a buffer to the pool (cleared, capacity kept if within limits).
  void release(std::vector<uint8_t>&& buf);

  struct Stats {
    uint64_t acquired = 0;  // total acquire() calls
    uint64_t reused = 0;    // acquires served from the freelist
    uint64_t released = 0;  // total release() calls
    uint64_t dropped = 0;   // releases that freed instead of retaining
    size_t retained = 0;    // current freelist length
  };
  [[nodiscard]] Stats stats() const;

  /// Buffers currently checked out (acquired and not yet released): one per
  /// unacked or backlogged frame of a sequenced channel and per open chunk
  /// stream, so tests read it as a leak probe. The pool adopts foreign
  /// vectors on release, so the count is clamped at zero rather than
  /// trusted to balance exactly.
  [[nodiscard]] size_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acquired_ >= released_ ? static_cast<size_t>(acquired_ - released_)
                                  : 0;
  }

 private:
  const size_t max_retained_;
  const size_t max_bytes_each_;
  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  obs::Count acquired_{"wire.pool.acquired"};
  obs::Count reused_{"wire.pool.reused"};
  obs::Count released_{"wire.pool.released"};
  obs::Count dropped_{"wire.pool.dropped"};
};

}  // namespace mbird::wire
