#include "wire/bufferpool.hpp"

#include <utility>

namespace mbird::wire {

std::vector<uint8_t> BufferPool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  acquired_.add();
  if (free_.empty()) return {};
  reused_.add();
  std::vector<uint8_t> buf = std::move(free_.back());
  free_.pop_back();
  return buf;
}

void BufferPool::release(std::vector<uint8_t>&& buf) {
  std::vector<uint8_t> local = std::move(buf);
  local.clear();
  std::lock_guard<std::mutex> lock(mu_);
  released_.add();
  if (free_.size() >= max_retained_ || local.capacity() > max_bytes_each_ ||
      local.capacity() == 0) {
    dropped_.add();
    return;  // `local` frees outside the freelist
  }
  free_.push_back(std::move(local));
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {acquired_, reused_, released_, dropped_, free_.size()};
}

}  // namespace mbird::wire
