#include "transport/link.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <deque>

#include "support/error.hpp"
#include "transport/socket.hpp"

namespace mbird::transport {

namespace {

// ---- in-process ---------------------------------------------------------------

struct SharedQueues {
  std::deque<std::vector<uint8_t>> a_to_b;
  std::deque<std::vector<uint8_t>> b_to_a;
  FaultOptions faults;
  Rng rng{1};
};

class InProcLink : public Link {
 public:
  InProcLink(std::shared_ptr<SharedQueues> q, bool is_a) : q_(std::move(q)), is_a_(is_a) {}

  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    auto& queue = is_a_ ? q_->a_to_b : q_->b_to_a;
    const auto& f = q_->faults;
    if (f.drop_probability > 0 && q_->rng.chance(f.drop_probability)) return;
    std::vector<uint8_t> frame;
    frame.reserve(head.size() + body.size());
    frame.insert(frame.end(), head.begin(), head.end());
    frame.insert(frame.end(), body.begin(), body.end());
    if (f.duplicate_probability > 0 && q_->rng.chance(f.duplicate_probability)) {
      queue.push_back(frame);
    }
    queue.push_back(std::move(frame));
    if (f.reorder_probability > 0 && queue.size() >= 2 &&
        q_->rng.chance(f.reorder_probability)) {
      std::swap(queue[queue.size() - 1], queue[queue.size() - 2]);
    }
  }

  std::optional<std::vector<uint8_t>> poll() override {
    auto& queue = is_a_ ? q_->b_to_a : q_->a_to_b;
    if (queue.empty()) return std::nullopt;
    auto frame = std::move(queue.front());
    queue.pop_front();
    return frame;
  }

  /// Faults are injectable, so the channel above must not trust delivery.
  [[nodiscard]] bool reliable() const override { return false; }
  [[nodiscard]] size_t held_bytes() const override { return 0; }

 private:
  std::shared_ptr<SharedQueues> q_;
  bool is_a_;
};

}  // namespace

std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>> make_inproc_pair(
    const FaultOptions& faults) {
  auto q = std::make_shared<SharedQueues>();
  q->faults = faults;
  q->rng = Rng(faults.seed);
  return {std::make_unique<InProcLink>(q, true),
          std::make_unique<InProcLink>(q, false)};
}

std::pair<std::unique_ptr<Link>, std::unique_ptr<Link>> make_socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw TransportError(std::string("socketpair failed: ") + std::strerror(errno));
  }
  return {polled_socket_link(fds[0]), polled_socket_link(fds[1])};
}

}  // namespace mbird::transport
