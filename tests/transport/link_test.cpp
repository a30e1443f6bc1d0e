#include <gtest/gtest.h>

#include <set>

#include "transport/link.hpp"

namespace mbird::transport {
namespace {

std::vector<uint8_t> msg(std::initializer_list<uint8_t> b) { return {b}; }

TEST(InProcLink, BidirectionalDelivery) {
  auto [a, b] = make_inproc_pair();
  a->send(msg({1, 2, 3}), {});
  b->send(msg({9}), {});
  EXPECT_EQ(b->poll(), msg({1, 2, 3}));
  EXPECT_EQ(a->poll(), msg({9}));
  EXPECT_FALSE(a->poll().has_value());
  EXPECT_FALSE(b->poll().has_value());
}

TEST(InProcLink, FifoOrder) {
  auto [a, b] = make_inproc_pair();
  for (uint8_t i = 0; i < 10; ++i) a->send(msg({i}), {});
  for (uint8_t i = 0; i < 10; ++i) EXPECT_EQ(b->poll(), msg({i}));
}

TEST(InProcLink, DropFault) {
  FaultOptions f;
  f.drop_probability = 1.0;
  auto [a, b] = make_inproc_pair(f);
  a->send(msg({1}), {});
  EXPECT_FALSE(b->poll().has_value());
}

TEST(InProcLink, DuplicateFault) {
  FaultOptions f;
  f.duplicate_probability = 1.0;
  auto [a, b] = make_inproc_pair(f);
  a->send(msg({1}), {});
  EXPECT_EQ(b->poll(), msg({1}));
  EXPECT_EQ(b->poll(), msg({1}));
  EXPECT_FALSE(b->poll().has_value());
}

TEST(InProcLink, ReorderFault) {
  FaultOptions f;
  f.reorder_probability = 1.0;
  auto [a, b] = make_inproc_pair(f);
  a->send(msg({1}), {});
  a->send(msg({2}), {});
  EXPECT_EQ(b->poll(), msg({2}));
  EXPECT_EQ(b->poll(), msg({1}));
}

TEST(InProcLink, ReorderNeedsTwoQueuedFrames) {
  // The swap needs a predecessor still in the queue: a lone frame, or one
  // whose predecessor was already polled, is delivered in place.
  FaultOptions f;
  f.reorder_probability = 1.0;
  auto [a, b] = make_inproc_pair(f);
  a->send(msg({1}), {});
  EXPECT_EQ(b->poll(), msg({1}));
  a->send(msg({2}), {});
  EXPECT_EQ(b->poll(), msg({2}));
}

TEST(InProcLink, ReorderPermutesButLosesNothing) {
  // Each send may swap the newest pair. A frame can move forward at most
  // one slot (it only jumps ahead when it is the newly-pushed element),
  // while an unlucky frame can be carried backward by successive swaps —
  // but the drained queue is still a permutation: nothing lost, nothing
  // duplicated.
  FaultOptions f;
  f.reorder_probability = 0.5;
  f.seed = 11;
  auto [a, b] = make_inproc_pair(f);
  for (uint8_t i = 0; i < 32; ++i) a->send(msg({i}), {});
  std::vector<uint8_t> order;
  while (auto m = b->poll()) order.push_back((*m)[0]);
  ASSERT_EQ(order.size(), 32u);
  bool any_displaced = false;
  std::set<uint8_t> distinct;
  for (size_t i = 0; i < order.size(); ++i) {
    int displacement = static_cast<int>(order[i]) - static_cast<int>(i);
    EXPECT_LE(displacement, 1);
    any_displaced = any_displaced || displacement != 0;
    distinct.insert(order[i]);
  }
  EXPECT_TRUE(any_displaced);       // at 50% the seed must hit at least once
  EXPECT_EQ(distinct.size(), 32u);  // a permutation of what was sent
}

TEST(InProcLink, ReorderIsPerDirection) {
  FaultOptions f;
  f.reorder_probability = 1.0;
  auto [a, b] = make_inproc_pair(f);
  // Interleaved directions must not swap across queues.
  a->send(msg({1}), {});
  b->send(msg({9}), {});
  a->send(msg({2}), {});
  EXPECT_EQ(a->poll(), msg({9}));
  EXPECT_EQ(b->poll(), msg({2}));
  EXPECT_EQ(b->poll(), msg({1}));
}

TEST(InProcLink, FaultsAreSeedDeterministic) {
  FaultOptions f;
  f.drop_probability = 0.5;
  f.seed = 42;
  std::vector<bool> delivered1, delivered2;
  for (int trial = 0; trial < 2; ++trial) {
    auto [a, b] = make_inproc_pair(f);
    auto& sink = trial == 0 ? delivered1 : delivered2;
    for (uint8_t i = 0; i < 32; ++i) {
      a->send(msg({i}), {});
      sink.push_back(b->poll().has_value());
    }
  }
  EXPECT_EQ(delivered1, delivered2);
}

TEST(SocketLink, RoundtripOverKernel) {
  auto [a, b] = make_socket_pair();
  a->send(msg({1, 2, 3, 4, 5}), {});
  // The kernel may need a beat; poll loops until data lands (socketpair is
  // local so one pass suffices in practice).
  std::optional<std::vector<uint8_t>> got;
  for (int i = 0; i < 100 && !got; ++i) got = b->poll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg({1, 2, 3, 4, 5}));
}

TEST(SocketLink, FramingAcrossMultipleMessages) {
  auto [a, b] = make_socket_pair();
  a->send(msg({1}), {});
  a->send(msg({2, 2}), {});
  a->send(msg({3, 3, 3}), {});
  std::vector<std::vector<uint8_t>> got;
  for (int i = 0; i < 100 && got.size() < 3; ++i) {
    while (auto m = b->poll()) got.push_back(*m);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[1].size(), 2u);
  EXPECT_EQ(got[2].size(), 3u);
}

TEST(SocketLink, LargeMessage) {
  auto [a, b] = make_socket_pair();
  std::vector<uint8_t> big(200000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 7);
  a->send(big, {});
  std::optional<std::vector<uint8_t>> got;
  for (int i = 0; i < 10000 && !got; ++i) got = b->poll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST(SocketLink, EmptyPollWithoutTraffic) {
  auto [a, b] = make_socket_pair();
  EXPECT_FALSE(a->poll().has_value());
  EXPECT_FALSE(b->poll().has_value());
}

TEST(SocketLink, FullKernelBufferIsBufferedNotFatal) {
  // Flood one direction far past the socketpair's kernel buffer while the
  // peer is not draining. send() must buffer the overflow (not throw, not
  // block) and flush it as the peer catches up via later poll()s.
  auto [a, b] = make_socket_pair();
  std::vector<uint8_t> frame(65536);
  for (size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<uint8_t>(i);
  constexpr size_t kFrames = 64;  // ~4 MB total, well past SO_SNDBUF
  for (size_t i = 0; i < kFrames; ++i) {
    frame[0] = static_cast<uint8_t>(i);
    a->send(frame, {});
  }
  std::vector<std::vector<uint8_t>> got;
  // Draining b makes room; polling a flushes its backlog into that room.
  for (int spin = 0; spin < 100000 && got.size() < kFrames; ++spin) {
    while (auto m = b->poll()) got.push_back(std::move(*m));
    a->poll();
  }
  ASSERT_EQ(got.size(), kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i][0], static_cast<uint8_t>(i));
    EXPECT_EQ(got[i].size(), frame.size());
  }
}

TEST(SocketLink, BidirectionalFloodDoesNotDeadlock) {
  // Both sides writing more than a socket buffer at once: without the
  // EAGAIN fix one side would throw (or with blocking writes, deadlock).
  auto [a, b] = make_socket_pair();
  std::vector<uint8_t> frame(65536, 0xab);
  constexpr size_t kFrames = 16;
  for (size_t i = 0; i < kFrames; ++i) {
    a->send(frame, {});
    b->send(frame, {});
  }
  size_t got_a = 0, got_b = 0;
  for (int spin = 0;
       spin < 100000 && (got_a < kFrames || got_b < kFrames); ++spin) {
    while (a->poll()) ++got_a;
    while (b->poll()) ++got_b;
  }
  EXPECT_EQ(got_a, kFrames);
  EXPECT_EQ(got_b, kFrames);
}

}  // namespace
}  // namespace mbird::transport
