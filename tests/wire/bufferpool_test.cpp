// BufferPool: the freelist behind pooled wire buffers. Covers the ownership
// protocol (acquire empty-but-capacitated, release clears and retains),
// every retention limit, and a multi-thread hammer that the TSan lane runs
// to pin down the lock discipline.
#include <gtest/gtest.h>

#include <thread>

#include "obs/metrics.hpp"
#include "wire/bufferpool.hpp"

namespace mbird::wire {
namespace {

TEST(BufferPool, AcquireReusesReleasedCapacity) {
  BufferPool pool;
  auto b = pool.acquire();
  EXPECT_TRUE(b.empty());
  b.assign(500, 0xab);
  const size_t grown = b.capacity();
  pool.release(std::move(b));

  auto again = pool.acquire();
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), grown);

  auto s = pool.stats();
  EXPECT_EQ(s.acquired, 2u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.released, 1u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(BufferPool, ZeroCapacityBuffersAreDropped) {
  BufferPool pool;
  pool.release(std::vector<uint8_t>{});
  auto s = pool.stats();
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.retained, 0u);
}

TEST(BufferPool, OversizedBuffersAreDropped) {
  BufferPool pool(/*max_retained=*/4, /*max_bytes_each=*/64);
  std::vector<uint8_t> big(1000, 1);
  pool.release(std::move(big));
  EXPECT_EQ(pool.stats().dropped, 1u);

  std::vector<uint8_t> small(32, 1);
  pool.release(std::move(small));
  EXPECT_EQ(pool.stats().retained, 1u);
}

TEST(BufferPool, FreelistLengthIsBounded) {
  BufferPool pool(/*max_retained=*/2, /*max_bytes_each=*/1024);
  for (int i = 0; i < 5; ++i) {
    pool.release(std::vector<uint8_t>(16, 0));
  }
  auto s = pool.stats();
  EXPECT_EQ(s.retained, 2u);
  EXPECT_EQ(s.dropped, 3u);
}

TEST(BufferPool, DroppingInsteadOfReleasingIsSafe) {
  BufferPool pool;
  {
    auto b = pool.acquire();
    b.resize(64);
    // b goes out of scope without release(): the pool tracks nothing, so
    // nothing dangles and nothing leaks.
  }
  EXPECT_EQ(pool.stats().released, 0u);
  (void)pool.acquire();
}

TEST(BufferPool, RegistryCountersMatchPoolStats) {
  // stats() and the wire.pool.* registry counters are two views of one
  // count: the registry moves by exactly this pool's totals.
  const auto before = obs::Registry::global().snapshot();
  BufferPool pool(/*max_retained=*/2, /*max_bytes_each=*/1024);
  for (int i = 0; i < 6; ++i) {
    auto b = pool.acquire();
    b.resize(i % 3 == 0 ? 4096 : 64);  // every third one is too big to keep
    pool.release(std::move(b));
  }
  pool.release(std::vector<uint8_t>{});
  const auto moved = obs::Registry::global().snapshot().delta_since(before);
  auto delta = [&](const char* name) {
    auto it = moved.counters.find(name);
    return it == moved.counters.end() ? uint64_t{0} : it->second;
  };
  const auto s = pool.stats();
  EXPECT_GT(s.reused, 0u);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(delta("wire.pool.acquired"), s.acquired);
  EXPECT_EQ(delta("wire.pool.reused"), s.reused);
  EXPECT_EQ(delta("wire.pool.released"), s.released);
  EXPECT_EQ(delta("wire.pool.dropped"), s.dropped);
}

TEST(BufferPool, ConcurrentAcquireRelease) {
  BufferPool pool(/*max_retained=*/8, /*max_bytes_each=*/4096);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      for (int i = 0; i < kRounds; ++i) {
        auto b = pool.acquire();
        b.assign(static_cast<size_t>(16 + (i + t) % 128),
                 static_cast<uint8_t>(i));
        if (i % 7 != 0) pool.release(std::move(b));  // sometimes just drop
      }
    });
  }
  for (auto& w : workers) w.join();

  auto s = pool.stats();
  EXPECT_EQ(s.acquired, static_cast<uint64_t>(kThreads) * kRounds);
  // Each thread drops the i % 7 == 0 rounds and releases the rest.
  EXPECT_EQ(s.released,
            static_cast<uint64_t>(kThreads) * (kRounds - (kRounds + 6) / 7));
  EXPECT_LE(s.retained, 8u);
}

}  // namespace
}  // namespace mbird::wire
