// Durability tests for the page file and the cache store (DESIGN.md §4i).
//
// The property under test throughout: a reopened cache is allowed to be
// COLD (lost records degrade to recomputation) but never WRONG — every
// payload a reopened store serves must be byte-identical to one that was
// put() before the crash/corruption, and version-skewed files must come
// back empty rather than misinterpreted.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/cachestore.hpp"
#include "store/pagefile.hpp"

namespace mbird::store {
namespace {

class StoreTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "mbird_store";
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/cache.mbc";
    std::remove(path_.c_str());
    std::remove((path_ + ".journal").c_str());
  }

  // Flip one byte at an absolute file offset (out-of-band, the way real
  // corruption arrives: while no PageFile has the file open).
  void flip_byte(uint64_t off) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(off));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(&c, 1);
  }

  std::string dir_, path_;
};

CacheKey key_of(uint64_t n) {
  CacheKey k;
  k.left = {0x1000 + n, 0x2000 + n};
  k.right = {0x3000 + n, 0x4000 + n};
  k.fp = static_cast<uint8_t>(n & 0x7);
  return k;
}

std::vector<uint8_t> payload_of(uint64_t n, size_t len) {
  std::vector<uint8_t> p(len);
  for (size_t i = 0; i < len; ++i) {
    p[i] = static_cast<uint8_t>((n * 131 + i * 7) & 0xff);
  }
  return p;
}

// ---- PageFile ---------------------------------------------------------------

TEST_F(StoreTest, PageFileRoundTripAcrossReopen) {
  std::string err;
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  {
    PageFile f;
    ASSERT_TRUE(f.open(path_, 7, &err)) << err;
    EXPECT_TRUE(f.opened_fresh());
    ASSERT_TRUE(f.append(data.data(), data.size(), &err)) << err;
    f.set_user(0, 0xabcdef);
    ASSERT_TRUE(f.flush(&err)) << err;
  }
  PageFile f;
  ASSERT_TRUE(f.open(path_, 7, &err)) << err;
  EXPECT_FALSE(f.opened_fresh());
  EXPECT_EQ(f.committed_data_end(), PageFile::kDataStart + data.size());
  EXPECT_EQ(f.user(0), 0xabcdefu);
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(f.read(PageFile::kDataStart, back.data(), back.size(), &err))
      << err;
  EXPECT_EQ(back, data);
}

TEST_F(StoreTest, PageFileFormatVersionMismatchReinitializes) {
  std::string err;
  {
    PageFile f;
    ASSERT_TRUE(f.open(path_, 7, &err)) << err;
    uint64_t x = 42;
    ASSERT_TRUE(f.append(&x, sizeof x, &err)) << err;
    ASSERT_TRUE(f.flush(&err)) << err;
  }
  PageFile f;
  ASSERT_TRUE(f.open(path_, 8, &err)) << err;
  EXPECT_TRUE(f.opened_fresh()) << "version bump must invalidate wholesale";
  EXPECT_EQ(f.committed_data_end(), PageFile::kDataStart);
}

// Crash between journal fsync and the data-page writes: nothing of the
// committed state was touched yet, so recovery must see exactly the
// previous commit.
TEST_F(StoreTest, PageFileCrashAfterJournalKeepsCommittedState) {
  std::string err;
  std::vector<uint8_t> first(100, 0x11);
  {
    PageFile f;
    ASSERT_TRUE(f.open(path_, 7, &err)) << err;
    ASSERT_TRUE(f.append(first.data(), first.size(), &err)) << err;
    ASSERT_TRUE(f.flush(&err)) << err;
    // Second batch dirties the committed tail page, then "crashes".
    std::vector<uint8_t> second(100, 0x22);
    ASSERT_TRUE(f.append(second.data(), second.size(), &err)) << err;
    f.set_flush_failpoint(PageFile::FailPoint::AfterJournal);
    EXPECT_FALSE(f.flush(&err));
    // Poisoned: later flushes (including the destructor's) are no-ops.
    EXPECT_FALSE(f.flush(&err));
  }
  PageFile f;
  ASSERT_TRUE(f.open(path_, 7, &err)) << err;
  EXPECT_FALSE(f.opened_fresh());
  EXPECT_EQ(f.committed_data_end(), PageFile::kDataStart + first.size());
  std::vector<uint8_t> back(first.size());
  ASSERT_TRUE(f.read(PageFile::kDataStart, back.data(), back.size(), &err))
      << err;
  EXPECT_EQ(back, first);
}

// Crash between the data fsync and the superblock flip: the committed
// tail page on disk now holds NEW bytes, and recovery must roll it back
// from the journal (the superblock still points at the old generation).
TEST_F(StoreTest, PageFileCrashAfterDataReplaysJournal) {
  std::string err;
  std::vector<uint8_t> first(100, 0x11);
  {
    PageFile f;
    ASSERT_TRUE(f.open(path_, 7, &err)) << err;
    ASSERT_TRUE(f.append(first.data(), first.size(), &err)) << err;
    ASSERT_TRUE(f.flush(&err)) << err;
    std::vector<uint8_t> second(100, 0x22);
    ASSERT_TRUE(f.append(second.data(), second.size(), &err)) << err;
    f.set_flush_failpoint(PageFile::FailPoint::AfterData);
    EXPECT_FALSE(f.flush(&err));
  }
  PageFile f;
  ASSERT_TRUE(f.open(path_, 7, &err)) << err;
  EXPECT_FALSE(f.opened_fresh());
  EXPECT_EQ(f.committed_data_end(), PageFile::kDataStart + first.size());
  std::vector<uint8_t> back(first.size());
  ASSERT_TRUE(f.read(PageFile::kDataStart, back.data(), back.size(), &err))
      << err;
  EXPECT_EQ(back, first) << "journal replay must restore the torn tail page";
}

TEST_F(StoreTest, PageFileCorruptSuperblocksReinitialize) {
  std::string err;
  {
    PageFile f;
    ASSERT_TRUE(f.open(path_, 7, &err)) << err;
    uint64_t x = 1;
    ASSERT_TRUE(f.append(&x, sizeof x, &err)) << err;
    ASSERT_TRUE(f.flush(&err)) << err;
  }
  // Damage both superblock slots: no committed state is recoverable and
  // the file must come back empty, not misread.
  flip_byte(8);
  flip_byte(PageFile::kPageSize + 8);
  PageFile f;
  ASSERT_TRUE(f.open(path_, 7, &err)) << err;
  EXPECT_TRUE(f.opened_fresh());
  EXPECT_EQ(f.committed_data_end(), PageFile::kDataStart);
}

// ---- CacheStore -------------------------------------------------------------

TEST_F(StoreTest, CacheStoreRoundTripAcrossReopen) {
  std::string err;
  const size_t n = 50;
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    EXPECT_TRUE(s.opened_fresh());
    for (uint64_t k = 0; k < n; ++k) {
      auto p = payload_of(k, 20 + k % 200);
      s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());
      if (k % 3 == 0) {
        auto q = payload_of(k + 1000, 40);
        s.put(key_of(k), CacheStore::kProgram, q.data(), q.size());
      }
    }
    ASSERT_TRUE(s.flush(&err)) << err;
  }
  CacheStore s;
  ASSERT_TRUE(s.open(path_, 3, &err)) << err;
  EXPECT_FALSE(s.opened_fresh());
  for (uint64_t k = 0; k < n; ++k) {
    std::vector<std::vector<uint8_t>> got;
    ASSERT_TRUE(s.get(key_of(k), CacheStore::kVerdict, &got)) << "key " << k;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], payload_of(k, 20 + k % 200));
    if (k % 3 == 0) {
      got.clear();
      ASSERT_TRUE(s.get(key_of(k), CacheStore::kProgram, &got));
      EXPECT_EQ(got[0], payload_of(k + 1000, 40));
    } else {
      EXPECT_FALSE(s.contains(key_of(k), CacheStore::kProgram));
    }
  }
  EXPECT_GT(s.stats().hits, 0u);
}

TEST_F(StoreTest, CacheStoreRegistryCountersMatchStats) {
  // stats() and the store.* registry counters are two views of one count:
  // the registry moves by exactly this store's totals.
  const auto before = obs::Registry::global().snapshot();
  std::string err;
  CacheStore s;
  ASSERT_TRUE(s.open(path_, 3, &err)) << err;
  for (uint64_t k = 0; k < 8; ++k) {
    auto p = payload_of(k, 16 + k);
    s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());
    s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());  // deduped
  }
  std::vector<std::vector<uint8_t>> got;
  for (uint64_t k = 0; k < 12; ++k) {
    (void)s.get(key_of(k), CacheStore::kVerdict, &got);  // 4 misses
  }
  const auto moved = obs::Registry::global().snapshot().delta_since(before);
  auto delta = [&](const char* name) {
    auto it = moved.counters.find(name);
    return it == moved.counters.end() ? uint64_t{0} : it->second;
  };
  const auto st = s.stats();
  EXPECT_EQ(st.hits, 8u);
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.appends, 8u);
  EXPECT_EQ(delta("store.hits"), st.hits);
  EXPECT_EQ(delta("store.misses"), st.misses);
  EXPECT_EQ(delta("store.appends"), st.appends);
  EXPECT_EQ(delta("store.bytes_appended"), st.bytes_appended);
}

TEST_F(StoreTest, CacheStoreDedupsIdenticalRecordsAcrossRuns) {
  std::string err;
  auto p = payload_of(7, 64);
  uint64_t size_after_first = 0;
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    s.put(key_of(7), CacheStore::kVerdict, p.data(), p.size());
    ASSERT_TRUE(s.flush(&err)) << err;
    size_after_first = std::filesystem::file_size(path_);
  }
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    s.put(key_of(7), CacheStore::kVerdict, p.data(), p.size());
    EXPECT_EQ(s.stats().appends, 0u) << "identical re-insert must be dropped";
    ASSERT_TRUE(s.flush(&err)) << err;
  }
  EXPECT_EQ(std::filesystem::file_size(path_), size_after_first);
}

TEST_F(StoreTest, CacheStorePayloadVersionBumpInvalidates) {
  std::string err;
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    auto p = payload_of(1, 32);
    s.put(key_of(1), CacheStore::kVerdict, p.data(), p.size());
    ASSERT_TRUE(s.flush(&err)) << err;
  }
  CacheStore s;
  ASSERT_TRUE(s.open(path_, 4, &err)) << err;
  EXPECT_TRUE(s.opened_fresh());
  std::vector<std::vector<uint8_t>> got;
  EXPECT_FALSE(s.get(key_of(1), CacheStore::kVerdict, &got));
}

TEST_F(StoreTest, CacheStoreTruncatedTailDegradesToCold) {
  std::string err;
  const size_t n = 100;
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    for (uint64_t k = 0; k < n; ++k) {
      auto p = payload_of(k, 100);
      s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());
    }
    ASSERT_TRUE(s.flush(&err)) << err;
  }
  // Chop the file mid-log: the open() scan stops at the short record. The
  // superblock still claims the full extent, so this is exactly a torn
  // tail; reads past EOF must come back as a cold miss, not garbage.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, PageFile::kDataStart + (full - PageFile::kDataStart) / 2);
  CacheStore s;
  ASSERT_TRUE(s.open(path_, 3, &err)) << err;
  size_t live = 0;
  for (uint64_t k = 0; k < n; ++k) {
    std::vector<std::vector<uint8_t>> got;
    if (s.get(key_of(k), CacheStore::kVerdict, &got)) {
      ++live;
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], payload_of(k, 100)) << "survivor must be identical";
    }
  }
  EXPECT_GT(live, 0u) << "records before the cut survive";
  EXPECT_LT(live, n) << "records after the cut are gone";
}

// Random corruption torture: flip bytes all over the data region across
// many trials. Whatever the damage, a surviving get() must return exactly
// the original payload — the crc scan may only shrink the cache.
TEST_F(StoreTest, CacheStoreCorruptionTortureNeverServesWrongBytes) {
  std::string err;
  const size_t n = 60;
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    for (uint64_t k = 0; k < n; ++k) {
      auto p = payload_of(k, 30 + (k * 13) % 150);
      s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());
    }
    ASSERT_TRUE(s.flush(&err)) << err;
  }
  const auto pristine_size = std::filesystem::file_size(path_);
  std::filesystem::copy_file(path_, path_ + ".orig",
                             std::filesystem::copy_options::overwrite_existing);
  std::mt19937_64 rng(0xfeedface);
  for (int trial = 0; trial < 20; ++trial) {
    std::filesystem::copy_file(path_ + ".orig", path_,
                               std::filesystem::copy_options::overwrite_existing);
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int j = 0; j < flips; ++j) {
      flip_byte(PageFile::kDataStart +
                rng() % (pristine_size - PageFile::kDataStart));
    }
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    for (uint64_t k = 0; k < n; ++k) {
      std::vector<std::vector<uint8_t>> got;
      if (!s.get(key_of(k), CacheStore::kVerdict, &got)) continue;
      for (const auto& g : got) {
        EXPECT_EQ(g, payload_of(k, 30 + (k * 13) % 150))
            << "trial " << trial << " key " << k;
      }
    }
  }
}

// A crash during CacheStore::flush must leave the previously committed
// records intact and lose at most the unflushed tail.
TEST_F(StoreTest, CacheStoreCrashDuringFlushKeepsCommittedRecords) {
  std::string err;
  {
    CacheStore s;
    ASSERT_TRUE(s.open(path_, 3, &err)) << err;
    for (uint64_t k = 0; k < 10; ++k) {
      auto p = payload_of(k, 80);
      s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());
    }
    ASSERT_TRUE(s.flush(&err)) << err;
    for (uint64_t k = 10; k < 20; ++k) {
      auto p = payload_of(k, 80);
      s.put(key_of(k), CacheStore::kVerdict, p.data(), p.size());
    }
    s.set_flush_failpoint(PageFile::FailPoint::AfterData);
    EXPECT_FALSE(s.flush(&err));
  }
  CacheStore s;
  ASSERT_TRUE(s.open(path_, 3, &err)) << err;
  for (uint64_t k = 0; k < 10; ++k) {
    std::vector<std::vector<uint8_t>> got;
    ASSERT_TRUE(s.get(key_of(k), CacheStore::kVerdict, &got)) << "key " << k;
    EXPECT_EQ(got[0], payload_of(k, 80));
  }
  for (uint64_t k = 10; k < 20; ++k) {
    std::vector<std::vector<uint8_t>> got;
    EXPECT_FALSE(s.get(key_of(k), CacheStore::kVerdict, &got))
        << "uncommitted tail must be gone, key " << k;
  }
}

}  // namespace
}  // namespace mbird::store
