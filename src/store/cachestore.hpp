// Durable CrossCache backing store: an append-only record log over a
// PageFile, indexed in memory at open().
//
// Records are opaque payloads keyed by (StableId left, StableId right,
// options fingerprint, record kind). StableIds are cross-process content
// digests of STRICT canonical classes (see mtype/canon.hpp), so a record
// written by one process re-keys correctly in any process that interns the
// same layouts — the CanonId numbering itself never touches disk.
//
// Record wire format, appended back-to-back from PageFile::kDataStart:
//
//   u32 body_len   — bytes from `kind` through the payload end
//   u32 crc        — crc32 of the body
//   u8  kind       — kVerdict | kProgram
//   u8  fp         — options fingerprint
//   16B left, 16B right StableIds
//   payload        — codec bytes (see store/serial.hpp)
//
// The open() scan walks records up to the committed data_end, stopping at
// the first length/crc violation and logically truncating there: a torn
// or bit-flipped tail degrades the cache toward cold, and the per-record
// crc means a corrupt record can never deserialize into a wrong verdict
// (the payload codecs additionally bounds-check every field). Multiple
// kVerdict records may exist per key (variant lists accumulate);
// kProgram keeps first-wins semantics. put() dedups on (length, crc) so
// re-inserting an identical record across runs does not grow the file.
//
// Thread-safe: one mutex over get/put/flush (cold-path traffic only — the
// in-memory CrossCache absorbs all warm hits).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtype/canon.hpp"
#include "obs/metrics.hpp"
#include "store/arena.hpp"
#include "store/pagefile.hpp"

namespace mbird::store {

struct CacheKey {
  mtype::StableId left;
  mtype::StableId right;
  uint8_t fp = 0;
  [[nodiscard]] bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = k.left.hi ^ (k.left.lo * 0x9e3779b97f4a7c15ULL);
    h ^= k.right.hi + 0x517cc1b727220a95ULL + (h << 6) + (h >> 2);
    h ^= k.right.lo + (h << 6) + (h >> 2);
    h ^= k.fp;
    return static_cast<size_t>(h);
  }
};

class CacheStore {
 public:
  static constexpr uint8_t kVerdict = 1;
  static constexpr uint8_t kProgram = 2;
  /// Store-layer format version; combined with the caller's payload codec
  /// version into the PageFile format version, so bumping either side
  /// invalidates existing files wholesale.
  static constexpr uint32_t kFormatVersion = 1;

  CacheStore() = default;
  /// Best-effort flush; errors are swallowed (destructors cannot report).
  ~CacheStore();
  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  /// Open or create `path` and index its record log. A version mismatch or
  /// unreadable header recreates the file empty (see PageFile::open).
  [[nodiscard]] bool open(const std::string& path, uint32_t payload_version,
                          std::string* error);
  void close();
  [[nodiscard]] bool is_open() const { return file_.is_open(); }
  [[nodiscard]] bool opened_fresh() const { return file_.opened_fresh(); }

  /// All payloads recorded for key+kind, in append order. Returns false on
  /// a miss (no counter distinction between absent key and absent kind).
  [[nodiscard]] bool get(const CacheKey& key, uint8_t kind,
                         std::vector<std::vector<uint8_t>>* out);
  /// Same lookup, but payload bytes land in `arena` (views valid until its
  /// next reset) instead of one heap vector per record — the hydration hot
  /// path stages through a reused per-thread arena this way. `out` is
  /// cleared, not shrunk, so its capacity is reused too.
  [[nodiscard]] bool get(const CacheKey& key, uint8_t kind, BumpArena* arena,
                         std::vector<PayloadView>* out);
  /// True if at least one record exists for key+kind.
  [[nodiscard]] bool contains(const CacheKey& key, uint8_t kind);

  /// Append a record. Identical payloads (same length + crc) already
  /// present under key+kind are dropped. Buffered; durable after flush().
  void put(const CacheKey& key, uint8_t kind, const void* payload, size_t n);

  /// Crash-safe commit of all buffered appends.
  [[nodiscard]] bool flush(std::string* error);

  struct Stats {
    uint64_t entries = 0;  // indexed records (both kinds)
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t appends = 0;
    uint64_t bytes_appended = 0;
    PageFile::Stats pages;
  };
  [[nodiscard]] Stats stats() const;

  /// Test hook: forwarded to the underlying PageFile.
  void set_flush_failpoint(PageFile::FailPoint fp) {
    file_.set_flush_failpoint(fp);
  }

 private:
  struct Span {
    uint64_t off = 0;   // absolute offset of the payload bytes
    uint32_t len = 0;   // payload length
    uint32_t crc = 0;   // body crc (dedup signature)
    uint8_t kind = 0;
  };

  void index_log();

  mutable std::mutex mu_;
  PageFile file_;
  std::unordered_map<CacheKey, std::vector<Span>, CacheKeyHash> index_;
  uint64_t entries_ = 0;
  obs::Count hits_{"store.hits"};
  obs::Count misses_{"store.misses"};
  obs::Count appends_{"store.appends"};
  obs::Count bytes_appended_{"store.bytes_appended"};
};

}  // namespace mbird::store
