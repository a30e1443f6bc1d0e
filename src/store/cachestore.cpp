#include "store/cachestore.hpp"

#include <cstring>

#include "store/serial.hpp"

namespace mbird::store {

namespace {

// Record header: u32 body_len, u32 crc. Body: u8 kind, u8 fp, 2x16B ids,
// payload.
constexpr size_t kHeaderBytes = 8;
constexpr size_t kKeyBytes = 1 + 1 + 16 + 16;
// A record longer than this is assumed to be log corruption rather than a
// real entry (the largest real payloads — programs for thousand-node
// plans — are a few hundred KiB).
constexpr uint32_t kMaxBody = 64u << 20;

void put_id(uint8_t* p, const mtype::StableId& id) {
  std::memcpy(p, &id.hi, 8);
  std::memcpy(p + 8, &id.lo, 8);
}

mtype::StableId get_id(const uint8_t* p) {
  mtype::StableId id;
  std::memcpy(&id.hi, p, 8);
  std::memcpy(&id.lo, p + 8, 8);
  return id;
}

}  // namespace

CacheStore::~CacheStore() {
  std::string err;
  if (file_.is_open()) (void)flush(&err);
}

void CacheStore::close() {
  std::lock_guard lock(mu_);
  file_.close();
  index_.clear();
  entries_ = 0;
}

bool CacheStore::open(const std::string& path, uint32_t payload_version,
                      std::string* error) {
  std::lock_guard lock(mu_);
  index_.clear();
  entries_ = 0;
  uint64_t format = (static_cast<uint64_t>(kFormatVersion) << 32) |
                    payload_version;
  if (!file_.open(path, format, error)) return false;
  index_log();
  return true;
}

void CacheStore::index_log() {
  uint64_t off = PageFile::kDataStart;
  const uint64_t end = file_.data_end();
  std::vector<uint8_t> body;
  std::string err;
  while (off + kHeaderBytes <= end) {
    uint8_t hdr[kHeaderBytes];
    if (!file_.read(off, hdr, sizeof hdr, &err)) break;
    uint32_t body_len, crc;
    std::memcpy(&body_len, hdr, 4);
    std::memcpy(&crc, hdr + 4, 4);
    if (body_len < kKeyBytes || body_len > kMaxBody ||
        off + kHeaderBytes + body_len > end) {
      break;
    }
    body.resize(body_len);
    if (!file_.read(off + kHeaderBytes, body.data(), body_len, &err)) break;
    if (crc32(body.data(), body_len) != crc) break;
    Span span;
    span.kind = body[0];
    span.off = off + kHeaderBytes + kKeyBytes;
    span.len = body_len - static_cast<uint32_t>(kKeyBytes);
    span.crc = crc;
    CacheKey key;
    key.fp = body[1];
    key.left = get_id(body.data() + 2);
    key.right = get_id(body.data() + 18);
    index_[key].push_back(span);
    ++entries_;
    off += kHeaderBytes + body_len;
  }
  // A torn/corrupt tail ends the log here: later appends overwrite it, and
  // the next flush commits the shorter, fully-valid extent.
  file_.truncate_data(off);
}

bool CacheStore::get(const CacheKey& key, uint8_t kind,
                     std::vector<std::vector<uint8_t>>* out) {
  std::lock_guard lock(mu_);
  out->clear();
  auto it = index_.find(key);
  if (it != index_.end()) {
    std::string err;
    for (const Span& s : it->second) {
      if (s.kind != kind) continue;
      std::vector<uint8_t> payload(s.len);
      if (!file_.read(s.off, payload.data(), s.len, &err)) continue;
      out->push_back(std::move(payload));
    }
  }
  if (out->empty()) {
    misses_.add();
    return false;
  }
  hits_.add();
  return true;
}

bool CacheStore::get(const CacheKey& key, uint8_t kind, BumpArena* arena,
                     std::vector<PayloadView>* out) {
  std::lock_guard lock(mu_);
  out->clear();
  auto it = index_.find(key);
  if (it != index_.end()) {
    std::string err;
    for (const Span& s : it->second) {
      if (s.kind != kind) continue;
      uint8_t* dst = arena->alloc(s.len);
      if (!file_.read(s.off, dst, s.len, &err)) continue;
      out->push_back({dst, s.len});
    }
  }
  if (out->empty()) {
    misses_.add();
    return false;
  }
  hits_.add();
  return true;
}

bool CacheStore::contains(const CacheKey& key, uint8_t kind) {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  for (const Span& s : it->second) {
    if (s.kind == kind) return true;
  }
  return false;
}

void CacheStore::put(const CacheKey& key, uint8_t kind, const void* payload,
                     size_t n) {
  if (key.left.is_null() || key.right.is_null()) return;
  std::lock_guard lock(mu_);
  if (!file_.is_open()) return;
  std::vector<uint8_t> body(kKeyBytes + n);
  body[0] = kind;
  body[1] = key.fp;
  put_id(body.data() + 2, key.left);
  put_id(body.data() + 18, key.right);
  std::memcpy(body.data() + kKeyBytes, payload, n);
  uint32_t crc = crc32(body.data(), body.size());

  auto& spans = index_[key];
  for (const Span& s : spans) {
    // Identical record already on disk (same kind/length/crc): skip, so
    // restart-recompute churn does not grow the file. Programs keep
    // first-wins semantics outright.
    if (s.kind == kind &&
        ((s.crc == crc && s.len + kKeyBytes == body.size()) ||
         kind == kProgram)) {
      return;
    }
  }
  uint8_t hdr[kHeaderBytes];
  uint32_t body_len = static_cast<uint32_t>(body.size());
  std::memcpy(hdr, &body_len, 4);
  std::memcpy(hdr + 4, &crc, 4);
  std::string err;
  uint64_t off = file_.data_end();
  if (!file_.append(hdr, sizeof hdr, &err) ||
      !file_.append(body.data(), body.size(), &err)) {
    // Append failure leaves a torn tail; rewind so the log stays valid.
    file_.truncate_data(off);
    return;
  }
  Span span;
  span.kind = kind;
  span.off = off + kHeaderBytes + kKeyBytes;
  span.len = static_cast<uint32_t>(n);
  span.crc = crc;
  spans.push_back(span);
  ++entries_;
  appends_.add();
  bytes_appended_.add(kHeaderBytes + body.size());
}

bool CacheStore::flush(std::string* error) {
  std::lock_guard lock(mu_);
  if (!file_.is_open()) {
    if (error) *error = "not open";
    return false;
  }
  file_.set_user(0, entries_);
  return file_.flush(error);
}

CacheStore::Stats CacheStore::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.entries = entries_;
  s.hits = hits_;
  s.misses = misses_;
  s.appends = appends_;
  s.bytes_appended = bytes_appended_;
  s.pages = file_.stats();
  return s;
}

}  // namespace mbird::store
