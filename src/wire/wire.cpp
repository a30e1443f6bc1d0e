#include "wire/wire.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace mbird::wire {

using mtype::Graph;
using mtype::MKind;
using mtype::Ref;
using runtime::Value;

unsigned int_width(Int128 lo, Int128 hi) {
  unsigned __int128 span =
      static_cast<unsigned __int128>(hi - lo);  // hi >= lo guaranteed
  if (span < (1u << 8)) return 1;
  if (span < (1u << 16)) return 2;
  if (span < (static_cast<unsigned __int128>(1) << 32)) return 4;
  if (span < (static_cast<unsigned __int128>(1) << 64)) return 8;
  return 16;
}

namespace {

/// Appends to a caller-owned vector, so encoders can target pooled /
/// reused buffers (wire::BufferPool) without a copy on the way out.
class Sink {
 public:
  explicit Sink(std::vector<uint8_t>& out) : out_(out) {}
  void u8(uint8_t v) { out_.push_back(v); }
  void big(unsigned __int128 v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<uint8_t>(v >> ((bytes - 1 - i) * 8)));
    }
  }
  void f32(float f) {
    uint32_t bits;
    std::memcpy(&bits, &f, 4);
    big(bits, 4);
  }
  void f64(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    big(bits, 8);
  }
  void raw(const char* data, size_t len) {
    out_.insert(out_.end(), data, data + len);
  }

 private:
  std::vector<uint8_t>& out_;
};

class Source {
 public:
  Source(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Source(const std::vector<uint8_t>& bytes)
      : Source(bytes.data(), bytes.size()) {}
  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  unsigned __int128 big(unsigned bytes) {
    need(bytes);
    unsigned __int128 v = 0;
    for (unsigned i = 0; i < bytes; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }
  float f32() {
    uint32_t bits = static_cast<uint32_t>(big(4));
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
  }
  double f64() {
    uint64_t bits = static_cast<uint64_t>(big(8));
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  /// The next `n` bytes, checked against the bytes left before any use.
  /// A shortfall reports the end of the input, where reading the bytes
  /// one at a time would have stopped.
  std::string_view take(size_t n) {
    if (n > len_ - pos_) {
      throw WireError("truncated message at byte " + std::to_string(len_));
    }
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == len_; }
  [[nodiscard]] size_t pos() const { return pos_; }
  [[nodiscard]] size_t size() const { return len_; }

 private:
  void need(size_t n) {
    if (pos_ + n > len_) {
      throw WireError("truncated message at byte " + std::to_string(pos_));
    }
  }
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

constexpr int kMaxDepth = 100000;

/// Chars of this repertoire travel as one byte each.
bool one_byte(stype::Repertoire r) {
  return r == stype::Repertoire::Ascii || r == stype::Repertoire::Latin1;
}

void encode_node(const Graph& g, Ref type, const Value& v, Sink& sink,
                 int depth);

/// Encode a List (either form) as its length and then its elements. A
/// packed List sent as 1-byte Chars is appended as one run; every other
/// case goes through at(i), so its bytes and errors are the element form's.
void encode_list(const Graph& g, Ref elem, const Value& list, Sink& sink,
                 int depth) {
  sink.big(list.size(), 4);
  if (auto run = list.packed_chars()) {
    const auto& en = g.at(mtype::skip_var(g, elem));
    if (en.kind == MKind::Char && one_byte(en.repertoire)) {
      sink.raw(run->data(), run->size());
      return;
    }
  }
  for (size_t i = 0; i < list.size(); ++i) {
    encode_node(g, elem, list.at(i), sink, depth + 1);
  }
}

void encode_node(const Graph& g, Ref type, const Value& v, Sink& sink,
                 int depth) {
  if (depth > kMaxDepth) throw WireError("encode recursion limit");
  type = mtype::skip_var(g, type);
  const auto& n = g.at(type);
  switch (n.kind) {
    case MKind::Unit: return;
    case MKind::Int: {
      Int128 x = v.as_int();
      if (x < n.lo || x > n.hi) {
        throw WireError("integer outside wire range: " + to_string(x));
      }
      sink.big(static_cast<unsigned __int128>(x - n.lo), int_width(n.lo, n.hi));
      return;
    }
    case MKind::Char: {
      uint32_t cp = v.as_char();
      if (one_byte(n.repertoire)) {
        if (cp > 0xff) throw WireError("code point exceeds repertoire");
        sink.u8(static_cast<uint8_t>(cp));
      } else {
        sink.big(cp, 4);
      }
      return;
    }
    case MKind::Real:
      if (n.mantissa_bits <= 24) {
        sink.f32(static_cast<float>(v.as_real()));
      } else {
        sink.f64(v.as_real());
      }
      return;
    case MKind::Record: {
      if (!v.is(Value::Kind::Record) || v.size() != n.children.size()) {
        throw WireError("value does not match record shape");
      }
      for (size_t i = 0; i < n.children.size(); ++i) {
        encode_node(g, n.children[i], v.at(i), sink, depth + 1);
      }
      return;
    }
    case MKind::Choice: {
      const Value* val = &v;
      Value chain;
      if (v.is(Value::Kind::List)) {
        chain = Value::chain_from_list(*v.as_list(), 0, 1);
        val = &chain;
      }
      if (!val->is(Value::Kind::Choice) || val->arm() >= n.children.size()) {
        throw WireError("value does not match choice shape");
      }
      sink.big(val->arm(), 4);
      encode_node(g, n.children[val->arm()], val->inner(), sink, depth + 1);
      return;
    }
    case MKind::Rec: {
      auto elems = mtype::match_list_shape(g, type);
      if (elems && elems->size() == 1) {
        // A List is walked in place; only a nil/cons chain materializes.
        if (v.is(Value::Kind::List)) {
          encode_list(g, (*elems)[0], v, sink, depth);
          return;
        }
        if (auto lst = v.as_list()) {
          encode_list(g, (*elems)[0], Value::list(std::move(*lst)), sink, depth);
          return;
        }
      }
      encode_node(g, n.body(), v, sink, depth + 1);
      return;
    }
    case MKind::Port: sink.big(v.as_port(), 8); return;
    case MKind::Var: throw WireError("unreachable var");
  }
}

/// Decode into `out`, a default Value. Containers decode each child
/// straight into its slot, so no decoded Value is moved out of a returned
/// temporary.
void decode_node(const Graph& g, Ref type, Source& src, int depth, Value& out) {
  if (depth > kMaxDepth) throw WireError("decode recursion limit");
  type = mtype::skip_var(g, type);
  const auto& n = g.at(type);
  switch (n.kind) {
    case MKind::Unit: return;
    case MKind::Int: {
      unsigned w = int_width(n.lo, n.hi);
      Int128 v = n.lo + static_cast<Int128>(src.big(w));
      if (v > n.hi) throw WireError("decoded integer exceeds range");
      out = Value::integer(v);
      return;
    }
    case MKind::Char:
      out = Value::character(one_byte(n.repertoire)
                                 ? src.u8()
                                 : static_cast<uint32_t>(src.big(4)));
      return;
    case MKind::Real:
      out = n.mantissa_bits <= 24 ? Value::real(src.f32()) : Value::real(src.f64());
      return;
    case MKind::Record: {
      std::vector<Value> kids(n.children.size());
      for (size_t i = 0; i < kids.size(); ++i) {
        decode_node(g, n.children[i], src, depth + 1, kids[i]);
      }
      out = Value::record(std::move(kids));
      return;
    }
    case MKind::Choice: {
      uint32_t arm = static_cast<uint32_t>(src.big(4));
      if (arm >= n.children.size()) {
        throw WireError("choice discriminant " + std::to_string(arm) +
                        " out of range");
      }
      Value inner;
      decode_node(g, n.children[arm], src, depth + 1, inner);
      out = Value::choice(arm, std::move(inner));
      return;
    }
    case MKind::Rec: {
      auto elems = mtype::match_list_shape(g, type);
      if (elems && elems->size() == 1) {
        uint32_t len = static_cast<uint32_t>(src.big(4));
        if (len > (1u << 28)) throw WireError("implausible sequence length");
        const auto& en = g.at(mtype::skip_var(g, (*elems)[0]));
        if (en.kind == MKind::Char && one_byte(en.repertoire)) {
          // One byte per char: the run is checked against the bytes left,
          // then taken whole into a packed List.
          out = Value::string(src.take(len));
          return;
        }
        std::vector<Value> list;
        // The length is peer-supplied: reserve no more elements than there
        // are bytes left, so a forged length cannot allocate up front.
        list.reserve(std::min<size_t>(len, src.size() - src.pos()));
        for (uint32_t i = 0; i < len; ++i) {
          decode_node(g, (*elems)[0], src, depth + 1, list.emplace_back());
        }
        out = Value::list(std::move(list));
        return;
      }
      decode_node(g, n.body(), src, depth + 1, out);
      return;
    }
    case MKind::Port: out = Value::port(static_cast<uint64_t>(src.big(8))); return;
    case MKind::Var: throw WireError("unreachable var");
  }
  throw WireError("unknown mtype kind");
}

}  // namespace

std::vector<uint8_t> encode(const Graph& g, Ref type, const Value& v) {
  std::vector<uint8_t> out;
  encode_into(g, type, v, out);
  return out;
}

void encode_into(const Graph& g, Ref type, const Value& v,
                 std::vector<uint8_t>& out) {
  size_t mark = out.size();
  try {
    Sink sink(out);
    encode_node(g, type, v, sink, 0);
  } catch (...) {
    out.resize(mark);
    throw;
  }
}

Value decode(const Graph& g, Ref type, const uint8_t* data, size_t len) {
  Source src(data, len);
  Value v;
  decode_node(g, type, src, 0, v);
  if (!src.exhausted()) {
    throw WireError("trailing bytes after message (at " +
                    std::to_string(src.pos()) + " of " +
                    std::to_string(src.size()) + ")");
  }
  return v;
}

Value decode(const Graph& g, Ref type, const std::vector<uint8_t>& bytes) {
  return decode(g, type, bytes.data(), bytes.size());
}

namespace {

uint8_t* put_big(uint8_t* p, uint64_t v, unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i) {
    p[i] = static_cast<uint8_t>(v >> ((bytes - 1 - i) * 8));
  }
  return p + bytes;
}

}  // namespace

size_t pack_header(const FrameHeader& h, size_t payload_len, uint8_t* out) {
  const bool traced = h.trace_id != 0;
  uint8_t* p = out;
  *p++ = 'M';
  *p++ = 'B';
  *p++ = 'I';
  *p++ = 'R';
  p = put_big(p, kVersion, 2);
  *p++ = static_cast<uint8_t>(static_cast<uint8_t>(h.kind) |
                              (traced ? kFrameFlagTrace : uint8_t{0}));
  p = put_big(p, h.origin_node, 2);
  p = put_big(p, h.seq, 8);
  p = put_big(p, h.cum_ack, 8);
  p = put_big(p, h.dest_port, 8);
  p = put_big(p, payload_len, 4);
  if (traced) {
    p = put_big(p, h.trace_id, 8);
    p = put_big(p, h.parent_span_id, 8);
    *p++ = h.sampled ? 1 : 0;
  }
  return static_cast<size_t>(p - out);
}

std::vector<uint8_t> pack_frame(const Frame& f) {
  std::vector<uint8_t> out(kMaxFrameHeaderSize + f.payload.size());
  const size_t n = pack_header(f, f.payload.size(), out.data());
  std::copy(f.payload.begin(), f.payload.end(), out.begin() + static_cast<long>(n));
  out.resize(n + f.payload.size());
  return out;
}

// ---- CHUNK frames -----------------------------------------------------------

void pack_chunk_header(const ChunkInfo& info, uint8_t* out) {
  out = put_big(out, info.msg_id, 4);
  out = put_big(out, info.index, 4);
  *out = info.flags;
}

ChunkView parse_chunk(const uint8_t* payload, size_t len) {
  if (len < kChunkHeaderSize) {
    throw WireError("chunk payload shorter than its sub-header");
  }
  Source src(payload, len);
  ChunkView view;
  view.info.msg_id = static_cast<uint32_t>(src.big(4));
  view.info.index = static_cast<uint32_t>(src.big(4));
  view.info.flags = src.u8();
  view.data = payload + kChunkHeaderSize;
  view.len = len - kChunkHeaderSize;
  return view;
}

// ---- dynamic type -----------------------------------------------------------

namespace {

void put_string(Sink& sink, const std::string& s) {
  if (s.size() > 0xffff) throw WireError("name too long for wire");
  sink.big(s.size(), 2);
  for (char c : s) sink.u8(static_cast<uint8_t>(c));
}

std::string get_string(Source& src) {
  size_t len = static_cast<size_t>(src.big(2));
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) s += static_cast<char>(src.u8());
  return s;
}

void put_int128(Sink& sink, Int128 v) {
  sink.big(static_cast<unsigned __int128>(v), 16);
}

Int128 get_int128(Source& src) {
  return static_cast<Int128>(src.big(16));
}

/// Collect the nodes reachable from `root` in a deterministic order.
std::vector<Ref> reachable(const Graph& g, Ref root) {
  std::vector<Ref> order;
  std::map<Ref, bool> seen;
  std::vector<Ref> work{root};
  while (!work.empty()) {
    Ref r = work.back();
    work.pop_back();
    if (seen[r]) continue;
    seen[r] = true;
    order.push_back(r);
    const auto& n = g.at(r);
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      work.push_back(*it);
    }
    if (n.kind == MKind::Var) work.push_back(n.var_target);
  }
  return order;
}

}  // namespace

std::vector<uint8_t> encode_type(const Graph& g, mtype::Ref type) {
  auto order = reachable(g, type);
  std::map<Ref, uint32_t> remap;
  for (uint32_t i = 0; i < order.size(); ++i) remap[order[i]] = i;

  std::vector<uint8_t> out;
  Sink sink(out);
  sink.big(order.size(), 4);
  sink.big(remap.at(type), 4);
  for (Ref r : order) {
    const auto& n = g.at(r);
    sink.u8(static_cast<uint8_t>(n.kind));
    switch (n.kind) {
      case MKind::Int:
        put_int128(sink, n.lo);
        put_int128(sink, n.hi);
        break;
      case MKind::Char: sink.u8(static_cast<uint8_t>(n.repertoire)); break;
      case MKind::Real:
        sink.big(n.mantissa_bits, 2);
        sink.big(n.exponent_bits, 2);
        break;
      default: break;
    }
    sink.big(n.children.size(), 4);
    for (Ref c : n.children) sink.big(remap.at(c), 4);
    sink.big(n.kind == MKind::Var ? remap.at(n.var_target) : 0, 4);
    put_string(sink, n.name);
    sink.big(n.labels.size(), 4);
    for (const auto& l : n.labels) put_string(sink, l);
  }
  return out;
}

mtype::Ref decode_type(Graph& g, const std::vector<uint8_t>& bytes) {
  Source src(bytes);
  uint32_t count = static_cast<uint32_t>(src.big(4));
  if (count == 0 || count > (1u << 24)) throw WireError("implausible type size");
  uint32_t root_idx = static_cast<uint32_t>(src.big(4));
  if (root_idx >= count) throw WireError("type root out of range");

  uint32_t base = static_cast<uint32_t>(g.size());
  for (uint32_t i = 0; i < count; ++i) {
    mtype::Node n;
    uint8_t kind = src.u8();
    if (kind > static_cast<uint8_t>(MKind::Port)) {
      throw WireError("bad mtype kind on wire");
    }
    n.kind = static_cast<MKind>(kind);
    switch (n.kind) {
      case MKind::Int:
        n.lo = get_int128(src);
        n.hi = get_int128(src);
        if (n.lo > n.hi) throw WireError("empty integer range on wire");
        break;
      case MKind::Char: {
        uint8_t rep = src.u8();
        if (rep > static_cast<uint8_t>(stype::Repertoire::Unicode)) {
          throw WireError("bad repertoire on wire");
        }
        n.repertoire = static_cast<stype::Repertoire>(rep);
        break;
      }
      case MKind::Real:
        n.mantissa_bits = static_cast<uint16_t>(src.big(2));
        n.exponent_bits = static_cast<uint16_t>(src.big(2));
        break;
      default: break;
    }
    uint32_t nchildren = static_cast<uint32_t>(src.big(4));
    if (nchildren > count) throw WireError("bad child count on wire");
    for (uint32_t c = 0; c < nchildren; ++c) {
      uint32_t idx = static_cast<uint32_t>(src.big(4));
      if (idx >= count) throw WireError("type child out of range");
      n.children.push_back(base + idx);
    }
    uint32_t var = static_cast<uint32_t>(src.big(4));
    if (n.kind == MKind::Var) {
      if (var >= count) throw WireError("var target out of range");
      n.var_target = base + var;
    }
    n.name = get_string(src);
    uint32_t nlabels = static_cast<uint32_t>(src.big(4));
    if (nlabels > count + 64) throw WireError("bad label count on wire");
    for (uint32_t l = 0; l < nlabels; ++l) n.labels.push_back(get_string(src));
    g.add_node(std::move(n));
  }
  if (!src.exhausted()) throw WireError("trailing bytes after type");
  return base + root_idx;
}

std::vector<uint8_t> encode_any(const Graph& g, mtype::Ref type,
                                const runtime::Value& v) {
  auto type_bytes = encode_type(g, type);
  auto payload = encode(g, type, v);
  std::vector<uint8_t> out;
  out.reserve(4 + type_bytes.size() + payload.size());
  Sink sink(out);
  sink.big(type_bytes.size(), 4);
  out.insert(out.end(), type_bytes.begin(), type_bytes.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

AnyValue decode_any(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) throw WireError("truncated any");
  uint32_t type_len = (static_cast<uint32_t>(bytes[0]) << 24) |
                      (static_cast<uint32_t>(bytes[1]) << 16) |
                      (static_cast<uint32_t>(bytes[2]) << 8) |
                      static_cast<uint32_t>(bytes[3]);
  if (4 + static_cast<size_t>(type_len) > bytes.size()) {
    throw WireError("truncated any type");
  }
  AnyValue any;
  std::vector<uint8_t> type_bytes(bytes.begin() + 4,
                                  bytes.begin() + 4 + type_len);
  any.type = decode_type(any.graph, type_bytes);
  std::vector<uint8_t> payload(bytes.begin() + 4 + type_len, bytes.end());
  any.value = decode(any.graph, any.type, payload);
  return any;
}

FrameView view_frame(const uint8_t* data, size_t size) {
  Source src(data, size);
  if (src.u8() != 'M' || src.u8() != 'B' || src.u8() != 'I' || src.u8() != 'R') {
    throw WireError("bad frame magic");
  }
  uint16_t version = static_cast<uint16_t>(src.big(2));
  if (version != kVersion) {
    throw WireError("unsupported frame version " + std::to_string(version));
  }
  uint8_t kind = src.u8();
  const bool traced = (kind & kFrameFlagTrace) != 0;
  kind &= static_cast<uint8_t>(~kFrameFlagTrace);
  if (kind > static_cast<uint8_t>(FrameKind::Chunk)) {
    throw WireError("unknown frame kind " + std::to_string(kind));
  }
  FrameView f;
  f.kind = static_cast<FrameKind>(kind);
  f.origin_node = static_cast<uint16_t>(src.big(2));
  f.seq = static_cast<uint64_t>(src.big(8));
  f.cum_ack = static_cast<uint64_t>(src.big(8));
  f.dest_port = static_cast<uint64_t>(src.big(8));
  uint32_t len = static_cast<uint32_t>(src.big(4));
  if (traced) {
    if (size - src.pos() < kTraceExtSize) {
      throw WireError("frame trace extension truncated");
    }
    f.trace_id = static_cast<uint64_t>(src.big(8));
    f.parent_span_id = static_cast<uint64_t>(src.big(8));
    f.sampled = src.u8() != 0;
  }
  if (len != size - src.pos()) {
    throw WireError("frame length mismatch");
  }
  f.payload = data + src.pos();
  f.len = len;
  return f;
}

Frame unpack_frame(const std::vector<uint8_t>& bytes) {
  const FrameView v = view_frame(bytes.data(), bytes.size());
  Frame f;
  static_cast<FrameHeader&>(f) = v;
  f.payload.assign(v.payload, v.payload + v.len);
  return f;
}

}  // namespace mbird::wire
