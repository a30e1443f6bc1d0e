#include <gtest/gtest.h>

#include <typeinfo>

#include "runtime/conform.hpp"
#include "support/rng.hpp"
#include "wire/wire.hpp"

namespace mbird::wire {
namespace {

using mtype::Graph;
using mtype::Ref;
using runtime::Value;

TEST(Wire, IntWidthByRange) {
  EXPECT_EQ(int_width(0, 1), 1u);
  EXPECT_EQ(int_width(0, 255), 1u);
  EXPECT_EQ(int_width(0, 256), 2u);
  EXPECT_EQ(int_width(-128, 127), 1u);
  EXPECT_EQ(int_width(-pow2(31), pow2(31) - 1), 4u);
  EXPECT_EQ(int_width(0, pow2(64) - 1), 8u);
  EXPECT_EQ(int_width(-pow2(63), pow2(63) - 1), 8u);
}

TEST(Wire, RangeAwareIntegerEncoding) {
  Graph g;
  Ref byte = g.integer(0, 255);
  auto bytes = encode(g, byte, Value::integer(200));
  EXPECT_EQ(bytes.size(), 1u);  // one byte on the wire: the paper's ranges pay off
  EXPECT_EQ(decode(g, byte, bytes), Value::integer(200));

  // Offset encoding: range [-10..10] fits one byte.
  Ref small = g.integer(-10, 10);
  auto b2 = encode(g, small, Value::integer(-10));
  EXPECT_EQ(b2.size(), 1u);
  EXPECT_EQ(b2[0], 0u);
  EXPECT_EQ(decode(g, small, b2), Value::integer(-10));
}

TEST(Wire, IntegerOutsideRangeRejected) {
  Graph g;
  Ref byte = g.integer(0, 100);
  EXPECT_THROW(encode(g, byte, Value::integer(200)), WireError);
}

TEST(Wire, CharsByRepertoire) {
  Graph g;
  Ref latin = g.character(stype::Repertoire::Latin1);
  Ref uni = g.character(stype::Repertoire::Unicode);
  EXPECT_EQ(encode(g, latin, Value::character('a')).size(), 1u);
  EXPECT_EQ(encode(g, uni, Value::character(0x1F600)).size(), 4u);
  EXPECT_EQ(decode(g, uni, encode(g, uni, Value::character(0x1F600))),
            Value::character(0x1F600));
  EXPECT_THROW(encode(g, latin, Value::character(0x100)), WireError);
}

TEST(Wire, RealsByPrecision) {
  Graph g;
  Ref f32 = g.real(24, 8);
  Ref f64 = g.real(53, 11);
  EXPECT_EQ(encode(g, f32, Value::real(1.5)).size(), 4u);
  EXPECT_EQ(encode(g, f64, Value::real(1.5)).size(), 8u);
  EXPECT_EQ(decode(g, f64, encode(g, f64, Value::real(0.1))), Value::real(0.1));
  EXPECT_EQ(decode(g, f32, encode(g, f32, Value::real(1.5))), Value::real(1.5));
}

TEST(Wire, RecordConcatenation) {
  Graph g;
  Ref rec = g.record({g.integer(0, 255), g.real(24, 8)});
  Value v = Value::record({Value::integer(7), Value::real(2.5)});
  auto bytes = encode(g, rec, v);
  EXPECT_EQ(bytes.size(), 5u);
  EXPECT_EQ(decode(g, rec, bytes), v);
}

TEST(Wire, ChoiceDiscriminant) {
  Graph g;
  Ref ch = g.choice({g.unit(), g.integer(0, 255)});
  Value nil = Value::choice(0, Value::unit());
  Value some = Value::choice(1, Value::integer(42));
  EXPECT_EQ(decode(g, ch, encode(g, ch, nil)), nil);
  EXPECT_EQ(decode(g, ch, encode(g, ch, some)), some);
  EXPECT_EQ(encode(g, ch, nil).size(), 4u);
}

TEST(Wire, ListLengthPrefixed) {
  Graph g;
  Ref list = g.list_of(g.real(24, 8));
  Value v = Value::list({Value::real(1), Value::real(2), Value::real(3)});
  auto bytes = encode(g, list, v);
  EXPECT_EQ(bytes.size(), 4u + 3 * 4u);
  EXPECT_EQ(decode(g, list, bytes), v);
  EXPECT_EQ(decode(g, list, encode(g, list, Value::list({}))), Value::list({}));
}

TEST(Wire, ChainEncodesAsList) {
  Graph g;
  Ref list = g.list_of(g.integer(0, 9));
  Value chain = Value::chain_from_list({Value::integer(1), Value::integer(2)}, 0, 1);
  auto bytes = encode(g, list, chain);
  EXPECT_EQ(decode(g, list, bytes),
            Value::list({Value::integer(1), Value::integer(2)}));
}

TEST(Wire, PortsAreU64) {
  Graph g;
  Ref p = g.port(g.unit());
  auto bytes = encode(g, p, Value::port(0x1234567890abcdefULL));
  EXPECT_EQ(bytes.size(), 8u);
  EXPECT_EQ(decode(g, p, bytes), Value::port(0x1234567890abcdefULL));
}

TEST(Wire, TruncationDetected) {
  Graph g;
  Ref rec = g.record({g.integer(0, 65535), g.integer(0, 65535)});
  auto bytes = encode(g, rec, Value::record({Value::integer(1), Value::integer(2)}));
  bytes.pop_back();
  EXPECT_THROW(decode(g, rec, bytes), WireError);
}

TEST(Wire, ForgedListLengthRejectedBeforeAllocating) {
  // 0f ff ff ff: a char list claiming 2^28 - 1 elements, none of which
  // follow. Reserving for the claimed length would ask for ~20 GiB of
  // Values; the decoder must instead fail on the missing bytes.
  Graph g;
  Ref str = g.list_of(g.character(stype::Repertoire::Latin1));
  const std::vector<uint8_t> bytes = {0x0f, 0xff, 0xff, 0xff};
  EXPECT_THROW(decode(g, str, bytes), WireError);
}

/// The element form of a list of 8-bit characters.
Value element_chars(std::string_view s) {
  std::vector<Value> elems;
  for (char c : s) elems.push_back(Value::character(static_cast<unsigned char>(c)));
  return Value::list(std::move(elems));
}

/// Random bytes over the whole 0x00-0xff range; every fourth string is empty.
std::string random_bytes(Rng& rng) {
  std::string s(rng.below(4) == 0 ? 0 : rng.below(300), '\0');
  for (char& c : s) c = static_cast<char>(rng.below(256));
  return s;
}

TEST(Wire, PackedAndElementFormsEncodeIdentically) {
  Graph g;
  Rng rng(17);
  for (auto rep : {stype::Repertoire::Ascii, stype::Repertoire::Latin1,
                   stype::Repertoire::Ucs2, stype::Repertoire::Unicode}) {
    Ref str = g.list_of(g.character(rep));
    Ref rec = g.record({g.integer(0, 9), str, str});
    for (int i = 0; i < 50; ++i) {
      const std::string s = random_bytes(rng), t = random_bytes(rng);
      const auto bytes = encode(g, str, element_chars(s));
      EXPECT_EQ(encode(g, str, Value::string(s)), bytes) << stype::to_string(rep);
      EXPECT_EQ(encode(g, rec, Value::record({Value::integer(1), Value::string(s),
                                              element_chars(t)})),
                encode(g, rec, Value::record({Value::integer(1), element_chars(s),
                                              Value::string(t)})));
      EXPECT_EQ(decode(g, str, bytes), Value::string(s));
    }
  }
}

TEST(Wire, OneByteRepertoireDecodesPacked) {
  Graph g;
  const std::string s = std::string("Latin \x80\xe9\xff\x00", 10);
  for (auto rep : {stype::Repertoire::Ascii, stype::Repertoire::Latin1}) {
    Ref str = g.list_of(g.character(rep));
    Value back = decode(g, str, encode(g, str, element_chars(s)));
    ASSERT_TRUE(back.packed_chars().has_value());
    EXPECT_EQ(*back.packed_chars(), s);
    EXPECT_EQ(back, element_chars(s));
    EXPECT_EQ(element_chars(s), back);
  }
  // 4-byte repertoires decode to the element form.
  Ref wide = g.list_of(g.character(stype::Repertoire::Unicode));
  Value back = decode(g, wide, encode(g, wide, Value::string(s)));
  EXPECT_FALSE(back.packed_chars().has_value());
  EXPECT_EQ(back, Value::string(s));
}

TEST(Wire, PackedAgainstNonCharElementsThrowsLikeElementForm) {
  Graph g;
  const Ref point = g.record({g.real(24, 8), g.real(24, 8)});
  for (Ref bad : {g.list_of(g.integer(0, 255)), g.list_of(point),
                  g.list_of(g.real(53, 11))}) {
    std::string packed_err, element_err;
    try {
      (void)encode(g, bad, Value::string("ab"));
    } catch (const MbError& e) {
      packed_err = std::string(typeid(e).name()) + ": " + e.what();
    }
    try {
      (void)encode(g, bad, element_chars("ab"));
    } catch (const MbError& e) {
      element_err = std::string(typeid(e).name()) + ": " + e.what();
    }
    EXPECT_FALSE(packed_err.empty());
    EXPECT_EQ(packed_err, element_err);
  }
}

TEST(Wire, TrailingBytesDetected) {
  Graph g;
  Ref i = g.integer(0, 255);
  auto bytes = encode(g, i, Value::integer(1));
  bytes.push_back(0);
  EXPECT_THROW(decode(g, i, bytes), WireError);
}

TEST(Wire, BadDiscriminantDetected) {
  Graph g;
  Ref ch = g.choice({g.unit(), g.unit()});
  std::vector<uint8_t> bytes = {0, 0, 0, 9};  // arm 9 of 2
  EXPECT_THROW(decode(g, ch, bytes), WireError);
}

TEST(Wire, FrameRoundtrip) {
  Frame f;
  f.origin_node = 3;
  f.seq = 99;
  f.cum_ack = 42;
  f.dest_port = (static_cast<uint64_t>(7) << 48) | 21;
  f.payload = {1, 2, 3};
  auto bytes = pack_frame(f);
  Frame g2 = unpack_frame(bytes);
  EXPECT_EQ(g2.kind, FrameKind::Data);
  EXPECT_EQ(g2.origin_node, 3);
  EXPECT_EQ(g2.seq, 99u);
  EXPECT_EQ(g2.cum_ack, 42u);
  EXPECT_EQ(g2.dest_port, f.dest_port);
  EXPECT_EQ(g2.payload, f.payload);
}

TEST(Wire, FrameTraceExtensionRoundtrip) {
  Frame f;
  f.origin_node = 3;
  f.seq = 7;
  f.dest_port = (static_cast<uint64_t>(7) << 48) | 21;
  f.trace_id = 0xdeadbeefcafef00dull;
  f.parent_span_id = 0x0123456789abcdefull;
  f.sampled = true;
  f.payload = {9, 8, 7};
  auto bytes = pack_frame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize + kTraceExtSize + f.payload.size());
  EXPECT_NE(bytes[6] & kFrameFlagTrace, 0);  // kind byte carries the flag
  Frame g2 = unpack_frame(bytes);
  EXPECT_EQ(g2.kind, FrameKind::Data);
  EXPECT_EQ(g2.trace_id, f.trace_id);
  EXPECT_EQ(g2.parent_span_id, f.parent_span_id);
  EXPECT_TRUE(g2.sampled);
  EXPECT_EQ(g2.seq, 7u);
  EXPECT_EQ(g2.dest_port, f.dest_port);
  EXPECT_EQ(g2.payload, f.payload);
}

TEST(Wire, FrameWithoutContextPacksNoExtension) {
  // trace_id 0 = no context: the v2 header must be byte-identical to what
  // a pre-extension peer expects (no flag bit, no extra bytes).
  Frame f;
  f.payload = {1, 2};
  auto bytes = pack_frame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize + f.payload.size());
  EXPECT_EQ(bytes[6] & kFrameFlagTrace, 0);
  Frame g2 = unpack_frame(bytes);
  EXPECT_EQ(g2.trace_id, 0u);
  EXPECT_FALSE(g2.sampled);
}

TEST(Wire, FrameTraceExtensionTruncatedDetected) {
  Frame f;
  f.trace_id = 42;
  f.parent_span_id = 43;
  f.payload = {1, 2, 3};
  auto bytes = pack_frame(f);
  // Cut anywhere inside the extension (or the payload behind it): the
  // length check must reject every truncation, never read OOB.
  for (size_t keep = kFrameHeaderSize; keep < bytes.size(); ++keep) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(unpack_frame(cut), WireError) << "prefix of " << keep;
  }
}

TEST(Wire, HeaderPackAndInPlaceViewMatchTheWholeFrame) {
  // The send path packs only the header and the receive path views the
  // payload where it lies: header + payload must equal pack_frame's bytes,
  // and view_frame's payload must point into the buffer it parsed.
  Frame f;
  f.kind = FrameKind::Chunk;
  f.origin_node = 4;
  f.dest_port = (static_cast<uint64_t>(2) << 48) | 3;
  f.trace_id = 77;
  f.parent_span_id = 78;
  f.payload = {5, 6, 7, 8};
  uint8_t head[kMaxFrameHeaderSize];
  const size_t n = pack_header(f, f.payload.size(), head);
  std::vector<uint8_t> joined(head, head + n);
  joined.insert(joined.end(), f.payload.begin(), f.payload.end());
  EXPECT_EQ(joined, pack_frame(f));
  const FrameView v = view_frame(joined.data(), joined.size());
  EXPECT_EQ(v.kind, FrameKind::Chunk);
  EXPECT_EQ(v.seq, 0u);
  EXPECT_EQ(v.trace_id, 77u);
  EXPECT_EQ(v.payload, joined.data() + n);
  EXPECT_EQ(v.len, f.payload.size());
}

TEST(Wire, AckFrameRoundtrip) {
  Frame f;
  f.kind = FrameKind::Ack;
  f.origin_node = 9;
  f.cum_ack = 1234567;
  auto bytes = pack_frame(f);
  Frame g2 = unpack_frame(bytes);
  EXPECT_EQ(g2.kind, FrameKind::Ack);
  EXPECT_EQ(g2.origin_node, 9);
  EXPECT_EQ(g2.seq, 0u);
  EXPECT_EQ(g2.cum_ack, 1234567u);
  EXPECT_TRUE(g2.payload.empty());
}

TEST(Wire, FrameBadMagicAndLength) {
  Frame f;
  f.payload = {1};
  auto bytes = pack_frame(f);
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(unpack_frame(bad_magic), WireError);
  auto bad_len = bytes;
  bad_len.push_back(0);
  EXPECT_THROW(unpack_frame(bad_len), WireError);
}

TEST(Wire, FrameTruncatedHeaderDetected) {
  Frame f;
  f.payload = {1, 2, 3};
  auto bytes = pack_frame(f);
  // Every strict prefix of the header must be rejected, not read OOB.
  for (size_t keep = 0; keep < 33; ++keep) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(unpack_frame(cut), WireError) << "prefix of " << keep;
  }
}

TEST(Wire, FrameVersionMismatchDetected) {
  Frame f;
  auto bytes = pack_frame(f);
  auto old = bytes;
  old[5] = static_cast<uint8_t>(kVersion - 1);  // version u16 at offset 4..5
  EXPECT_THROW(unpack_frame(old), WireError);
  auto future = bytes;
  future[4] = 0x7f;
  EXPECT_THROW(unpack_frame(future), WireError);
}

TEST(Wire, FrameUnknownKindDetected) {
  Frame f;
  auto bytes = pack_frame(f);
  bytes[6] = 0x17;  // kind u8 sits right after the version
  EXPECT_THROW(unpack_frame(bytes), WireError);
}

TEST(Wire, FramePayloadLengthOverrunDetected) {
  Frame f;
  f.payload = {1, 2, 3, 4};
  auto bytes = pack_frame(f);
  // The payload-length field is the 4 bytes just before the payload.
  size_t len_at = bytes.size() - f.payload.size() - 4;
  // Claim more bytes than the buffer holds.
  auto over = bytes;
  over[len_at + 3] = 200;
  EXPECT_THROW(unpack_frame(over), WireError);
  // Claim fewer: trailing garbage must also be rejected.
  auto under = bytes;
  under[len_at + 3] = 1;
  EXPECT_THROW(unpack_frame(under), WireError);
  // Truncated payload with an honest length field.
  auto cut = bytes;
  cut.pop_back();
  EXPECT_THROW(unpack_frame(cut), WireError);
}

class WireRoundtripProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(WireRoundtripProperty, EncodeDecodeIsIdentity) {
  Graph g;
  Ref point = g.record({g.real(24, 8), g.real(24, 8)});
  Ref type = g.record(
      {g.integer(-1000, 1000), g.list_of(point),
       g.choice({g.unit(), g.character(stype::Repertoire::Latin1), point}),
       g.port(g.unit())});
  Value v = runtime::random_value(g, type, GetParam());
  ASSERT_TRUE(runtime::conforms(g, type, v));
  Value back = decode(g, type, encode(g, type, v));
  // Reals traverse as f32; random_value produces f32-representable values.
  EXPECT_EQ(back, v) << v.to_string() << " vs " << back.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundtripProperty,
                         testing::Range<uint64_t>(0, 60));

}  // namespace
}  // namespace mbird::wire
