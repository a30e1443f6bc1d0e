// PlanIR engine unit tests (DESIGN.md §4j): marshal and native-marshal
// output against the oracle (Converter, then wire::encode)
// on targeted shapes (records, choices, lists, customs), choice
// inline-cache behavior observable through stats(), the SIMD range
// prologue (block counts, rescan-on-failure, fault ordering identical to
// read_image), static output sizing, trim-on-throw, linear flattening of
// programs whose full expansion is exponential, and the compiled-stub
// cache roundtrip.
//
// The 10k-triple randomized differentials live in
// tests/property/differential_test.cpp and native_marshal_test.cpp; these
// cases pin the mechanisms.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "codegen/stubcache.hpp"
#include "compare/compare.hpp"
#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/layout.hpp"
#include "runtime/threaded.hpp"
#include "wire/wire.hpp"

namespace mbird {
namespace {

using mtype::Graph;
using mtype::Ref;
using planir::Program;
using runtime::ImageLayout;
using runtime::NativeHeap;
using runtime::ThreadedEngine;
using runtime::Value;
using LK = ImageLayout::K;

bool have_cc() { return std::system("cc --version > /dev/null 2>&1") == 0; }

// ---- marshal mode -----------------------------------------------------------

struct Built {
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
};

Built pair_of(Ref (*mk)(Graph&), Ref (*mk_dst)(Graph&)) {
  Built s;
  s.a = mk(s.ga);
  s.b = mk_dst(s.gb);
  auto res = compare::compare(s.ga, s.a, s.gb, s.b, {});
  EXPECT_TRUE(res.ok) << res.mismatch.to_string();
  s.plan = std::move(res.plan);
  s.root = res.root;
  return s;
}

/// Marshal `v` through the engine and through the oracle (Converter, then
/// wire::encode); bytes and errors must agree verbatim.
void expect_marshal_matches_oracle(const Built& s, const Program& p,
                                   const Value& v) {
  ThreadedEngine te(p);
  std::vector<uint8_t> ob, tb;
  std::string oerr, terr;
  try {
    ob = wire::encode(s.gb, s.b, runtime::Converter(s.plan).apply(s.root, v));
  } catch (const MbError& e) {
    oerr = e.what();
  }
  try {
    tb = te.marshal(v);
  } catch (const MbError& e) {
    terr = e.what();
  }
  EXPECT_EQ(terr, oerr);
  EXPECT_EQ(tb, ob);
}

TEST(ThreadedMarshal, RecordReorderMatchesOracle) {
  Built s = pair_of(
      [](Graph& g) {
        return g.record({g.integer(0, 100), g.character(stype::Repertoire::Latin1)},
                        {"n", "c"});
      },
      [](Graph& g) {
        return g.record({g.character(stype::Repertoire::Latin1), g.integer(0, 100)},
                        {"c", "n"});
      });
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  planir::require_valid(p);
  expect_marshal_matches_oracle(
      s, p, Value::record({Value::integer(42), Value::character('x')}));
  // Out-of-range: same typed error, same text.
  expect_marshal_matches_oracle(
      s, p, Value::record({Value::integer(101), Value::character('x')}));
}

TEST(ThreadedMarshal, ChoiceAndListMatchOracle) {
  Built s = pair_of(
      [](Graph& g) {
        return g.list_of(g.choice({g.integer(0, 10), g.unit(), g.real(24, 8)}));
      },
      [](Graph& g) {
        return g.list_of(g.choice({g.real(24, 8), g.integer(0, 10), g.unit()}));
      });
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  planir::require_valid(p);
  expect_marshal_matches_oracle(
      s, p, Value::list({Value::choice(0, Value::integer(7)),
                         Value::choice(1, Value::unit()),
                         Value::choice(2, Value::real(1.5)),
                         Value::choice(0, Value::integer(3))}));
  expect_marshal_matches_oracle(s, p, Value::list({}));
  // Non-list input: identical shape error.
  expect_marshal_matches_oracle(s, p, Value::integer(9));
}

TEST(ThreadedMarshal, CustomConverterRunsFromRegistry) {
  Built s = pair_of([](Graph& g) { return g.integer(0, 1000); },
                    [](Graph& g) { return g.integer(0, 1000); });
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  // Force the custom path.
  for (auto& ins : p.code) {
    if (ins.op == planir::OpCode::EmitInt) {
      ins.op = planir::OpCode::EmitCustom;
      ins.a = static_cast<uint32_t>(p.custom_names.size());
    }
  }
  p.custom_names.push_back("plus_one");
  planir::require_valid(p);
  runtime::CustomRegistry reg;
  reg["plus_one"] = [](const Value& v) {
    return Value::integer(v.as_int() + 1);
  };
  ThreadedEngine te(p, {}, reg);
  EXPECT_EQ(te.marshal(Value::integer(41)),
            wire::encode(s.gb, s.b, Value::integer(42)));
  // Unregistered converter: the typed error names it.
  ThreadedEngine bare(p);
  try {
    (void)bare.marshal(Value::integer(1));
    ADD_FAILURE() << "unregistered converter ran";
  } catch (const ConversionError& e) {
    EXPECT_STREQ(e.what(),
                 "no hand-written converter registered for 'plus_one'");
  }
}

TEST(ThreadedMarshal, ChoiceInlineCacheHitsOnRepeat) {
  Built s = pair_of(
      [](Graph& g) {
        return g.choice({g.integer(0, 10), g.unit(), g.real(24, 8)});
      },
      [](Graph& g) {
        return g.choice({g.real(24, 8), g.integer(0, 10), g.unit()});
      });
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  planir::require_valid(p);
  ThreadedEngine te(p);
  Value v = Value::choice(2, Value::real(0.5));
  auto first = te.marshal(v);
  uint64_t misses_after_first = te.stats().ic_misses;
  EXPECT_GE(misses_after_first, 1u);
  EXPECT_EQ(te.stats().ic_hits, 0u);
  auto second = te.marshal(v);
  EXPECT_EQ(second, first);
  EXPECT_GE(te.stats().ic_hits, 1u);
  EXPECT_EQ(te.stats().ic_misses, misses_after_first);
  // A different arm misses once, then hits too.
  (void)te.marshal(Value::choice(0, Value::integer(4)));
  EXPECT_GT(te.stats().ic_misses, misses_after_first);
}

// ---- native-marshal: SIMD prologue ------------------------------------------

/// A record of `n` contiguous annotated u8 fields ([0..200]) and its
/// identity clone — every field is lane-eligible, so n >= 16 forms SIMD
/// blocks in the prologue.
struct NativeCase {
  std::shared_ptr<const ImageLayout> layout;
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
  Program prog;

  /// The oracle: read_image, then Converter, then wire::encode. Returns
  /// the bytes, or the error message in `*err`.
  std::vector<uint8_t> oracle(const NativeHeap& heap, uint64_t base,
                              std::string* err) const {
    try {
      const Value image = runtime::read_image(*layout, 0, heap, base);
      return wire::encode(gb, b, runtime::Converter(plan).apply(root, image));
    } catch (const MbError& e) {
      *err = e.what();
      return {};
    }
  }
};

NativeCase annotated_bytes_case(size_t n) {
  NativeCase c;
  ImageLayout il;
  il.names = {""};
  ImageLayout::Node root;
  root.kind = LK::Record;
  root.kids_off = 0;
  root.kids_len = static_cast<uint32_t>(n);
  il.nodes.push_back(root);
  std::vector<Ref> kids, dkids;
  for (size_t k = 0; k < n; ++k) {
    ImageLayout::Node f;
    f.kind = LK::UInt;
    f.width = 1;
    f.offset = static_cast<uint32_t>(k);
    f.has_lo = true;
    f.has_hi = true;
    f.lo = 0;
    f.hi = 200;
    il.kids.push_back(static_cast<uint32_t>(il.nodes.size()));
    il.nodes.push_back(f);
    kids.push_back(c.ga.integer(0, 200));
    dkids.push_back(c.gb.integer(0, 200));
  }
  il.size = static_cast<uint32_t>(n);
  c.layout = std::make_shared<const ImageLayout>(std::move(il));
  c.a = c.ga.record(std::move(kids));
  c.b = c.gb.record(std::move(dkids));
  auto full = compare::compare_full(c.ga, c.a, c.gb, c.b);
  EXPECT_EQ(full.verdict, compare::Verdict::Equivalent);
  c.plan = std::move(full.to_right.plan);
  c.root = full.to_right.root;
  c.prog = planir::compile_native_marshal(c.plan, c.root, c.gb, c.b, c.layout);
  planir::require_valid(c.prog);
  return c;
}

TEST(ThreadedNative, SimdPrologueMatchesOracleOnCleanImage) {
  NativeCase c = annotated_bytes_case(40);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(40, 8);
  for (int k = 0; k < 40; ++k) {
    heap.write_uint(base + k, 1, static_cast<uint64_t>((k * 5) % 200));
  }
  std::string err;
  EXPECT_EQ(te.marshal_native(heap, base), c.oracle(heap, base, &err));
  EXPECT_EQ(err, "");
  // 40 lane-eligible bytes = 2 full 16-lane blocks + 8 scalar tail checks.
  EXPECT_GE(te.stats().simd_blocks, 2u);
  EXPECT_EQ(te.stats().simd_rescans, 0u);
  // Static output size: 40 one-byte ints, known at build time.
  ASSERT_TRUE(te.static_size().has_value());
  EXPECT_EQ(*te.static_size(), te.marshal_native(heap, base).size());
}

TEST(ThreadedNative, SimdFailureRescansAndMatchesOracleFaultOrder) {
  NativeCase c = annotated_bytes_case(40);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(40, 8);
  for (int k = 0; k < 40; ++k) heap.write_uint(base + k, 1, 100);

  auto expect_same_fault = [&]() {
    std::string oerr, terr;
    (void)c.oracle(heap, base, &oerr);
    try {
      (void)te.marshal_native(heap, base);
    } catch (const MbError& e) {
      terr = e.what();
    }
    ASSERT_FALSE(oerr.empty());
    EXPECT_EQ(terr, oerr);
  };

  // A lane failure inside the first block: rescan must surface it with the
  // oracle's exact message.
  heap.write_uint(base + 5, 1, 250);
  expect_same_fault();
  EXPECT_GE(te.stats().simd_rescans, 1u);

  // Two bad fields: the first in pre-order wins in both.
  heap.write_uint(base + 20, 1, 255);
  expect_same_fault();

  // Only the tail (scalar-checked) field bad.
  heap.write_uint(base + 5, 1, 100);
  heap.write_uint(base + 20, 1, 100);
  heap.write_uint(base + 38, 1, 201);
  expect_same_fault();
}

TEST(ThreadedNative, MarshalIntoTrimsOnThrow) {
  NativeCase c = annotated_bytes_case(20);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(20, 8);
  for (int k = 0; k < 20; ++k) heap.write_uint(base + k, 1, 10);
  heap.write_uint(base + 7, 1, 250);  // out of range

  std::vector<uint8_t> out = {0xaa, 0xbb, 0xcc};
  std::vector<uint8_t> before = out;
  EXPECT_THROW(te.marshal_native_into(heap, base, out), ConversionError);
  EXPECT_EQ(out, before) << "failed marshal must not leave partial output";
}

TEST(ThreadedNative, RunCounterAdvances) {
  NativeCase c = annotated_bytes_case(16);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(16, 8);
  for (int k = 0; k < 16; ++k) heap.write_uint(base + k, 1, 1);
  EXPECT_EQ(te.stats().runs, 0u);
  (void)te.marshal_native(heap, base);
  (void)te.marshal_native(heap, base);
  EXPECT_EQ(te.stats().runs, 2u);
  EXPECT_GT(te.op_count(), 0u);
}

// ---- linear flattening ------------------------------------------------------

/// Stacks `levels` two-field sequences (EmitRecord or NativeSeq, by mode)
/// over `p`'s entry, both fields reaching the level below along an empty
/// path. The result is a verified DAG whose full expansion runs the
/// original entry 2^levels times.
void stack_doubling_levels(Program& p, uint32_t levels) {
  const bool native = p.mode == Program::Mode::NativeMarshal;
  const auto shape_off = static_cast<uint32_t>(p.shape_pool.size());
  if (!native) {
    using Tok = Program::ShapeTok;
    p.shape_pool.push_back({Tok::K::Leaf, 0});
    p.shape_pool.push_back({Tok::K::Leaf, 1});
    p.shape_pool.push_back({Tok::K::Rec, 2});
  }
  for (uint32_t k = 0; k < levels; ++k) {
    Program::RecordTab rt;
    rt.fields_off = static_cast<uint32_t>(p.fields.size());
    rt.fields_len = 2;
    if (!native) {
      rt.shape_off = shape_off;
      rt.shape_len = 3;
    }
    for (int f = 0; f < 2; ++f) {
      Program::Field field;
      field.op = p.entry;
      p.fields.push_back(field);
    }
    planir::Instr ins;
    ins.op = native ? planir::OpCode::NativeSeq : planir::OpCode::EmitRecord;
    ins.a = static_cast<uint32_t>(p.records.size());
    p.records.push_back(rt);
    p.code.push_back(ins);
    p.origin.push_back(p.origin[p.entry]);
    p.entry = static_cast<uint32_t>(p.code.size() - 1);
  }
  planir::require_valid(p);
}

// 2^21 leaf runs: more than the 2^20 ops a fully expanded stream could
// hold, so the engine only accepts these programs by sharing segments.
constexpr uint32_t kLevels = 21;

TEST(ThreadedFlatten, SharedNativeSequencesStayLinear) {
  NativeCase c = annotated_bytes_case(1);
  stack_doubling_levels(c.prog, kLevels);
  ThreadedEngine te(c.prog);
  EXPECT_LT(te.op_count(), 64 * c.prog.code.size());
  const size_t n = size_t{1} << kLevels;
  ASSERT_TRUE(te.static_size().has_value());
  EXPECT_EQ(*te.static_size(), n);
  EXPECT_EQ(runtime::static_native_wire_size(c.prog), n);

  NativeHeap heap;
  uint64_t base = heap.alloc(1, 8);
  heap.write_uint(base, 1, 7);
  EXPECT_EQ(te.marshal_native(heap, base), std::vector<uint8_t>(n, 7));
  std::vector<uint8_t> cat;
  te.marshal_native_chunked(heap, base, 4096,
                            [&](std::vector<uint8_t>&& piece, bool) {
                              cat.insert(cat.end(), piece.begin(), piece.end());
                            });
  EXPECT_EQ(cat, std::vector<uint8_t>(n, 7));
  // The read-time check still runs once, before any byte is emitted.
  heap.write_uint(base, 1, 201);
  EXPECT_THROW((void)te.marshal_native(heap, base), ConversionError);
}

TEST(ThreadedFlatten, SharedRecordsStayLinear) {
  Built s = pair_of([](Graph& g) { return g.integer(0, 100); },
                    [](Graph& g) { return g.integer(0, 100); });
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  stack_doubling_levels(p, kLevels);
  ThreadedEngine te(p);
  EXPECT_LT(te.op_count(), 64 * p.code.size());
  const std::vector<uint8_t> one = wire::encode(s.gb, s.b, Value::integer(42));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(te.marshal(Value::integer(42)),
            std::vector<uint8_t>(size_t{1} << kLevels, one[0]));
}

// ---- compiled-stub cache ----------------------------------------------------

TEST(StubCacheTest, CompilesRunsAndRehits) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  NativeCase c = annotated_bytes_case(24);
  auto& cache = codegen::StubCache::process();
  auto s0 = cache.stats();
  auto stub = cache.get(c.prog);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->wire_size(),
            *runtime::static_native_wire_size(c.prog));

  NativeHeap heap;
  uint64_t base = heap.alloc(24, 8);
  for (int k = 0; k < 24; ++k) heap.write_uint(base + k, 1, 50 + k);
  std::vector<uint8_t> buf(stub->wire_size());
  size_t n = stub->fn()(heap.at(base, 24), buf.data());
  ASSERT_NE(n, static_cast<size_t>(-1));
  buf.resize(n);
  std::string err;
  EXPECT_EQ(buf, c.oracle(heap, base, &err));

  // Out-of-range byte: the stub signals failure instead of emitting, where
  // the oracle throws.
  heap.write_uint(base + 3, 1, 201);
  buf.assign(stub->wire_size(), 0);
  EXPECT_EQ(stub->fn()(heap.at(base, 24), buf.data()), static_cast<size_t>(-1));
  (void)c.oracle(heap, base, &err);
  EXPECT_NE(err, "");

  // Same program again: an in-memory hit, no second compile.
  auto again = cache.get(c.prog);
  EXPECT_EQ(again.get(), stub.get());
  auto s1 = cache.stats();
  EXPECT_GE(s1.hits, s0.hits + 1);
}

TEST(StubCacheTest, RejectsEnumPrograms) {
  // An enum field forces LoadEnum, which the C generator refuses — the
  // cache must answer nullptr (fallback tier) rather than compile.
  NativeCase base_case = annotated_bytes_case(4);
  Graph ga, gb;
  ImageLayout il;
  il.names = {""};
  ImageLayout::Node root;
  root.kind = LK::Record;
  root.kids_off = 0;
  root.kids_len = 1;
  il.nodes.push_back(root);
  ImageLayout::Node e;
  e.kind = LK::Enum;
  e.width = 4;
  e.offset = 0;
  e.enum_off = 0;
  e.enum_len = 2;
  il.enum_pool = {10, 20};
  il.kids.push_back(1);
  il.nodes.push_back(e);
  il.size = 4;
  auto layout = std::make_shared<const ImageLayout>(std::move(il));
  Ref a = ga.record({ga.integer(0, 1)});
  Ref b = gb.record({gb.integer(0, 1)});
  auto full = compare::compare_full(ga, a, gb, b);
  ASSERT_EQ(full.verdict, compare::Verdict::Equivalent);
  Program prog = planir::compile_native_marshal(full.to_right.plan,
                                                full.to_right.root, gb, b,
                                                layout);
  planir::require_valid(prog);
  EXPECT_EQ(codegen::StubCache::process().get(prog), nullptr);
  EXPECT_TRUE(codegen::StubCache::key_of(prog).empty());
}

}  // namespace
}  // namespace mbird
