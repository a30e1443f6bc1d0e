#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "runtime/conform.hpp"
#include "runtime/convert.hpp"
#include "runtime/cside.hpp"
#include "runtime/jside.hpp"
#include "runtime/layout.hpp"
#include "runtime/value.hpp"

namespace mbird::runtime {
namespace {

using stype::Annotations;
using stype::LengthSpec;
using stype::Module;

Module& parse_c_keep(std::string_view src) {
  static std::vector<std::unique_ptr<Module>> keep;
  DiagnosticEngine diags;
  keep.push_back(std::make_unique<Module>(cfront::parse_c(src, "t.h", diags)));
  EXPECT_FALSE(diags.has_errors()) << diags.summary();
  return *keep.back();
}

Module& parse_java_keep(std::string_view src) {
  static std::vector<std::unique_ptr<Module>> keep;
  DiagnosticEngine diags;
  keep.push_back(
      std::make_unique<Module>(javasrc::parse_java(src, "T.java", diags)));
  EXPECT_FALSE(diags.has_errors()) << diags.summary();
  return *keep.back();
}

// ---- Value -------------------------------------------------------------------

TEST(Value, ScalarsAndEquality) {
  EXPECT_EQ(Value::integer(5), Value::integer(5));
  EXPECT_NE(Value::integer(5), Value::integer(6));
  EXPECT_NE(Value::integer(5), Value::real(5.0));
  EXPECT_EQ(Value::unit(), Value::unit());
  EXPECT_EQ(Value::character('a').as_char(), 'a');
  EXPECT_EQ(Value::boolean(true).as_int(), 1);
}

TEST(Value, WrongKindAccessThrows) {
  EXPECT_THROW((void)Value::unit().as_int(), ConversionError);
  EXPECT_THROW((void)Value::integer(1).as_real(), ConversionError);
  EXPECT_THROW((void)Value::record({}).at(0), ConversionError);
  EXPECT_THROW((void)Value::integer(1).inner(), ConversionError);
}

TEST(Value, AsListAcceptsBothEncodings) {
  Value lst = Value::list({Value::integer(1), Value::integer(2)});
  auto direct = lst.as_list();
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->size(), 2u);

  Value chain = Value::chain_from_list(*lst.as_list(), 0, 1);
  EXPECT_EQ(chain.kind(), Value::Kind::Choice);
  auto via_chain = chain.as_list();
  ASSERT_TRUE(via_chain.has_value());
  EXPECT_EQ(*via_chain, *direct);

  EXPECT_FALSE(Value::integer(1).as_list().has_value());
}

TEST(Value, StringHelper) {
  Value s = Value::string("hi");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(0).as_char(), 'h');
}

/// The element form of a list of 8-bit characters.
Value element_chars(std::string_view s) {
  std::vector<Value> elems;
  for (char c : s) elems.push_back(Value::character(static_cast<unsigned char>(c)));
  return Value::list(std::move(elems));
}

TEST(Value, StringIsPacked) {
  const std::string bytes = "h\x00\x7f\x80\xff!";
  Value s = Value::string(std::string_view(bytes.data(), 6));
  ASSERT_TRUE(s.packed_chars().has_value());
  EXPECT_EQ(*s.packed_chars(), std::string_view(bytes.data(), 6));
  EXPECT_EQ(s.kind(), Value::Kind::List);
  EXPECT_FALSE(Value::list({}).packed_chars().has_value());
  EXPECT_FALSE(element_chars("hi").packed_chars().has_value());
  EXPECT_FALSE(Value::record({}).packed_chars().has_value());
}

TEST(Value, PackedAndElementFormsAreEqualBothWays) {
  for (std::string_view text :
       {std::string_view(""), std::string_view("a"), std::string_view("\x80\xff\x00z", 4)}) {
    Value packed = Value::string(text);
    Value elems = element_chars(text);
    EXPECT_EQ(packed, elems);
    EXPECT_EQ(elems, packed);
    EXPECT_EQ(packed, Value::string(text));
  }
  EXPECT_NE(Value::string("ab"), element_chars("ac"));
  EXPECT_NE(element_chars("ab"), Value::string("abc"));
  EXPECT_NE(Value::string("ab"), Value::string("abc"));
  // Element forms that no packed list can hold.
  EXPECT_NE(Value::string("a"), Value::list({Value::character(0x161)}));
  EXPECT_NE(Value::list({Value::integer('a')}), Value::string("a"));
  EXPECT_NE(Value::string("a"), Value::record({Value::character('a')}));
}

TEST(Value, PackedAnswersLikeElementForm) {
  const std::string text = std::string("Hi \x01\x7f\x80\xe9\xff", 8);
  Value packed = Value::string(text);
  Value elems = element_chars(text);
  ASSERT_EQ(packed.size(), elems.size());
  for (size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(packed.at(i), elems.at(i));
    EXPECT_EQ(packed.at(i).as_char(), static_cast<unsigned char>(text[i]));
  }
  EXPECT_THROW((void)packed.at(text.size()), ConversionError);
  ASSERT_TRUE(packed.as_list().has_value());
  EXPECT_EQ(*packed.as_list(), elems.children());
  EXPECT_FALSE(packed.as_list()->front().packed_chars().has_value());
  EXPECT_EQ(packed.to_string(), elems.to_string());
  EXPECT_EQ(Value::string("").to_string(), "[]");
  // at() hands out one immortal Char per code point: the reference stays
  // valid after its list is gone.
  const Value& x = Value::string("x").at(0);
  EXPECT_EQ(&x, &Value::string("yx").at(1));
  EXPECT_EQ(x.as_char(), 'x');
}

TEST(Value, PackedChildrenThrows) {
  Value packed = Value::string("abc");
  EXPECT_THROW((void)packed.children(), ConversionError);
  EXPECT_THROW((void)Value::string("").children(), ConversionError);
  EXPECT_NO_THROW((void)element_chars("abc").children());
}

TEST(Value, PackedCopiesShareTheRun) {
  Value a = Value::string("shared bytes");
  Value b = a;
  ASSERT_TRUE(a.packed_chars() && b.packed_chars());
  EXPECT_EQ(a.packed_chars()->data(), b.packed_chars()->data());
  Value c = std::move(b);
  EXPECT_EQ(c.packed_chars()->data(), a.packed_chars()->data());
  c = Value::integer(3);  // drops one reference; a still reads its bytes
  EXPECT_EQ(*a.packed_chars(), "shared bytes");
  Value d;
  d = a;
  a = Value::unit();
  EXPECT_EQ(*d.packed_chars(), "shared bytes");
}

TEST(Value, Printing) {
  Value v = Value::record({Value::integer(1), Value::choice(1, Value::real(2.5))});
  EXPECT_EQ(v.to_string(), "(1, #1:2.5)");
}

// ---- Layout -------------------------------------------------------------------

TEST(Layout, StructPaddingAndOffsets) {
  Module& m = parse_c_keep("struct S { char c; int i; char d; double x; };");
  LayoutEngine eng(m);
  stype::Stype* s = m.find("S");
  Layout l = eng.layout_of(s);
  EXPECT_EQ(l.align, 8u);
  EXPECT_EQ(l.size, 24u);  // c pad3 i d pad7? -> 0,4,8,16..24
  EXPECT_EQ(eng.field_offset(s, 0), 0u);
  EXPECT_EQ(eng.field_offset(s, 1), 4u);
  EXPECT_EQ(eng.field_offset(s, 2), 8u);
  EXPECT_EQ(eng.field_offset(s, 3), 16u);
}

TEST(Layout, UnionIsMaxOfArms) {
  Module& m = parse_c_keep("union U { char c; double d; };");
  LayoutEngine eng(m);
  Layout l = eng.layout_of(m.find("U"));
  EXPECT_EQ(l.size, 8u);
  EXPECT_EQ(l.align, 8u);
}

TEST(Layout, FixedArray) {
  Module& m = parse_c_keep("typedef float point[2]; struct T { point p; int n; };");
  LayoutEngine eng(m);
  EXPECT_EQ(eng.layout_of(m.find("point")).size, 8u);
  EXPECT_EQ(eng.layout_of(m.find("T")).size, 12u);
}

TEST(Layout, IndefiniteArrayThrows) {
  Module& m = parse_c_keep("struct T { int n; };");
  LayoutEngine eng(m);
  auto* arr = m.make(stype::Kind::Array);
  arr->elem = m.make_prim(stype::Prim::F32);
  EXPECT_THROW(eng.layout_of(arr), MbError);
}

TEST(NativeHeap, ScalarRoundtrips) {
  NativeHeap heap;
  uint64_t a = heap.alloc(16, 8);
  heap.write_uint(a, 4, 0xdeadbeef);
  EXPECT_EQ(heap.read_uint(a, 4), 0xdeadbeefu);
  heap.write_uint(a, 2, 0xffff);
  EXPECT_EQ(heap.read_int(a, 2), -1);
  heap.write_f32(a + 8, 1.5f);
  EXPECT_FLOAT_EQ(heap.read_f32(a + 8), 1.5f);
  heap.write_f64(a + 8, 2.25);
  EXPECT_DOUBLE_EQ(heap.read_f64(a + 8), 2.25);
}

TEST(NativeHeap, NullAndOutOfRangeAccessThrow) {
  NativeHeap heap;
  EXPECT_THROW(heap.at(0, 1), MbError);
  EXPECT_THROW(heap.at(1u << 20, 1), MbError);
}

// ---- C reader/writer -----------------------------------------------------------

TEST(CSide, StructRoundtrip) {
  Module& m = parse_c_keep("struct P { int a; float b; char c; };");
  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);

  Value v = Value::record(
      {Value::integer(-7), Value::real(1.25), Value::character('x')});
  uint64_t addr = w.materialize(m.find("P"), {}, v);
  EXPECT_EQ(r.read(m.find("P"), {}, addr), v);
}

TEST(CSide, NullablePointerRoundtrip) {
  Module& m = parse_c_keep("struct H { float *p; };");
  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);

  Value null_v = Value::record({Value::choice(0, Value::unit())});
  uint64_t a1 = w.materialize(m.find("H"), {}, null_v);
  EXPECT_EQ(r.read(m.find("H"), {}, a1), null_v);

  Value some_v = Value::record({Value::choice(1, Value::real(3.5))});
  uint64_t a2 = w.materialize(m.find("H"), {}, some_v);
  EXPECT_EQ(r.read(m.find("H"), {}, a2), some_v);
}

TEST(CSide, NotNullViolationThrows) {
  Module& m = parse_c_keep("struct H { float *p; };");
  DiagnosticEngine diags;
  stype::resolve_annotation_path(m, "H.p", diags)->ann.not_null = true;
  LayoutEngine eng(m);
  NativeHeap heap;
  uint64_t addr = heap.alloc(8, 8);  // pointer left as 0
  CReader r(eng, heap);
  EXPECT_THROW(r.read(m.find("H"), {}, addr), ConversionError);
}

TEST(CSide, FixedArrayInline) {
  Module& m = parse_c_keep("typedef float point[2]; struct T { point p; };");
  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);
  Value v = Value::record({Value::record({Value::real(1), Value::real(2)})});
  uint64_t addr = w.materialize(m.find("T"), {}, v);
  EXPECT_EQ(r.read(m.find("T"), {}, addr), v);
}

TEST(CSide, FieldLengthListRoundtrip) {
  // The classic C idiom: struct with a count + data pointer.
  Module& m = parse_c_keep("struct Vec { int n; float *data; };");
  DiagnosticEngine diags;
  stype::resolve_annotation_path(m, "Vec.data", diags)->ann.length =
      LengthSpec{LengthSpec::Kind::FieldName, 0, "n"};
  ASSERT_FALSE(diags.has_errors());

  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);

  // The lowered record has a single child: the list (n absorbed).
  Value v = Value::record(
      {Value::list({Value::real(1), Value::real(2), Value::real(3)})});
  uint64_t addr = w.materialize(m.find("Vec"), {}, v);
  // The count field must physically hold 3.
  EXPECT_EQ(heap.read_uint(addr, 4), 3u);
  EXPECT_EQ(r.read(m.find("Vec"), {}, addr), v);
}

TEST(CSide, NulTerminatedString) {
  Module& m = parse_c_keep("struct S { char *name; };");
  DiagnosticEngine diags;
  stype::resolve_annotation_path(m, "S.name", diags)->ann.length =
      LengthSpec{LengthSpec::Kind::NulTerminated, 0, ""};

  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);

  Value v = Value::record({Value::string("hello")});
  uint64_t addr = w.materialize(m.find("S"), {}, v);
  Value back = r.read(m.find("S"), {}, addr);
  EXPECT_EQ(back, v);
}

TEST(CSide, EnumRoundtripByOrdinal) {
  Module& m = parse_c_keep("enum E { A = 10, B = 20 }; struct S { enum E e; };");
  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);
  Value v = Value::record({Value::integer(1)});  // ordinal of B
  uint64_t addr = w.materialize(m.find("S"), {}, v);
  EXPECT_EQ(heap.read_uint(addr, 4), 20u);  // stored as its C value
  EXPECT_EQ(r.read(m.find("S"), {}, addr), v);
}

TEST(CSide, RangeAnnotationEnforcedOnRead) {
  Module& m = parse_c_keep("struct S { int x; };");
  DiagnosticEngine diags;
  auto* fx = stype::resolve_annotation_path(m, "S.x", diags);
  fx->ann.range_lo = 0;
  fx->ann.range_hi = 100;

  LayoutEngine eng(m);
  NativeHeap heap;
  uint64_t addr = heap.alloc(4, 4);
  heap.write_uint(addr, 4, static_cast<uint64_t>(-5));
  CReader r(eng, heap);
  EXPECT_THROW(r.read(m.find("S"), {}, addr), ConversionError);
}

TEST(CSide, RangeAnnotationEnforcedOnWrite) {
  Module& m = parse_c_keep("struct S { int x; };");
  DiagnosticEngine diags;
  auto* fx = stype::resolve_annotation_path(m, "S.x", diags);
  fx->ann.range_lo = 0;
  fx->ann.range_hi = 100;

  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  EXPECT_NO_THROW((void)w.materialize(m.find("S"), {},
                                      Value::record({Value::integer(100)})));
  EXPECT_THROW((void)w.materialize(m.find("S"), {},
                                   Value::record({Value::integer(101)})),
               ConversionError);
}

TEST(CSide, RangeOnAListElementTypedefEnforcedOnWrite) {
  // The range sits on the typedef the counted list's elements are declared
  // with, so every element, the last one included, is written under it.
  Module& m = parse_c_keep(
      "typedef int digit; struct Bag { int n; digit *items; };");
  m.find("digit")->ann.range_lo = 0;
  m.find("digit")->ann.range_hi = 9;
  DiagnosticEngine diags;
  stype::resolve_annotation_path(m, "Bag.items", diags)->ann.length =
      LengthSpec{LengthSpec::Kind::FieldName, 0, "n"};
  ASSERT_FALSE(diags.has_errors());

  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);
  Value ok = Value::record({Value::list({Value::integer(0), Value::integer(9)})});
  EXPECT_EQ(r.read(m.find("Bag"), {}, w.materialize(m.find("Bag"), {}, ok)), ok);
  Value bad = Value::record({Value::list(
      {Value::integer(1), Value::integer(2), Value::integer(10)})});
  EXPECT_THROW((void)w.materialize(m.find("Bag"), {}, bad), ConversionError);
}

TEST(CSide, UnresolvedListElementTypedefThrows) {
  // `item` names a struct the module never declares. The list's buffer is
  // sized from the element's layout before any element is written, so an
  // empty list fails with the same error as a full one.
  Module& m = parse_c_keep(
      "typedef struct missing item; struct Bag { int n; item *items; };");
  DiagnosticEngine diags;
  stype::resolve_annotation_path(m, "Bag.items", diags)->ann.length =
      LengthSpec{LengthSpec::Kind::FieldName, 0, "n"};
  ASSERT_FALSE(diags.has_errors());

  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  auto error_of = [&](std::vector<Value> items) -> std::string {
    try {
      (void)w.materialize(m.find("Bag"), {},
                          Value::record({Value::list(std::move(items))}));
    } catch (const ConversionError& e) {
      return std::string("ConversionError: ") + e.what();
    } catch (const MbError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of({Value::record({})}), "layout: unknown type 'item'");
  EXPECT_EQ(error_of({}), "layout: unknown type 'item'");
}

TEST(CSide, UnionReadRejected) {
  Module& m = parse_c_keep("union U { int i; float f; };");
  LayoutEngine eng(m);
  NativeHeap heap;
  uint64_t addr = heap.alloc(4, 4);
  CReader r(eng, heap);
  EXPECT_THROW(r.read(m.find("U"), {}, addr), ConversionError);
}

// ---- Java heap side --------------------------------------------------------------

TEST(JSide, ObjectRoundtrip) {
  Module& m = parse_java_keep("class Point { float x; float y; }");
  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);
  Value v = Value::record({Value::real(1.5), Value::real(-2)});
  JSlot slot = w.write(m.find("Point"), {}, v);
  EXPECT_TRUE(slot.is_ref);
  EXPECT_EQ(r.read(m.find("Point"), {}, slot), v);
}

TEST(JSide, NullableReferenceField) {
  Module& m = parse_java_keep("class P { float x; } class H { P p; }");
  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);
  Value null_v = Value::record({Value::choice(0, Value::unit())});
  JSlot s1 = w.write(m.find("H"), {}, null_v);
  EXPECT_EQ(r.read(m.find("H"), {}, s1), null_v);

  Value some_v =
      Value::record({Value::choice(1, Value::record({Value::real(7)}))});
  JSlot s2 = w.write(m.find("H"), {}, some_v);
  EXPECT_EQ(r.read(m.find("H"), {}, s2), some_v);
}

TEST(JSide, ArrayAndVectorRoundtrip) {
  Module& m = parse_java_keep(
      "class Point { float x; float y; }\n"
      "class PV extends java.util.Vector;\n"
      "class A { int[] nums; }\n");
  m.find("PV")->ann.element_type = "Point";
  m.find("PV")->ann.element_not_null = true;

  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);

  Value arr = Value::record({Value::list({Value::integer(1), Value::integer(2)})});
  JSlot s1 = w.write(m.find("A"), {}, arr);
  EXPECT_EQ(r.read(m.find("A"), {}, s1), arr);

  Value pv = Value::list({Value::record({Value::real(1), Value::real(2)}),
                          Value::record({Value::real(3), Value::real(4)})});
  JSlot s2 = w.write(m.find("PV"), {}, pv);
  EXPECT_EQ(r.read(m.find("PV"), {}, s2), pv);
}

TEST(JSide, LinkedListChainRoundtrip) {
  Module& m = parse_java_keep("class L { float datum; L next; }");
  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);

  // Record(datum, Choice(null | Record(datum, ...))).
  Value chain = Value::record(
      {Value::real(1),
       Value::choice(1, Value::record({Value::real(2),
                                       Value::choice(0, Value::unit())}))});
  JSlot slot = w.write(m.find("L"), {}, chain);
  EXPECT_EQ(r.read(m.find("L"), {}, slot), chain);
  EXPECT_EQ(heap.object_count(), 2u);
}

TEST(JSide, SubclassSubstitutionSlices) {
  // Paper §6: a subclass instance substituted where the parent is expected.
  // The reader slices: inherited fields come first in both layouts.
  Module& m = parse_java_keep(
      "class Shape { int kind; float area; }\n"
      "class Circle extends Shape { float radius; }\n");
  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);

  Value circle = Value::record(
      {Value::integer(1), Value::real(3.14), Value::real(1.0)});
  JSlot slot = w.write(m.find("Circle"), {}, circle);

  // Read the SAME object through the parent declaration.
  Value as_shape = r.read(m.find("Shape"), {}, slot);
  EXPECT_EQ(as_shape, Value::record({Value::integer(1), Value::real(3.14)}));
}

TEST(JSide, UnrelatedClassSubstitutionRejected) {
  Module& m = parse_java_keep(
      "class Shape { int kind; float area; }\n"
      "class Sprite { int frame; float alpha; int layer; }\n");
  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);
  Value sprite = Value::record(
      {Value::integer(1), Value::real(0.5), Value::integer(3)});
  JSlot slot = w.write(m.find("Sprite"), {}, sprite);
  EXPECT_THROW((void)r.read(m.find("Shape"), {}, slot), ConversionError);
}

TEST(JSide, NotNullElementViolation) {
  Module& m = parse_java_keep(
      "class Point { float x; float y; } class PV extends java.util.Vector;");
  m.find("PV")->ann.element_type = "Point";
  m.find("PV")->ann.element_not_null = true;
  JHeap heap;
  JRef pv = heap.alloc("PV");
  heap.at(pv).elems.push_back(JSlot::reference(kJNull));  // a null element!
  JReader r(m, heap);
  EXPECT_THROW(r.read(m.find("PV"), {}, JSlot::reference(pv)), ConversionError);
}

TEST(JSide, RangeOnACollectionElementFieldEnforced) {
  Module& m = parse_java_keep("class P { int v; } class PV extends java.util.Vector;");
  m.find("PV")->ann.element_type = "P";
  m.find("PV")->ann.element_not_null = true;
  DiagnosticEngine diags;
  auto* fv = stype::resolve_annotation_path(m, "P.v", diags);
  fv->ann.range_lo = 0;
  fv->ann.range_hi = 9;

  JHeap heap;
  auto vector_of = [&heap](std::initializer_list<int> vs) {
    JRef pv = heap.alloc("PV");
    for (int v : vs) {
      JRef p = heap.alloc("P", 1);
      heap.at(p).fields[0] = JSlot::scalar(Value::integer(v));
      heap.at(pv).elems.push_back(JSlot::reference(p));
    }
    return JSlot::reference(pv);
  };
  JReader r(m, heap);
  EXPECT_EQ(r.read(m.find("PV"), {}, vector_of({0, 9})),
            Value::list({Value::record({Value::integer(0)}),
                         Value::record({Value::integer(9)})}));
  EXPECT_THROW((void)r.read(m.find("PV"), {}, vector_of({3, 4, 10})),
               ConversionError);
}

// ---- Converter -------------------------------------------------------------------

TEST(Converter, RecordPermutation) {
  mtype::Graph ga, gb;
  mtype::Ref a = ga.record({ga.integer(0, 9), ga.real(24, 8)});
  mtype::Ref b = gb.record({gb.real(24, 8), gb.integer(0, 9)});
  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  Value in = Value::record({Value::integer(5), Value::real(2.5)});
  Value out = conv.apply(res.root, in);
  EXPECT_EQ(out, Value::record({Value::real(2.5), Value::integer(5)}));
}

TEST(Converter, FlatteningReshape) {
  mtype::Graph ga, gb;
  mtype::Ref inner = ga.record({ga.real(24, 8), ga.real(24, 8)});
  mtype::Ref a = ga.record({inner, inner});  // Line as two Points
  mtype::Ref b = gb.record({gb.real(24, 8), gb.real(24, 8), gb.real(24, 8),
                            gb.real(24, 8)});  // four floats
  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  Value in = Value::record({Value::record({Value::real(1), Value::real(2)}),
                            Value::record({Value::real(3), Value::real(4)})});
  Value out = conv.apply(res.root, in);
  ASSERT_EQ(out.kind(), Value::Kind::Record);
  ASSERT_EQ(out.size(), 4u);
  // Permutation may reorder, but the multiset of values is preserved.
  double sum = 0;
  for (const auto& c : out.children()) sum += c.as_real();
  EXPECT_DOUBLE_EQ(sum, 10.0);
}

TEST(Converter, ListElementwise) {
  mtype::Graph ga, gb;
  mtype::Ref a = ga.list_of(ga.record({ga.integer(0, 9), ga.real(24, 8)}));
  mtype::Ref b = gb.list_of(gb.record({gb.real(24, 8), gb.integer(0, 9)}));
  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  Value in = Value::list({Value::record({Value::integer(1), Value::real(0.5)}),
                          Value::record({Value::integer(2), Value::real(1.5)})});
  Value out = conv.apply(res.root, in);
  ASSERT_EQ(out.kind(), Value::Kind::List);
  EXPECT_EQ(out.at(0), Value::record({Value::real(0.5), Value::integer(1)}));
}

TEST(Converter, ListAcceptsChainInput) {
  mtype::Graph ga, gb;
  mtype::Ref a = ga.list_of(ga.real(24, 8));
  mtype::Ref b = gb.list_of(gb.real(24, 8));
  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  Value chain = Value::chain_from_list({Value::real(1), Value::real(2)}, 0, 1);
  Value out = conv.apply(res.root, chain);
  EXPECT_EQ(out, Value::list({Value::real(1), Value::real(2)}));
}

TEST(Converter, ChoiceArmMapping) {
  mtype::Graph ga, gb;
  mtype::Ref a = ga.choice({ga.unit(), ga.integer(0, 9)});
  mtype::Ref b = gb.choice({gb.integer(0, 9), gb.unit()});  // arms swapped
  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  EXPECT_EQ(conv.apply(res.root, Value::choice(0, Value::unit())),
            Value::choice(1, Value::unit()));
  EXPECT_EQ(conv.apply(res.root, Value::choice(1, Value::integer(7))),
            Value::choice(0, Value::integer(7)));
}

TEST(Converter, IntOutOfRangeThrows) {
  mtype::Graph ga, gb;
  mtype::Ref a = ga.integer(0, 100);
  mtype::Ref b = gb.integer(0, 100);
  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  EXPECT_EQ(conv.apply(res.root, Value::integer(50)), Value::integer(50));
  EXPECT_THROW(conv.apply(res.root, Value::integer(200)), ConversionError);
}

TEST(Converter, SubtypePlanWidens) {
  mtype::Graph ga, gb;
  mtype::Ref a = ga.integer(0, 10);
  mtype::Ref b = gb.integer(-100, 100);
  compare::Options sub;
  sub.mode = compare::Mode::Subtype;
  auto res = compare::compare(ga, a, gb, b, sub);
  ASSERT_TRUE(res.ok);
  Converter conv(res.plan);
  EXPECT_EQ(conv.apply(res.root, Value::integer(5)), Value::integer(5));
}

// ---- conformance + property tests ----------------------------------------------

TEST(Conform, AcceptsAndRejects) {
  mtype::Graph g;
  mtype::Ref point = g.record({g.real(24, 8), g.real(24, 8)});
  EXPECT_TRUE(conforms(g, point, Value::record({Value::real(1), Value::real(2)})));
  EXPECT_FALSE(conforms(g, point, Value::record({Value::real(1)})));
  EXPECT_FALSE(conforms(g, point, Value::integer(1)));

  mtype::Ref list = g.list_of(point);
  EXPECT_TRUE(conforms(g, list, Value::list({})));
  EXPECT_TRUE(conforms(
      g, list, Value::list({Value::record({Value::real(1), Value::real(2)})})));
  EXPECT_FALSE(conforms(g, list, Value::list({Value::real(1)})));
  // Chain encoding accepted too.
  EXPECT_TRUE(conforms(
      g, list,
      Value::chain_from_list({Value::record({Value::real(1), Value::real(2)})},
                             0, 1)));
}

class RandomConversionProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomConversionProperty, ConvertedValuesConformToTarget) {
  // Build a pair of equivalent Mtypes with permuted/flattened structure,
  // generate random conforming values, convert, and check conformance.
  mtype::Graph ga, gb;
  mtype::Ref pa = ga.record({ga.real(24, 8), ga.real(24, 8)});
  mtype::Ref a = ga.record(
      {ga.integer(-100, 100), ga.list_of(pa),
       ga.choice({ga.unit(), ga.character(stype::Repertoire::Latin1)})});
  mtype::Ref pb = gb.record({gb.real(24, 8), gb.real(24, 8)});
  mtype::Ref b = gb.record(
      {gb.choice({gb.character(stype::Repertoire::Latin1), gb.unit()}),
       gb.list_of(pb), gb.integer(-100, 100)});

  auto res = compare::compare(ga, a, gb, b, {});
  ASSERT_TRUE(res.ok) << res.mismatch.to_string();
  Converter conv(res.plan);

  uint64_t seed = GetParam();
  Value in = random_value(ga, a, seed);
  ASSERT_TRUE(conforms(ga, a, in)) << conform_error(ga, a, in);
  Value out = conv.apply(res.root, in);
  EXPECT_TRUE(conforms(gb, b, out)) << conform_error(gb, b, out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConversionProperty,
                         testing::Range<uint64_t>(0, 50));

class CRoundtripProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(CRoundtripProperty, WriteReadIsIdentity) {
  Module& m = parse_c_keep(
      "struct Inner { int a; float b; };\n"
      "struct Outer { char tag; struct Inner in; double d; struct Inner *opt; };\n");
  static mtype::Graph g;
  static mtype::Ref lowered = [&] {
    DiagnosticEngine diags;
    return lower::lower_decl(m, g, "Outer", diags);
  }();

  Value v = random_value(g, lowered, GetParam());
  ASSERT_TRUE(conforms(g, lowered, v));

  LayoutEngine eng(m);
  NativeHeap heap;
  CWriter w(eng, heap);
  CReader r(eng, heap);
  uint64_t addr = w.materialize(m.find("Outer"), {}, v);
  EXPECT_EQ(r.read(m.find("Outer"), {}, addr), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CRoundtripProperty,
                         testing::Range<uint64_t>(100, 140));

class JRoundtripProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(JRoundtripProperty, WriteReadIsIdentity) {
  Module& m = parse_java_keep(
      "class Point { float x; float y; }\n"
      "class Thing { int n; Point p; boolean flag; float[] data; }\n");
  static mtype::Graph g;
  static mtype::Ref lowered = [&] {
    DiagnosticEngine diags;
    return lower::lower_decl(m, g, "Thing", diags);
  }();

  Value v = random_value(g, lowered, GetParam());
  ASSERT_TRUE(conforms(g, lowered, v)) << conform_error(g, lowered, v);

  JHeap heap;
  JWriter w(m, heap);
  JReader r(m, heap);
  JSlot slot = w.write(m.find("Thing"), {}, v);
  EXPECT_EQ(r.read(m.find("Thing"), {}, slot), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JRoundtripProperty,
                         testing::Range<uint64_t>(200, 240));

}  // namespace
}  // namespace mbird::runtime
