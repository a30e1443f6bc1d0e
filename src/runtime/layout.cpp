#include "runtime/layout.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

namespace mbird::runtime {

using stype::AggKind;
using stype::Kind;
using stype::Prim;
using stype::Stype;

unsigned prim_size(Prim p) {
  switch (p) {
    case Prim::Void: return 0;
    case Prim::Bool:
    case Prim::Char8:
    case Prim::I8:
    case Prim::U8: return 1;
    case Prim::Char16:
    case Prim::I16:
    case Prim::U16: return 2;
    case Prim::I32:
    case Prim::U32:
    case Prim::F32: return 4;
    case Prim::I64:
    case Prim::U64:
    case Prim::F64: return 8;
  }
  return 0;
}

namespace {
uint64_t align_up(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
}  // namespace

std::vector<stype::Field*> LayoutEngine::instance_fields(Stype* agg) const {
  std::vector<stype::Field*> out;
  // Inherited fields first (mirrors lower::collect_fields).
  std::vector<Stype*> stack;
  std::function<void(Stype*, int)> walk = [&](Stype* d, int depth) {
    if (depth > 16) return;
    for (const auto& base_name : d->bases) {
      Stype* base = module_.find(base_name);
      if (base != nullptr && base->kind == Kind::Aggregate) walk(base, depth + 1);
    }
    for (auto& f : d->fields) {
      if (!f.is_static) out.push_back(&f);
    }
  };
  walk(agg, 0);
  return out;
}

Layout LayoutEngine::layout_of(Stype* type) const {
  if (type == nullptr) return {0, 1};
  switch (type->kind) {
    case Kind::Prim: {
      unsigned s = prim_size(type->prim);
      return {s, s == 0 ? 1 : s};
    }
    case Kind::Named:
    case Kind::Typedef: {
      Stype* decl = module_.resolve(const_cast<Stype*>(type));
      if (decl == nullptr) throw MbError("layout: unknown type '" + type->name + "'");
      return layout_of(decl);
    }
    case Kind::Pointer:
    case Kind::Reference: return {8, 8};
    case Kind::Array: {
      if (!type->array_size) {
        throw MbError("layout: indefinite array has no intrinsic layout");
      }
      Layout e = layout_of(type->elem);
      return {e.size * *type->array_size, e.align};
    }
    case Kind::Sequence:
      throw MbError("layout: sequences have no native layout (use pointers)");
    case Kind::Enum: return {4, 4};
    case Kind::Aggregate: {
      auto fields = instance_fields(const_cast<Stype*>(type));
      if (type->agg_kind == AggKind::Union) {
        Layout l{0, 1};
        for (auto* f : fields) {
          Layout fl = layout_of(f->type);
          l.size = std::max(l.size, fl.size);
          l.align = std::max(l.align, fl.align);
        }
        l.size = align_up(std::max<uint64_t>(l.size, 1), l.align);
        return l;
      }
      uint64_t offset = 0, align = 1;
      for (auto* f : fields) {
        Layout fl = layout_of(f->type);
        offset = align_up(offset, fl.align) + fl.size;
        align = std::max(align, fl.align);
      }
      return {align_up(std::max<uint64_t>(offset, 1), align), align};
    }
    case Kind::Function:
      throw MbError("layout: functions have no data layout");
  }
  return {0, 1};
}

uint64_t LayoutEngine::field_offset(Stype* agg, size_t index) const {
  auto fields = instance_fields(agg);
  if (index >= fields.size()) {
    throw MbError("layout: field index out of range in " + agg->name);
  }
  if (agg->agg_kind == AggKind::Union) return 0;
  uint64_t offset = 0;
  for (size_t i = 0; i <= index; ++i) {
    Layout fl = layout_of(fields[i]->type);
    offset = align_up(offset, fl.align);
    if (i == index) return offset;
    offset += fl.size;
  }
  return offset;
}

uint64_t NativeHeap::alloc(uint64_t size, uint64_t align) {
  if (align == 0) align = 1;
  uint64_t addr = align_up(mem_.size(), align);
  mem_.resize(addr + std::max<uint64_t>(size, 1), 0);
  return addr;
}

void NativeHeap::release_to(uint64_t mark) {
  if (mark < mem_.size()) mem_.resize(std::max(mark, kReserved));
}

const uint8_t* NativeHeap::at(uint64_t addr, uint64_t len) const {
  if (addr == 0 || addr + len > mem_.size()) {
    throw MbError("native heap: bad access at " + std::to_string(addr));
  }
  return mem_.data() + addr;
}

uint8_t* NativeHeap::at_mut(uint64_t addr, uint64_t len) {
  if (addr == 0 || addr + len > mem_.size()) {
    throw MbError("native heap: bad access at " + std::to_string(addr));
  }
  return mem_.data() + addr;
}

uint64_t NativeHeap::read_uint(uint64_t addr, unsigned bytes) const {
  uint64_t v = 0;
  std::memcpy(&v, at(addr, bytes), bytes);
  return v;
}

int64_t NativeHeap::read_int(uint64_t addr, unsigned bytes) const {
  uint64_t u = read_uint(addr, bytes);
  // Sign-extend.
  if (bytes < 8) {
    uint64_t sign = 1ULL << (bytes * 8 - 1);
    if (u & sign) u |= ~((sign << 1) - 1);
  }
  return static_cast<int64_t>(u);
}

void NativeHeap::write_uint(uint64_t addr, unsigned bytes, uint64_t value) {
  std::memcpy(at_mut(addr, bytes), &value, bytes);
}

float NativeHeap::read_f32(uint64_t addr) const {
  float f;
  std::memcpy(&f, at(addr, 4), 4);
  return f;
}

double NativeHeap::read_f64(uint64_t addr) const {
  double d;
  std::memcpy(&d, at(addr, 8), 8);
  return d;
}

void NativeHeap::write_f32(uint64_t addr, float v) {
  std::memcpy(at_mut(addr, 4), &v, 4);
}

void NativeHeap::write_f64(uint64_t addr, double v) {
  std::memcpy(at_mut(addr, 8), &v, 8);
}

// ---- static image descriptors ----------------------------------------------

namespace {

using stype::Annotations;
using stype::LengthSpec;
using stype::ScalarIntent;

bool image_char_family(Prim p, const Annotations& ann) {
  bool as_char = p == Prim::Char8 || p == Prim::Char16;
  if (ann.intent) as_char = *ann.intent == ScalarIntent::Character;
  return as_char;
}

/// Same absorption rule as the CReader: fields named by a sibling's
/// FieldName length annotation vanish from the Value structure.
std::vector<bool> image_absorbed_fields(const stype::Module& module,
                                        const std::vector<stype::Field*>& fields) {
  std::vector<bool> absorbed(fields.size(), false);
  for (auto* f : fields) {
    Annotations acc;
    Stype* ft = f->type;
    if (ft->kind == Kind::Named || ft->kind == Kind::Typedef) {
      module.resolve(ft, &acc);
    }
    acc.fill_from(f->type->ann);
    if (acc.length && acc.length->kind == LengthSpec::Kind::FieldName) {
      for (size_t i = 0; i < fields.size(); ++i) {
        if (fields[i]->name == acc.length->name) absorbed[i] = true;
      }
    }
  }
  return absorbed;
}

struct ImageBuilder {
  const LayoutEngine& layout;
  ImageLayout il;

  uint32_t intern_name(const std::string& s) {
    for (uint32_t i = 0; i < il.names.size(); ++i) {
      if (il.names[i] == s) return i;
    }
    il.names.push_back(s);
    return static_cast<uint32_t>(il.names.size() - 1);
  }

  uint32_t add(ImageLayout::Node n) {
    il.nodes.push_back(n);
    return static_cast<uint32_t>(il.nodes.size() - 1);
  }

  uint32_t build(Stype* type, Annotations inherited, uint64_t offset, int depth) {
    if (depth > 64) {
      throw MbError("native-marshal: layout nesting too deep");
    }
    if (offset > 0xffffffffull) {
      throw MbError("native-marshal: image exceeds addressable layout size");
    }
    auto off32 = static_cast<uint32_t>(offset);
    if (type == nullptr) return add({.kind = ImageLayout::K::Unit, .offset = off32});
    switch (type->kind) {
      case Kind::Named:
      case Kind::Typedef: {
        Annotations acc = inherited;
        Stype* decl = layout.module().resolve(type, &acc);
        if (decl == nullptr) {
          throw MbError("read: unknown type '" + type->name + "'");
        }
        return build(decl, acc, offset, depth + 1);
      }
      case Kind::Prim: {
        Annotations eff = inherited;
        eff.fill_from(type->ann);
        Prim p = type->prim;
        ImageLayout::Node n;
        n.offset = off32;
        switch (p) {
          case Prim::Void: n.kind = ImageLayout::K::Unit; return add(n);
          case Prim::Bool:
            n.kind = ImageLayout::K::Bool;
            n.width = 1;
            return add(n);
          case Prim::F32:
            n.kind = ImageLayout::K::F32;
            n.width = 4;
            return add(n);
          case Prim::F64:
            n.kind = ImageLayout::K::F64;
            n.width = 8;
            return add(n);
          default: break;
        }
        n.width = prim_size(p);
        bool is_signed = p == Prim::I8 || p == Prim::I16 || p == Prim::I32 ||
                         p == Prim::I64;
        if (image_char_family(p, eff)) {
          if (is_signed) {
            throw MbError(
                "native-marshal: character intent on a signed primitive");
          }
          n.kind = ImageLayout::K::Char;
          return add(n);
        }
        n.kind = is_signed ? ImageLayout::K::SInt : ImageLayout::K::UInt;
        if (eff.range_lo) {
          n.has_lo = true;
          n.lo = *eff.range_lo;
        }
        if (eff.range_hi) {
          n.has_hi = true;
          n.hi = *eff.range_hi;
        }
        return add(n);
      }
      case Kind::Enum: {
        ImageLayout::Node n;
        n.kind = ImageLayout::K::Enum;
        n.offset = off32;
        n.width = 4;
        n.name = intern_name(type->name);
        n.enum_off = static_cast<uint32_t>(il.enum_pool.size());
        n.enum_len = static_cast<uint32_t>(type->enumerators.size());
        for (const auto& e : type->enumerators) il.enum_pool.push_back(e.value);
        return add(n);
      }
      case Kind::Array: {
        if (!type->array_size) {
          throw MbError(
              "native-marshal: indefinite arrays have no self-contained image");
        }
        Layout el = layout.layout_of(type->elem);
        uint32_t idx = add({.kind = ImageLayout::K::Record, .offset = off32});
        std::vector<uint32_t> kid_idx;
        kid_idx.reserve(*type->array_size);
        for (uint64_t i = 0; i < *type->array_size; ++i) {
          kid_idx.push_back(build(type->elem, {}, offset + i * el.size, depth + 1));
        }
        il.nodes[idx].kids_off = static_cast<uint32_t>(il.kids.size());
        il.nodes[idx].kids_len = static_cast<uint32_t>(kid_idx.size());
        il.kids.insert(il.kids.end(), kid_idx.begin(), kid_idx.end());
        return idx;
      }
      case Kind::Aggregate: {
        if (type->agg_kind == AggKind::Union) {
          throw MbError(
              "native-marshal: C unions need a discriminant (no static image)");
        }
        auto fields = layout.instance_fields(type);
        auto absorbed = image_absorbed_fields(layout.module(), fields);
        uint32_t idx = add({.kind = ImageLayout::K::Record, .offset = off32});
        std::vector<uint32_t> kid_idx;
        kid_idx.reserve(fields.size());
        for (size_t i = 0; i < fields.size(); ++i) {
          if (absorbed[i]) continue;
          kid_idx.push_back(build(fields[i]->type, {},
                                  offset + layout.field_offset(type, i),
                                  depth + 1));
        }
        il.nodes[idx].kids_off = static_cast<uint32_t>(il.kids.size());
        il.nodes[idx].kids_len = static_cast<uint32_t>(kid_idx.size());
        il.kids.insert(il.kids.end(), kid_idx.begin(), kid_idx.end());
        return idx;
      }
      case Kind::Pointer:
      case Kind::Reference:
        throw MbError(
            "native-marshal: pointers reach outside the image (no static "
            "layout)");
      case Kind::Sequence:
        throw MbError("native-marshal: sequences have no native representation");
      case Kind::Function:
        throw MbError("native-marshal: functions are not data");
    }
    throw MbError("native-marshal: unhandled stype kind");
  }
};

void check_node_range(const ImageLayout::Node& n, Int128 v) {
  if (n.has_lo && v < n.lo) {
    throw ConversionError("read: value " + to_string(v) +
                          " below annotated range");
  }
  if (n.has_hi && v > n.hi) {
    throw ConversionError("read: value " + to_string(v) +
                          " above annotated range");
  }
}

Int128 read_scalar_int(const ImageLayout::Node& n, const NativeHeap& heap,
                       uint64_t addr) {
  if (n.kind == ImageLayout::K::SInt) {
    return Int128{heap.read_int(addr, n.width)};
  }
  return Int128{static_cast<__int128>(heap.read_uint(addr, n.width))};
}

int64_t enum_ordinal(const ImageLayout& il, const ImageLayout::Node& n,
                     const NativeHeap& heap, uint64_t addr) {
  int64_t raw = heap.read_int(addr, 4);
  for (uint32_t i = 0; i < n.enum_len; ++i) {
    if (il.enum_pool[n.enum_off + i] == raw) return static_cast<int64_t>(i);
  }
  throw ConversionError("enum value " + std::to_string(raw) +
                        " not an enumerator of " + il.name_of(n));
}

}  // namespace

ImageLayout image_layout_of(const LayoutEngine& layout, stype::Stype* type) {
  Layout l = layout.layout_of(type);
  if (l.size > 0xffffffffull) {
    throw MbError("native-marshal: image exceeds addressable layout size");
  }
  ImageBuilder b{layout, {}};
  b.il.names.emplace_back();
  b.build(type, {}, 0, 0);
  b.il.size = l.size;
  return std::move(b.il);
}

Value read_image(const ImageLayout& il, uint32_t node, const NativeHeap& heap,
                 uint64_t base) {
  const ImageLayout::Node& n = il.nodes[node];
  uint64_t addr = base + n.offset;
  switch (n.kind) {
    case ImageLayout::K::Unit: return Value::unit();
    case ImageLayout::K::Bool:
      return Value::boolean(heap.read_uint(addr, 1) != 0);
    case ImageLayout::K::UInt:
    case ImageLayout::K::SInt: {
      Int128 v = read_scalar_int(n, heap, addr);
      check_node_range(n, v);
      return Value::integer(v);
    }
    case ImageLayout::K::Char:
      return Value::character(
          static_cast<uint32_t>(heap.read_uint(addr, n.width)));
    case ImageLayout::K::F32: return Value::real(heap.read_f32(addr));
    case ImageLayout::K::F64: return Value::real(heap.read_f64(addr));
    case ImageLayout::K::Enum:
      return Value::integer(Int128{enum_ordinal(il, n, heap, addr)});
    case ImageLayout::K::Record: {
      std::vector<Value> kids;
      kids.reserve(n.kids_len);
      for (uint32_t k = 0; k < n.kids_len; ++k) {
        kids.push_back(read_image(il, il.kids[n.kids_off + k], heap, base));
      }
      return Value::record(std::move(kids));
    }
  }
  throw MbError("native-marshal: unhandled image node kind");
}

void check_image_ranges(const ImageLayout& il, const NativeHeap& heap,
                        uint64_t base) {
  // nodes is in pre-order = the CReader's read order, so the first failing
  // check here is the first the two-phase path would hit.
  for (uint32_t i = 0; i < il.nodes.size(); ++i) {
    check_image_range_node(il, i, heap, base);
  }
}

void check_image_range_node(const ImageLayout& il, uint32_t node,
                            const NativeHeap& heap, uint64_t base) {
  const ImageLayout::Node& n = il.nodes[node];
  switch (n.kind) {
    case ImageLayout::K::UInt:
    case ImageLayout::K::SInt:
      if (n.has_lo || n.has_hi) {
        check_node_range(n, read_scalar_int(n, heap, base + n.offset));
      }
      break;
    case ImageLayout::K::Enum:
      (void)enum_ordinal(il, n, heap, base + n.offset);
      break;
    default: break;
  }
}

}  // namespace mbird::runtime
