// C memory layout engine + simulated native heap.
//
// Local stubs read and write real memory images (the paper's generated C
// stubs do JNI-side memory access). This engine models a conventional
// System V-style ABI: natural alignment for scalars, structs padded to the
// max member alignment, unions sized by their largest arm, 8-byte pointers.
// The NativeHeap is a flat byte arena; addresses are offsets into it, with
// 0 reserved as the null pointer. Examples implement their "native" C
// functions directly against the heap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/value.hpp"
#include "stype/stype.hpp"
#include "support/diag.hpp"
#include "support/error.hpp"

namespace mbird::runtime {

struct Layout {
  uint64_t size = 0;
  uint64_t align = 1;
};

class LayoutEngine {
 public:
  explicit LayoutEngine(const stype::Module& module) : module_(module) {}

  /// Size/alignment of a type as laid out in native memory. Pointers and
  /// references are 8 bytes. Indefinite arrays have no intrinsic layout and
  /// throw MbError (they exist behind pointers).
  [[nodiscard]] Layout layout_of(stype::Stype* type) const;

  /// Byte offset of field `index` (into the full flattened field list,
  /// including inherited fields — matching stype field collection order).
  [[nodiscard]] uint64_t field_offset(stype::Stype* agg, size_t index) const;

  /// All instance fields (inherited first), as the reader/writer see them.
  [[nodiscard]] std::vector<stype::Field*> instance_fields(stype::Stype* agg) const;

  [[nodiscard]] const stype::Module& module() const { return module_; }

 private:
  const stype::Module& module_;
};

class NativeHeap {
 public:
  NativeHeap() : mem_(16, 0) {}  // address 0..15 reserved; 0 is NULL

  /// Allocate `size` bytes at `align`; returns the address. Memory is
  /// zero-initialized.
  uint64_t alloc(uint64_t size, uint64_t align);

  [[nodiscard]] const uint8_t* at(uint64_t addr, uint64_t len) const;
  [[nodiscard]] uint8_t* at_mut(uint64_t addr, uint64_t len);

  // Scalar accessors (little-endian host assumed; the wire format has its
  // own explicit byte order).
  [[nodiscard]] uint64_t read_uint(uint64_t addr, unsigned bytes) const;
  [[nodiscard]] int64_t read_int(uint64_t addr, unsigned bytes) const;
  void write_uint(uint64_t addr, unsigned bytes, uint64_t value);
  [[nodiscard]] float read_f32(uint64_t addr) const;
  [[nodiscard]] double read_f64(uint64_t addr) const;
  void write_f32(uint64_t addr, float v);
  void write_f64(uint64_t addr, double v);
  [[nodiscard]] uint64_t read_ptr(uint64_t addr) const { return read_uint(addr, 8); }
  void write_ptr(uint64_t addr, uint64_t value) { write_uint(addr, 8, value); }

  [[nodiscard]] uint64_t size() const { return mem_.size(); }

 private:
  std::vector<uint8_t> mem_;
};

/// Scalar width in bytes for a primitive (pointers handled separately).
[[nodiscard]] unsigned prim_size(stype::Prim p);

// ---- static image descriptors ----------------------------------------------
//
// An ImageLayout is the compile-time twin of CReader::read for types whose
// native image is self-contained (no pointers, sequences, unions, or
// functions): a flat pre-order arena of scalar/record nodes with absolute
// byte offsets. planir::compile_native_marshal bakes these offsets into
// fused marshal programs; read_image materializes the same Value the CReader
// would, so the two paths stay interchangeable.
struct ImageLayout {
  enum class K : uint8_t { Unit, UInt, SInt, Bool, Char, F32, F64, Enum, Record };

  struct Node {
    K kind = K::Unit;
    uint32_t offset = 0;  // absolute byte offset from the image base
    uint32_t width = 0;   // scalar width in bytes (0 for Unit/Record)
    uint32_t kids_off = 0, kids_len = 0;  // Record: children (into kids)
    uint32_t enum_off = 0, enum_len = 0;  // Enum: values in ordinal order
    uint32_t name = 0;                    // names[] index (diagnostics)
    // Annotated range, checked when the field is read (UInt/SInt only).
    bool has_lo = false, has_hi = false;
    Int128 lo = 0, hi = 0;
  };

  std::vector<Node> nodes;  // pre-order; node 0 is the root = read order
  std::vector<uint32_t> kids;
  std::vector<int64_t> enum_pool;
  std::vector<std::string> names;  // names[0] is always ""
  uint64_t size = 0;               // total image size in bytes

  [[nodiscard]] const std::string& name_of(const Node& n) const {
    return names[n.name];
  }
};

/// Describe the native image of `type` as an ImageLayout. Throws MbError for
/// types whose image is not self-contained (pointers, references, sequences,
/// unions, indefinite arrays, functions) — callers fall back to the CReader
/// path. Absorbed length fields are skipped from record children exactly as
/// CReader::read_aggregate skips them.
[[nodiscard]] ImageLayout image_layout_of(const LayoutEngine& layout,
                                          stype::Stype* type);

/// Materialize the Value for the subtree at `node` from the image at `base`.
/// Produces exactly what CReader::read produces for the same type — same
/// Values, same ConversionError messages (annotated ranges, enum membership).
[[nodiscard]] Value read_image(const ImageLayout& il, uint32_t node,
                               const NativeHeap& heap, uint64_t base);

/// Run every read-time check the CReader would run over the whole image, in
/// read (pre-order) order, without building Values: annotated integer ranges
/// and enum membership. Fused marshal programs run this as a prologue so
/// they fail on exactly the inputs the read-native→convert→encode path
/// fails on, even for fields the plan drops.
void check_image_ranges(const ImageLayout& il, const NativeHeap& heap,
                        uint64_t base);

/// One node's worth of check_image_ranges: annotated integer range or enum
/// membership for `node`, nothing for other kinds. The engine's vectorized
/// prologue re-runs failing runs through this scalar path so it throws the
/// same error at the same field as read_image.
void check_image_range_node(const ImageLayout& il, uint32_t node,
                            const NativeHeap& heap, uint64_t base);

}  // namespace mbird::runtime
