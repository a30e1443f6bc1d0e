// The C side of local stubs: reading/writing Values from/to native memory
// images, following exactly the same annotation-driven structural rules the
// lowering applies (tests assert reader output conforms to the lowered
// Mtype — see runtime/conform.hpp).
#pragma once

#include <map>
#include <string>

#include "runtime/layout.hpp"
#include "runtime/value.hpp"

namespace mbird::runtime {

/// Known element counts for arrays measured by sibling parameters/fields.
using LengthEnv = std::map<std::string, uint64_t>;

class CReader {
 public:
  CReader(const LayoutEngine& layout, const NativeHeap& heap)
      : layout_(layout), heap_(heap) {}

  /// Read a value of `type` stored at `addr`. `inherited` carries use-site
  /// annotations (e.g. a parameter's length spec); `env` supplies counts
  /// for ParamName lengths.
  [[nodiscard]] Value read(stype::Stype* type, stype::Annotations inherited,
                           uint64_t addr, const LengthEnv& env = {}) const;

 private:
  Value read_prim(stype::Prim prim, const stype::Annotations& ann,
                  uint64_t addr) const;
  Value read_pointer(stype::Stype* node, const stype::Annotations& eff,
                     uint64_t addr, const LengthEnv& env) const;
  Value read_elems(stype::Stype* elem_type, uint64_t base, uint64_t count) const;
  Value read_nul_terminated(stype::Stype* elem_type, uint64_t base) const;
  Value read_aggregate(stype::Stype* decl, uint64_t addr,
                       const LengthEnv& env) const;
  Value read_enum(stype::Stype* decl, uint64_t addr) const;

  const LayoutEngine& layout_;
  const NativeHeap& heap_;
};

class CWriter {
 public:
  CWriter(const LayoutEngine& layout, NativeHeap& heap)
      : layout_(layout), heap_(heap) {}

  /// Write `value` into memory at `addr` (which must have layout_of(type)
  /// bytes). Pointer targets and array buffers are allocated on the heap.
  /// Absorbed lengths discovered while writing (ParamName annotations) are
  /// recorded in `env_out`.
  void write(stype::Stype* type, const stype::Annotations& inherited,
             const Value& value, uint64_t addr, LengthEnv* env_out = nullptr);

  /// Allocate memory for `type` and write `value` into it.
  uint64_t materialize(stype::Stype* type, stype::Annotations inherited,
                       const Value& value, LengthEnv* env_out = nullptr);

 private:
  void write_prim(stype::Prim prim, const stype::Annotations& ann,
                  const Value& value, uint64_t addr);
  void write_pointer(stype::Stype* node, const stype::Annotations& eff,
                     const Value& value, uint64_t addr, LengthEnv* env_out);
  /// Write elements 0..n-1 of `elems` (a List or Record) as `elem_type`,
  /// `stride` bytes apart from `base`. The element type is resolved once
  /// for the list, and only when it has elements.
  void write_elems(stype::Stype* elem_type, const Value& elems, uint64_t n,
                   uint64_t base, uint64_t stride, LengthEnv* env_out);
  void write_aggregate(stype::Stype* decl, const Value& value, uint64_t addr,
                       LengthEnv* env_out);
  void write_enum(stype::Stype* decl, const Value& value, uint64_t addr);

  const LayoutEngine& layout_;
  NativeHeap& heap_;
};

}  // namespace mbird::runtime
