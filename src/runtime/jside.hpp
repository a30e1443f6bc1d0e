// The Java side of local stubs: a simulated object heap with reference
// semantics (nullability, aliasing, runtime-length arrays and Vector-like
// collections), plus readers/writers between heap slots and Values.
//
// This stands in for the JNI object access of the paper's generated stubs:
// structurally identical traversals (field loads/stores, array element
// access, null checks) against a heap we can inspect in tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/value.hpp"
#include "stype/stype.hpp"
#include "support/error.hpp"

namespace mbird::runtime {

using JRef = uint64_t;  // 0 is null
inline constexpr JRef kJNull = 0;

/// A field or array slot: either a scalar value or an object reference.
struct JSlot {
  bool is_ref = false;
  Value prim;      // when !is_ref
  JRef ref = kJNull;  // when is_ref

  static JSlot scalar(Value v) {
    JSlot s;
    s.prim = std::move(v);
    return s;
  }
  static JSlot reference(JRef r) {
    JSlot s;
    s.is_ref = true;
    s.ref = r;
    return s;
  }
};

struct JObject {
  std::string cls;            // class name (diagnostics + dynamic checks)
  std::vector<JSlot> fields;  // instance fields, declaration order
  std::vector<JSlot> elems;   // array / Vector element storage
};

class JHeap {
 public:
  JHeap() { objects_.emplace_back(); }  // slot 0 = null

  JRef alloc(std::string cls, size_t field_count = 0);
  [[nodiscard]] JObject& at(JRef r);
  [[nodiscard]] const JObject& at(JRef r) const;
  [[nodiscard]] size_t object_count() const { return objects_.size() - 1; }

 private:
  std::vector<JObject> objects_;
};

class JReader {
 public:
  JReader(const stype::Module& module, const JHeap& heap)
      : module_(module), heap_(heap) {}

  /// Read the value of `type` from a slot.
  [[nodiscard]] Value read(stype::Stype* type,
                           const stype::Annotations& inherited,
                           const JSlot& slot) const;

 private:
  Value read_object(stype::Stype* decl, const stype::Annotations& eff,
                    JRef ref) const;
  /// Read `obj` as an instance of class `decl`, whose instance fields are
  /// `fields` (j_instance_fields of `decl`).
  Value read_fields(stype::Stype* decl, const std::vector<stype::Field*>& fields,
                    const JObject& obj) const;
  [[nodiscard]] bool is_derived_from(const std::string& cls,
                                     const std::string& base) const;

  const stype::Module& module_;
  const JHeap& heap_;
};

class JWriter {
 public:
  JWriter(const stype::Module& module, JHeap& heap)
      : module_(module), heap_(heap) {}

  /// Produce a slot holding `value`, creating objects as needed.
  [[nodiscard]] JSlot write(stype::Stype* type, stype::Annotations inherited,
                            const Value& value);

 private:
  JRef write_object(stype::Stype* decl, const stype::Annotations& eff,
                    const Value& value);

  const stype::Module& module_;
  JHeap& heap_;
};

/// Instance fields of a class (inherited first), shared reader/writer order.
[[nodiscard]] std::vector<stype::Field*> j_instance_fields(
    const stype::Module& module, stype::Stype* decl);

/// Is this aggregate an indefinite ordered collection (same predicate the
/// lowering uses)?
[[nodiscard]] bool j_is_collection(const stype::Stype* decl,
                                   const stype::Annotations& eff);

}  // namespace mbird::runtime
