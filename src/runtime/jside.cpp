#include "runtime/jside.hpp"

#include <functional>

#include "support/strings.hpp"

namespace mbird::runtime {

using stype::AggKind;
using stype::Annotations;
using stype::Kind;
using stype::Prim;
using stype::ScalarIntent;
using stype::Stype;

JRef JHeap::alloc(std::string cls, size_t field_count) {
  JObject obj;
  obj.cls = std::move(cls);
  obj.fields.resize(field_count);
  objects_.push_back(std::move(obj));
  return static_cast<JRef>(objects_.size() - 1);
}

JObject& JHeap::at(JRef r) {
  if (r == kJNull || r >= objects_.size()) {
    throw ConversionError("null or dangling object reference");
  }
  return objects_[r];
}

const JObject& JHeap::at(JRef r) const {
  if (r == kJNull || r >= objects_.size()) {
    throw ConversionError("null or dangling object reference");
  }
  return objects_[r];
}

std::vector<stype::Field*> j_instance_fields(const stype::Module& module,
                                             Stype* decl) {
  std::vector<stype::Field*> out;
  std::function<void(Stype*, int)> walk = [&](Stype* d, int depth) {
    if (depth > 16) return;
    for (const auto& base_name : d->bases) {
      Stype* base = module.find(base_name);
      if (base != nullptr && base->kind == Kind::Aggregate) walk(base, depth + 1);
    }
    for (auto& f : d->fields) {
      if (!f.is_static) out.push_back(&f);
    }
  };
  walk(decl, 0);
  return out;
}

bool j_is_collection(const Stype* decl, const Annotations& eff) {
  if (eff.ordered_collection.value_or(false)) return true;
  if (decl->kind != Kind::Aggregate) return false;
  for (const auto& base : decl->bases) {
    if (ends_with(base, "Vector") || ends_with(base, "ArrayList") ||
        ends_with(base, "LinkedList") || ends_with(base, "AbstractList")) {
      return true;
    }
  }
  return false;
}

namespace {

/// The annotations an element or field starts from: none of its own use site.
const Annotations kNone{};

/// Adapt a scalar slot value to the family the annotations select.
Value adapt_scalar(Prim prim, const Annotations& ann, const Value& v) {
  bool as_char = prim == Prim::Char8 || prim == Prim::Char16;
  if (ann.intent) as_char = *ann.intent == ScalarIntent::Character;

  if (as_char && v.kind() == Value::Kind::Int) {
    return Value::character(static_cast<uint32_t>(v.as_int()));
  }
  if (!as_char && v.kind() == Value::Kind::Char) {
    return Value::integer(v.as_char());
  }
  if (!as_char && v.kind() == Value::Kind::Int) {
    if (ann.range_lo && v.as_int() < *ann.range_lo) {
      throw ConversionError("field value below annotated range");
    }
    if (ann.range_hi && v.as_int() > *ann.range_hi) {
      throw ConversionError("field value above annotated range");
    }
  }
  return v;
}

}  // namespace

bool JReader::is_derived_from(const std::string& cls,
                              const std::string& base) const {
  if (cls == base) return true;
  const Stype* decl = module_.find(cls);
  if (decl == nullptr || decl->kind != Kind::Aggregate) return false;
  for (const auto& b : decl->bases) {
    if (is_derived_from(b, base)) return true;
  }
  return false;
}

Value JReader::read_object(Stype* decl, const Annotations& eff, JRef ref) const {
  const JObject& obj = heap_.at(ref);

  if (j_is_collection(decl, eff)) {
    if (!eff.element_type) {
      throw ConversionError("collection '" + decl->name +
                            "' has no element-type annotation");
    }
    Stype* elem_decl = module_.find(*eff.element_type);
    if (elem_decl == nullptr) {
      throw ConversionError("unknown collection element type '" +
                            *eff.element_type + "'");
    }
    bool elem_not_null = eff.element_not_null.value_or(false);
    bool elem_objects =
        elem_decl->kind == Kind::Aggregate || elem_decl->kind == Kind::Enum;
    // Every element is read as the same class, so its field list is worked
    // out once for the collection (a nested collection class still goes
    // through read_object, which rejects it).
    bool elem_nested = elem_objects && j_is_collection(elem_decl, kNone);
    std::vector<stype::Field*> elem_fields;
    if (elem_objects && !elem_nested) {
      elem_fields = j_instance_fields(module_, elem_decl);
    }
    std::vector<Value> elems;
    elems.reserve(obj.elems.size());
    for (const auto& slot : obj.elems) {
      if (elem_objects) {
        if (slot.is_ref && slot.ref == kJNull) {
          if (elem_not_null) {
            throw ConversionError("null element violates not-null annotation on " +
                                  decl->name);
          }
          elems.push_back(Value::choice(0, Value::unit()));
        } else if (slot.is_ref) {
          Value v = elem_nested
                        ? read_object(elem_decl, kNone, slot.ref)
                        : read_fields(elem_decl, elem_fields, heap_.at(slot.ref));
          elems.push_back(elem_not_null ? std::move(v)
                                        : Value::choice(1, std::move(v)));
        } else {
          throw ConversionError("expected an object element in collection");
        }
      } else {
        elems.push_back(slot.is_ref ? Value::unit() : slot.prim);
      }
    }
    return Value::list(std::move(elems));
  }
  return read_fields(decl, j_instance_fields(module_, decl), obj);
}

Value JReader::read_fields(Stype* decl, const std::vector<stype::Field*>& fields,
                           const JObject& obj) const {
  if (obj.fields.size() < fields.size()) {
    throw ConversionError("object of class " + obj.cls + " has " +
                          std::to_string(obj.fields.size()) +
                          " fields; declaration expects " +
                          std::to_string(fields.size()));
  }
  // Subclass substitution (paper §6): an object of a class derived from
  // `decl` is read as `decl` by slicing — inherited fields come first in
  // both the object layout and the field collection, so the prefix is the
  // parent's state. Classes unrelated to `decl` are rejected when both are
  // known to the module.
  if (obj.fields.size() > fields.size() && obj.cls != decl->name) {
    const stype::Stype* actual = module_.find(obj.cls);
    if (actual != nullptr && !is_derived_from(obj.cls, decl->name)) {
      throw ConversionError("object of class " + obj.cls +
                            " is not a subclass of " + decl->name);
    }
  }
  std::vector<Value> children;
  children.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    children.push_back(read(fields[i]->type, kNone, obj.fields[i]));
  }
  return Value::record(std::move(children));
}

Value JReader::read(Stype* type, const Annotations& inherited,
                    const JSlot& slot) const {
  if (type == nullptr) return Value::unit();
  // A node copies the annotations it reads under only when it adds its own.
  Annotations scratch;
  switch (type->kind) {
    case Kind::Named:
    case Kind::Typedef: {
      Annotations acc = inherited;
      Stype* decl = module_.resolve(type, &acc);
      if (decl == nullptr) throw MbError("read: unknown type '" + type->name + "'");
      return read(decl, acc, slot);
    }
    case Kind::Prim: {
      if (type->prim == Prim::Void) return Value::unit();
      if (slot.is_ref) throw ConversionError("expected a scalar slot");
      return adapt_scalar(type->prim, inherited.filled_from(type->ann, scratch),
                          slot.prim);
    }
    case Kind::Enum: {
      if (slot.is_ref) throw ConversionError("expected an enum ordinal slot");
      Int128 v = slot.prim.as_int();
      if (v < 0 || v >= static_cast<Int128>(type->enumerators.size())) {
        throw ConversionError("enum ordinal out of range for " + type->name);
      }
      return slot.prim;
    }
    case Kind::Reference:
    case Kind::Pointer: {
      const Annotations& eff = inherited.filled_from(type->ann, scratch);
      if (!slot.is_ref) throw ConversionError("expected a reference slot");
      bool not_null = eff.not_null.value_or(false);

      Annotations racc;
      Stype* decl = type->elem;
      if (decl != nullptr && (decl->kind == Kind::Named || decl->kind == Kind::Typedef)) {
        decl = module_.resolve(decl, &racc);
        if (decl == nullptr) {
          throw MbError("read: unknown type '" + type->elem->name + "'");
        }
      }
      if (eff.element_type) racc.element_type = eff.element_type;
      if (eff.element_not_null) racc.element_not_null = eff.element_not_null;
      if (eff.ordered_collection) racc.ordered_collection = eff.ordered_collection;
      racc.fill_from(decl->ann);

      if (slot.ref == kJNull) {
        if (not_null) {
          throw ConversionError("null reference violates not-null annotation");
        }
        return Value::choice(0, Value::unit());
      }
      Value v;
      if (decl->kind == Kind::Aggregate) {
        v = read_object(decl, racc, slot.ref);
      } else if (decl->kind == Kind::Array) {
        // Arrays are objects: elements in obj.elems.
        const JObject& obj = heap_.at(slot.ref);
        std::vector<Value> elems;
        elems.reserve(obj.elems.size());
        for (const auto& es : obj.elems) elems.push_back(read(decl->elem, kNone, es));
        v = Value::list(std::move(elems));
      } else {
        throw ConversionError("unsupported reference target");
      }
      return not_null ? v : Value::choice(1, std::move(v));
    }
    case Kind::Array: {
      // A Java array-typed slot: a reference to an array object.
      if (!slot.is_ref) throw ConversionError("expected an array reference");
      if (slot.ref == kJNull) {
        // Null arrays and empty lists both map to nil.
        return Value::list({});
      }
      const JObject& obj = heap_.at(slot.ref);
      std::vector<Value> elems;
      elems.reserve(obj.elems.size());
      for (const auto& es : obj.elems) elems.push_back(read(type->elem, kNone, es));
      if (type->array_size) {
        if (elems.size() != *type->array_size) {
          throw ConversionError("array length does not match declared size");
        }
        return Value::record(std::move(elems));
      }
      return Value::list(std::move(elems));
    }
    case Kind::Sequence: {
      if (!slot.is_ref) throw ConversionError("expected a sequence reference");
      if (slot.ref == kJNull) return Value::list({});
      const JObject& obj = heap_.at(slot.ref);
      std::vector<Value> elems;
      for (const auto& es : obj.elems) elems.push_back(read(type->elem, kNone, es));
      return Value::list(std::move(elems));
    }
    case Kind::Aggregate:
      return read_object(type, inherited.filled_from(type->ann, scratch),
                         slot.ref);
    case Kind::Function:
      throw ConversionError("functions are not data (use the rpc layer)");
  }
  return Value::unit();
}

JRef JWriter::write_object(Stype* decl, const Annotations& eff, const Value& value) {
  if (j_is_collection(decl, eff)) {
    auto elems = value.as_list();
    if (!elems) throw ConversionError("expected a list value for collection");
    if (!eff.element_type) {
      throw ConversionError("collection '" + decl->name +
                            "' has no element-type annotation");
    }
    Stype* elem_decl = module_.find(*eff.element_type);
    if (elem_decl == nullptr) {
      throw ConversionError("unknown collection element type '" +
                            *eff.element_type + "'");
    }
    bool elem_not_null = eff.element_not_null.value_or(false);
    JRef ref = heap_.alloc(decl->name);
    for (const auto& ev : *elems) {
      if (elem_decl->kind == Kind::Aggregate || elem_decl->kind == Kind::Enum) {
        const Value* inner = &ev;
        if (!elem_not_null) {
          if (ev.kind() != Value::Kind::Choice) {
            throw ConversionError("expected nullable element value");
          }
          if (ev.arm() == 0) {
            heap_.at(ref).elems.push_back(JSlot::reference(kJNull));
            continue;
          }
          inner = &ev.inner();
        }
        JRef er = write_object(elem_decl, {}, *inner);
        heap_.at(ref).elems.push_back(JSlot::reference(er));
      } else {
        heap_.at(ref).elems.push_back(JSlot::scalar(ev));
      }
    }
    return ref;
  }

  auto fields = j_instance_fields(module_, decl);
  if (value.kind() != Value::Kind::Record || value.size() != fields.size()) {
    throw ConversionError("value shape does not match class " + decl->name);
  }
  JRef ref = heap_.alloc(decl->name, fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    JSlot slot = write(fields[i]->type, {}, value.at(i));
    heap_.at(ref).fields[i] = std::move(slot);
  }
  return ref;
}

JSlot JWriter::write(Stype* type, Annotations inherited, const Value& value) {
  if (type == nullptr) return JSlot::scalar(Value::unit());
  switch (type->kind) {
    case Kind::Named:
    case Kind::Typedef: {
      Annotations acc = inherited;
      Stype* decl = module_.resolve(type, &acc);
      if (decl == nullptr) throw MbError("write: unknown type '" + type->name + "'");
      return write(decl, acc, value);
    }
    case Kind::Prim: {
      Annotations eff = inherited;
      eff.fill_from(type->ann);
      return JSlot::scalar(adapt_scalar(type->prim, eff, value));
    }
    case Kind::Enum: return JSlot::scalar(value);
    case Kind::Reference:
    case Kind::Pointer: {
      Annotations eff = inherited;
      eff.fill_from(type->ann);
      bool not_null = eff.not_null.value_or(false);

      Annotations racc;
      Stype* decl = type->elem;
      if (decl != nullptr && (decl->kind == Kind::Named || decl->kind == Kind::Typedef)) {
        decl = module_.resolve(decl, &racc);
        if (decl == nullptr) {
          throw MbError("write: unknown type '" + type->elem->name + "'");
        }
      }
      if (eff.element_type) racc.element_type = eff.element_type;
      if (eff.element_not_null) racc.element_not_null = eff.element_not_null;
      if (eff.ordered_collection) racc.ordered_collection = eff.ordered_collection;
      racc.fill_from(decl->ann);

      const Value* inner = &value;
      if (!not_null) {
        // Accept both Choice encoding and a List for collection targets.
        if (value.kind() == Value::Kind::Choice) {
          if (value.arm() == 0) return JSlot::reference(kJNull);
          inner = &value.inner();
        } else if (value.kind() != Value::Kind::List) {
          throw ConversionError("expected nullable (choice) value for reference");
        }
      }
      if (decl->kind == Kind::Aggregate) {
        return JSlot::reference(write_object(decl, racc, *inner));
      }
      if (decl->kind == Kind::Array) {
        auto elems = inner->as_list();
        if (!elems) throw ConversionError("expected list for array reference");
        JRef ref = heap_.alloc("[]");
        for (const auto& ev : *elems) {
          JSlot es = write(decl->elem, {}, ev);
          heap_.at(ref).elems.push_back(std::move(es));
        }
        return JSlot::reference(ref);
      }
      throw ConversionError("unsupported reference target");
    }
    case Kind::Array:
    case Kind::Sequence: {
      auto elems = value.as_list();
      std::vector<Value> record_elems;
      if (!elems && value.kind() == Value::Kind::Record && type->array_size) {
        record_elems = value.children();
        elems = record_elems;
      }
      if (!elems) throw ConversionError("expected a list value for array");
      JRef ref = heap_.alloc("[]");
      for (const auto& ev : *elems) {
        JSlot es = write(type->elem, {}, ev);
        heap_.at(ref).elems.push_back(std::move(es));
      }
      return JSlot::reference(ref);
    }
    case Kind::Aggregate: {
      Annotations eff = inherited;
      eff.fill_from(type->ann);
      return JSlot::reference(write_object(type, eff, value));
    }
    case Kind::Function:
      throw ConversionError("functions are not data (use the rpc layer)");
  }
  return JSlot::scalar(Value::unit());
}

}  // namespace mbird::runtime
