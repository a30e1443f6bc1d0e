#include "runtime/cside.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace mbird::runtime {

using stype::AggKind;
using stype::Annotations;
using stype::Kind;
using stype::LengthSpec;
using stype::Prim;
using stype::ScalarIntent;
using stype::Stype;

namespace {

/// The annotations an element or field starts from: none of its own use site.
const Annotations kNone{};

bool char_family(Prim p, const Annotations& ann) {
  bool as_char = p == Prim::Char8 || p == Prim::Char16;
  if (ann.intent) as_char = *ann.intent == ScalarIntent::Character;
  return as_char;
}

void check_range(Int128 v, const Annotations& ann, const std::string& what) {
  if (ann.range_lo && v < *ann.range_lo) {
    throw ConversionError(what + ": value " + to_string(v) +
                          " below annotated range");
  }
  if (ann.range_hi && v > *ann.range_hi) {
    throw ConversionError(what + ": value " + to_string(v) +
                          " above annotated range");
  }
}

/// Fields absorbed because a sibling list's FieldName annotation names them.
std::vector<bool> absorbed_fields(const stype::Module& module,
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

}  // namespace

// ---- reader -----------------------------------------------------------------

Value CReader::read_prim(Prim prim, const Annotations& ann, uint64_t addr) const {
  switch (prim) {
    case Prim::Void: return Value::unit();
    case Prim::Bool: return Value::boolean(heap_.read_uint(addr, 1) != 0);
    case Prim::F32: return Value::real(heap_.read_f32(addr));
    case Prim::F64: return Value::real(heap_.read_f64(addr));
    default: break;
  }
  unsigned bytes = prim_size(prim);
  // Char8/Char16 read unsigned (code points); U* zero-extend; I* sign-extend.
  bool is_signed = prim == Prim::I8 || prim == Prim::I16 || prim == Prim::I32 ||
                   prim == Prim::I64;
  Int128 v = is_signed ? Int128{heap_.read_int(addr, bytes)}
                       : Int128{static_cast<__int128>(heap_.read_uint(addr, bytes))};
  if (char_family(prim, ann)) {
    return Value::character(static_cast<uint32_t>(v));
  }
  check_range(v, ann, "read");
  return Value::integer(v);
}

Value CReader::read_elems(Stype* elem_type, uint64_t base, uint64_t count) const {
  Layout el = layout_.layout_of(elem_type);
  std::vector<Value> elems;
  elems.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    elems.push_back(read(elem_type, {}, base + i * el.size));
  }
  return Value::list(std::move(elems));
}

Value CReader::read_nul_terminated(Stype* elem_type, uint64_t base) const {
  Layout el = layout_.layout_of(elem_type);
  std::vector<Value> elems;
  for (uint64_t i = 0;; ++i) {
    if (heap_.read_uint(base + i * el.size, static_cast<unsigned>(el.size)) == 0) {
      break;
    }
    elems.push_back(read(elem_type, {}, base + i * el.size));
    if (elems.size() > (1u << 24)) {
      throw ConversionError("unterminated nul-terminated array");
    }
  }
  return Value::list(std::move(elems));
}

Value CReader::read_pointer(Stype* node, const Annotations& eff, uint64_t addr,
                            const LengthEnv& env) const {
  uint64_t target = heap_.read_ptr(addr);

  if (eff.length) {
    switch (eff.length->kind) {
      case LengthSpec::Kind::Static: {
        if (target == 0) throw ConversionError("null pointer to fixed array");
        Layout el = layout_.layout_of(node->elem);
        std::vector<Value> elems;
        elems.reserve(eff.length->static_size);
        for (uint64_t i = 0; i < eff.length->static_size; ++i) {
          elems.push_back(read(node->elem, {}, target + i * el.size));
        }
        return Value::record(std::move(elems));
      }
      case LengthSpec::Kind::ParamName:
      case LengthSpec::Kind::FieldName: {
        auto it = env.find(eff.length->name);
        if (it == env.end()) {
          throw ConversionError("length '" + eff.length->name +
                                "' not available while reading array");
        }
        if (target == 0 && it->second != 0) {
          throw ConversionError("null pointer with nonzero length");
        }
        return target == 0 ? Value::list({})
                           : read_elems(node->elem, target, it->second);
      }
      case LengthSpec::Kind::NulTerminated:
        if (target == 0) return Value::list({});
        return read_nul_terminated(node->elem, target);
      case LengthSpec::Kind::Runtime:
        throw ConversionError(
            "native arrays carry no runtime length; annotate a length "
            "parameter/field or nul-termination");
    }
  }

  bool not_null = eff.not_null.value_or(false);
  if (target == 0) {
    if (not_null) throw ConversionError("null pointer violates not-null annotation");
    return Value::choice(0, Value::unit());
  }
  Value pointee = read(node->elem, {}, target, env);
  return not_null ? pointee : Value::choice(1, std::move(pointee));
}

Value CReader::read_enum(Stype* decl, uint64_t addr) const {
  int64_t raw = heap_.read_int(addr, 4);
  for (size_t i = 0; i < decl->enumerators.size(); ++i) {
    if (decl->enumerators[i].value == raw) {
      return Value::integer(static_cast<Int128>(i));
    }
  }
  throw ConversionError("enum value " + std::to_string(raw) +
                        " not an enumerator of " + decl->name);
}

Value CReader::read_aggregate(Stype* decl, uint64_t addr,
                              const LengthEnv& env) const {
  if (decl->agg_kind == AggKind::Union) {
    throw ConversionError(
        "reading a C union requires a discriminant (not supported by the "
        "simulated native reader)");
  }
  auto fields = layout_.instance_fields(decl);
  auto absorbed = absorbed_fields(layout_.module(), fields);

  // Integral fields feed the length environment for sibling lists.
  LengthEnv local = env;
  for (size_t i = 0; i < fields.size(); ++i) {
    Stype* resolved = fields[i]->type;
    stype::Annotations acc;
    if (resolved->kind == Kind::Named || resolved->kind == Kind::Typedef) {
      resolved = layout_.module().resolve(resolved, &acc);
    }
    if (resolved != nullptr && resolved->kind == Kind::Prim) {
      unsigned bytes = prim_size(resolved->prim);
      if (bytes > 0 && resolved->prim != Prim::F32 && resolved->prim != Prim::F64) {
        local[fields[i]->name] = heap_.read_uint(
            addr + layout_.field_offset(decl, i), bytes);
      }
    }
  }

  std::vector<Value> children;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (absorbed[i]) continue;
    children.push_back(
        read(fields[i]->type, {}, addr + layout_.field_offset(decl, i), local));
  }
  return Value::record(std::move(children));
}

Value CReader::read(Stype* type, Annotations inherited, uint64_t addr,
                    const LengthEnv& env) const {
  if (type == nullptr) return Value::unit();
  switch (type->kind) {
    case Kind::Named:
    case Kind::Typedef: {
      Annotations acc = inherited;
      Stype* decl = layout_.module().resolve(type, &acc);
      if (decl == nullptr) throw MbError("read: unknown type '" + type->name + "'");
      return read(decl, acc, addr, env);
    }
    case Kind::Prim: {
      Annotations eff = inherited;
      eff.fill_from(type->ann);
      return read_prim(type->prim, eff, addr);
    }
    case Kind::Enum: return read_enum(type, addr);
    case Kind::Pointer:
    case Kind::Reference: {
      Annotations eff = inherited;
      eff.fill_from(type->ann);
      return read_pointer(type, eff, addr, env);
    }
    case Kind::Array: {
      Annotations eff = inherited;
      eff.fill_from(type->ann);
      if (type->array_size) {
        Layout el = layout_.layout_of(type->elem);
        std::vector<Value> elems;
        for (uint64_t i = 0; i < *type->array_size; ++i) {
          elems.push_back(read(type->elem, {}, addr + i * el.size));
        }
        return Value::record(std::move(elems));
      }
      // Indefinite arrays decay to pointers in native memory.
      return read_pointer(type, eff, addr, env);
    }
    case Kind::Sequence:
      throw ConversionError("sequences have no native representation");
    case Kind::Aggregate: return read_aggregate(type, addr, env);
    case Kind::Function:
      throw ConversionError("functions are not data (use the rpc layer)");
  }
  return Value::unit();
}

// ---- writer -----------------------------------------------------------------

void CWriter::write_prim(Prim prim, const Annotations& ann, const Value& value,
                         uint64_t addr) {
  switch (prim) {
    case Prim::Void: return;
    case Prim::Bool:
      heap_.write_uint(addr, 1, value.as_int() != 0 ? 1 : 0);
      return;
    case Prim::F32:
      heap_.write_f32(addr, static_cast<float>(value.as_real()));
      return;
    case Prim::F64:
      heap_.write_f64(addr, value.as_real());
      return;
    default: break;
  }
  unsigned bytes = prim_size(prim);
  Int128 v;
  if (char_family(prim, ann) || value.kind() == Value::Kind::Char) {
    v = value.as_char();
  } else {
    v = value.as_int();
    check_range(v, ann, "write");
  }
  heap_.write_uint(addr, bytes, static_cast<uint64_t>(v));
}

void CWriter::write_pointer(Stype* node, const Annotations& eff,
                            const Value& value, uint64_t addr,
                            LengthEnv* env_out) {
  if (eff.length) {
    switch (eff.length->kind) {
      case LengthSpec::Kind::Static: {
        // Value is a Record of n elements; allocate and fill.
        Layout el = layout_.layout_of(node->elem);
        uint64_t n = eff.length->static_size;
        uint64_t base = heap_.alloc(el.size * std::max<uint64_t>(n, 1), el.align);
        write_elems(node->elem, value, n, base, el.size, env_out);
        heap_.write_ptr(addr, base);
        return;
      }
      case LengthSpec::Kind::ParamName:
      case LengthSpec::Kind::FieldName:
      case LengthSpec::Kind::NulTerminated: {
        // A List is written in place; only a nil/cons chain materializes.
        const Value* list = &value;
        Value chain;
        if (!value.is(Value::Kind::List)) {
          auto elems = value.as_list();
          if (!elems) {
            throw ConversionError("expected a list value for array pointer");
          }
          chain = Value::list(std::move(*elems));
          list = &chain;
        }
        Layout el = layout_.layout_of(node->elem);
        bool nul = eff.length->kind == LengthSpec::Kind::NulTerminated;
        uint64_t n = list->size();
        uint64_t base =
            heap_.alloc(el.size * std::max<uint64_t>(n + (nul ? 1 : 0), 1), el.align);
        write_elems(node->elem, *list, n, base, el.size, env_out);
        // NUL terminator slots are already zero (alloc zero-fills).
        heap_.write_ptr(addr, base);
        if (env_out != nullptr && !nul) (*env_out)[eff.length->name] = n;
        return;
      }
      case LengthSpec::Kind::Runtime:
        throw ConversionError(
            "cannot write a runtime-length native array without a length "
            "carrier");
    }
  }

  bool not_null = eff.not_null.value_or(false);
  const Value* pointee = &value;
  if (!not_null) {
    if (value.kind() != Value::Kind::Choice) {
      throw ConversionError("expected nullable (choice) value for pointer");
    }
    if (value.arm() == 0) {
      heap_.write_ptr(addr, 0);
      return;
    }
    pointee = &value.inner();
  }
  uint64_t target = materialize(node->elem, {}, *pointee, env_out);
  heap_.write_ptr(addr, target);
}

void CWriter::write_enum(Stype* decl, const Value& value, uint64_t addr) {
  Int128 ordinal = value.as_int();
  if (ordinal < 0 || ordinal >= static_cast<Int128>(decl->enumerators.size())) {
    throw ConversionError("enum ordinal out of range for " + decl->name);
  }
  heap_.write_uint(addr, 4, static_cast<uint64_t>(
                                decl->enumerators[static_cast<size_t>(ordinal)].value));
}

void CWriter::write_elems(Stype* elem_type, const Value& elems, uint64_t n,
                          uint64_t base, uint64_t stride, LengthEnv* env_out) {
  if (n == 0) return;
  Annotations acc;
  Stype* decl = elem_type;
  if (decl != nullptr && (decl->kind == Kind::Named || decl->kind == Kind::Typedef)) {
    decl = layout_.module().resolve(elem_type, &acc);
    if (decl == nullptr) {
      throw MbError("write: unknown type '" + elem_type->name + "'");
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    write(decl, acc, elems.at(i), base + i * stride, env_out);
  }
}

void CWriter::write_aggregate(Stype* decl, const Value& value, uint64_t addr,
                              LengthEnv* env_out) {
  if (decl->agg_kind == AggKind::Union) {
    throw ConversionError("writing C unions requires a discriminant");
  }
  auto fields = layout_.instance_fields(decl);
  auto absorbed = absorbed_fields(layout_.module(), fields);

  // First pass: write the non-absorbed fields; lists record their lengths.
  LengthEnv local;
  size_t vi = 0;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (absorbed[i]) continue;
    write(fields[i]->type, kNone, value.at(vi++),
          addr + layout_.field_offset(decl, i), &local);
  }
  // Second pass: fill absorbed count fields from the recorded lengths.
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!absorbed[i]) continue;
    auto it = local.find(fields[i]->name);
    if (it == local.end()) {
      throw ConversionError("no length recorded for absorbed field '" +
                            fields[i]->name + "'");
    }
    Stype* resolved = fields[i]->type;
    if (resolved->kind == Kind::Named || resolved->kind == Kind::Typedef) {
      resolved = layout_.module().resolve(resolved);
    }
    if (resolved == nullptr || resolved->kind != Kind::Prim) {
      throw ConversionError("absorbed length field must be integral");
    }
    heap_.write_uint(addr + layout_.field_offset(decl, i),
                     prim_size(resolved->prim), it->second);
  }
  if (env_out != nullptr) {
    env_out->insert(local.begin(), local.end());
  }
}

void CWriter::write(Stype* type, const Annotations& inherited,
                    const Value& value, uint64_t addr, LengthEnv* env_out) {
  if (type == nullptr) return;
  // A node copies the annotations it writes under only when it adds its own.
  Annotations scratch;
  switch (type->kind) {
    case Kind::Named:
    case Kind::Typedef: {
      Annotations acc = inherited;
      Stype* decl = layout_.module().resolve(type, &acc);
      if (decl == nullptr) throw MbError("write: unknown type '" + type->name + "'");
      write(decl, acc, value, addr, env_out);
      return;
    }
    case Kind::Prim:
      write_prim(type->prim, inherited.filled_from(type->ann, scratch), value,
                 addr);
      return;
    case Kind::Enum: write_enum(type, value, addr); return;
    case Kind::Pointer:
    case Kind::Reference:
      write_pointer(type, inherited.filled_from(type->ann, scratch), value, addr,
                    env_out);
      return;
    case Kind::Array: {
      if (type->array_size) {
        Layout el = layout_.layout_of(type->elem);
        write_elems(type->elem, value, *type->array_size, addr, el.size, env_out);
        return;
      }
      write_pointer(type, inherited.filled_from(type->ann, scratch), value, addr,
                    env_out);
      return;
    }
    case Kind::Sequence:
      throw ConversionError("sequences have no native representation");
    case Kind::Aggregate: write_aggregate(type, value, addr, env_out); return;
    case Kind::Function:
      throw ConversionError("functions are not data (use the rpc layer)");
  }
}

uint64_t CWriter::materialize(Stype* type, Annotations inherited,
                              const Value& value, LengthEnv* env_out) {
  Stype* resolved = type;
  Annotations acc = std::move(inherited);
  if (resolved->kind == Kind::Named || resolved->kind == Kind::Typedef) {
    resolved = layout_.module().resolve(resolved, &acc);
    if (resolved == nullptr) throw MbError("materialize: unknown type");
  }
  Layout l = layout_.layout_of(resolved);
  uint64_t addr = heap_.alloc(l.size, l.align);
  write(resolved, acc, value, addr, env_out);
  return addr;
}

}  // namespace mbird::runtime
