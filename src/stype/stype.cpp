#include "stype/stype.hpp"

#include <sstream>

#include "support/strings.hpp"

namespace mbird::stype {

const char* to_string(Lang l) {
  switch (l) {
    case Lang::C: return "C";
    case Lang::Cpp: return "C++";
    case Lang::Java: return "Java";
    case Lang::Idl: return "IDL";
  }
  return "?";
}

const char* to_string(Kind k) {
  switch (k) {
    case Kind::Prim: return "prim";
    case Kind::Named: return "named";
    case Kind::Pointer: return "pointer";
    case Kind::Reference: return "reference";
    case Kind::Array: return "array";
    case Kind::Sequence: return "sequence";
    case Kind::Aggregate: return "aggregate";
    case Kind::Enum: return "enum";
    case Kind::Function: return "function";
    case Kind::Typedef: return "typedef";
  }
  return "?";
}

const char* to_string(Prim p) {
  switch (p) {
    case Prim::Void: return "void";
    case Prim::Bool: return "bool";
    case Prim::Char8: return "char8";
    case Prim::Char16: return "char16";
    case Prim::I8: return "i8";
    case Prim::U8: return "u8";
    case Prim::I16: return "i16";
    case Prim::U16: return "u16";
    case Prim::I32: return "i32";
    case Prim::U32: return "u32";
    case Prim::I64: return "i64";
    case Prim::U64: return "u64";
    case Prim::F32: return "f32";
    case Prim::F64: return "f64";
  }
  return "?";
}

const char* to_string(AggKind k) {
  switch (k) {
    case AggKind::Struct: return "struct";
    case AggKind::Class: return "class";
    case AggKind::Interface: return "interface";
    case AggKind::Union: return "union";
  }
  return "?";
}

const char* to_string(Direction d) {
  switch (d) {
    case Direction::In: return "in";
    case Direction::Out: return "out";
    case Direction::InOut: return "inout";
  }
  return "?";
}

const char* to_string(Repertoire r) {
  switch (r) {
    case Repertoire::Ascii: return "ascii";
    case Repertoire::Latin1: return "latin1";
    case Repertoire::Ucs2: return "ucs2";
    case Repertoire::Unicode: return "unicode";
  }
  return "?";
}

void Annotations::merge(const Annotations& other) {
  if (other.not_null) not_null = other.not_null;
  if (other.no_alias) no_alias = other.no_alias;
  if (other.range_lo) range_lo = other.range_lo;
  if (other.range_hi) range_hi = other.range_hi;
  if (other.repertoire) repertoire = other.repertoire;
  if (other.intent) intent = other.intent;
  if (other.real) real = other.real;
  if (other.direction) direction = other.direction;
  if (other.length) length = other.length;
  if (other.by_value) by_value = other.by_value;
  if (other.element_type) element_type = other.element_type;
  if (other.element_not_null) element_not_null = other.element_not_null;
  if (other.ordered_collection) ordered_collection = other.ordered_collection;
}

void Annotations::fill_from(const Annotations& other) {
  if (!not_null) not_null = other.not_null;
  if (!no_alias) no_alias = other.no_alias;
  if (!range_lo) range_lo = other.range_lo;
  if (!range_hi) range_hi = other.range_hi;
  if (!repertoire) repertoire = other.repertoire;
  if (!intent) intent = other.intent;
  if (!real) real = other.real;
  if (!direction) direction = other.direction;
  if (!length) length = other.length;
  if (!by_value) by_value = other.by_value;
  if (!element_type) element_type = other.element_type;
  if (!element_not_null) element_not_null = other.element_not_null;
  if (!ordered_collection) ordered_collection = other.ordered_collection;
}

const Annotations& Annotations::filled_from(const Annotations& own,
                                            Annotations& scratch) const {
  if (own.empty()) return *this;
  scratch = *this;
  scratch.fill_from(own);
  return scratch;
}

bool Annotations::empty() const {
  return !not_null && !no_alias && !range_lo && !range_hi && !repertoire &&
         !intent && !real && !direction && !length && !by_value &&
         !element_type && !element_not_null && !ordered_collection;
}

std::string Annotations::to_string() const {
  std::vector<std::string> parts;
  if (not_null) parts.push_back(*not_null ? "notnull" : "nullable");
  if (no_alias) parts.push_back(*no_alias ? "noalias" : "mayalias");
  if (range_lo || range_hi) {
    std::string r = "range ";
    r += range_lo ? mbird::to_string(*range_lo) : "?";
    r += "..";
    r += range_hi ? mbird::to_string(*range_hi) : "?";
    parts.push_back(r);
  }
  if (repertoire) parts.push_back(std::string("repertoire ") + stype::to_string(*repertoire));
  if (intent) {
    parts.push_back(*intent == ScalarIntent::Integer ? "intent integer"
                                                     : "intent character");
  }
  if (real) {
    parts.push_back("real " + std::to_string(real->mantissa_bits) + "m" +
                    std::to_string(real->exponent_bits) + "e");
  }
  if (direction) parts.push_back(std::string("dir ") + stype::to_string(*direction));
  if (length) {
    switch (length->kind) {
      case LengthSpec::Kind::Static:
        parts.push_back("length static " + std::to_string(length->static_size));
        break;
      case LengthSpec::Kind::Runtime: parts.push_back("length runtime"); break;
      case LengthSpec::Kind::ParamName:
        parts.push_back("length param " + length->name);
        break;
      case LengthSpec::Kind::FieldName:
        parts.push_back("length field " + length->name);
        break;
      case LengthSpec::Kind::NulTerminated:
        parts.push_back("length nul");
        break;
    }
  }
  if (by_value) parts.push_back(*by_value ? "byvalue" : "byref");
  if (element_type) parts.push_back("element " + *element_type);
  if (ordered_collection) parts.push_back("collection");
  return join(parts, ", ");
}

Field* Stype::find_field(const std::string& n) {
  for (auto& f : fields) {
    if (f.name == n) return &f;
  }
  return nullptr;
}

Stype* Stype::find_method(const std::string& n) {
  for (auto* m : methods) {
    if (m->name == n) return m;
  }
  return nullptr;
}

Param* Stype::find_param(const std::string& n) {
  for (auto& p : params) {
    if (p.name == n) return &p;
  }
  return nullptr;
}

Stype* Module::make(Kind kind) {
  arena_.push_back(std::make_unique<Stype>());
  Stype* s = arena_.back().get();
  s->kind = kind;
  s->lang = lang_;
  return s;
}

Stype* Module::make_prim(Prim p) {
  Stype* s = make(Kind::Prim);
  s->prim = p;
  return s;
}

Stype* Module::make_named(const std::string& target) {
  Stype* s = make(Kind::Named);
  s->name = target;
  return s;
}

void Module::declare(const std::string& name, Stype* node) {
  for (auto& [n, existing] : decls_) {
    if (n == name) {
      existing = node;  // redeclaration wins (interactive sessions reload)
      return;
    }
  }
  decls_.emplace_back(name, node);
  decl_order_.push_back(name);
}

Stype* Module::find(const std::string& name) const {
  for (const auto& [n, node] : decls_) {
    if (n == name) return node;
  }
  return nullptr;
}

Stype* Module::resolve(Stype* node, Annotations* acc) const {
  int guard = 0;
  while (node != nullptr && guard++ < 64) {
    if (node->kind == Kind::Named) {
      if (acc) acc->fill_from(node->ann);
      Stype* target = find(node->name);
      if (target == nullptr) return nullptr;
      node = target;
    } else if (node->kind == Kind::Typedef) {
      if (acc) acc->fill_from(node->ann);
      node = node->elem;
    } else {
      return node;
    }
  }
  return nullptr;  // unresolved or cyclic typedef chain
}

namespace {

void print_type_into(const Stype* node, std::ostream& os) {
  if (node == nullptr) {
    os << "void";
    return;
  }
  switch (node->kind) {
    case Kind::Prim: os << to_string(node->prim); break;
    case Kind::Named: os << node->name; break;
    case Kind::Pointer:
      print_type_into(node->elem, os);
      os << "*";
      break;
    case Kind::Reference:
      print_type_into(node->elem, os);
      os << "&";
      break;
    case Kind::Array:
      print_type_into(node->elem, os);
      os << "[";
      if (node->array_size) os << *node->array_size;
      os << "]";
      break;
    case Kind::Sequence:
      os << "sequence<";
      print_type_into(node->elem, os);
      os << ">";
      break;
    case Kind::Aggregate:
      os << to_string(node->agg_kind) << ' '
         << (node->name.empty() ? "<anon>" : node->name);
      break;
    case Kind::Enum: os << "enum " << node->name; break;
    case Kind::Function: {
      print_type_into(node->ret, os);
      os << ' ' << node->name << '(';
      for (size_t i = 0; i < node->params.size(); ++i) {
        if (i) os << ", ";
        print_type_into(node->params[i].type, os);
        if (!node->params[i].name.empty()) os << ' ' << node->params[i].name;
      }
      os << ')';
      break;
    }
    case Kind::Typedef: os << node->name; break;
  }
}

}  // namespace

std::string print_type(const Stype* node) {
  std::ostringstream os;
  print_type_into(node, os);
  return os.str();
}

std::string print_decl(const Stype* node) {
  if (node == nullptr) return "<null>";
  std::ostringstream os;
  switch (node->kind) {
    case Kind::Aggregate: {
      os << to_string(node->agg_kind) << ' ' << node->name;
      if (!node->bases.empty()) {
        os << " : ";
        for (size_t i = 0; i < node->bases.size(); ++i) {
          if (i) os << ", ";
          os << node->bases[i];
        }
      }
      os << " {\n";
      for (const auto& f : node->fields) {
        os << "  " << print_type(f.type) << ' ' << f.name << ";";
        if (!f.type->ann.empty()) os << "  // " << f.type->ann.to_string();
        os << '\n';
      }
      for (const auto* m : node->methods) {
        os << "  " << print_type(m) << ";\n";
      }
      os << "}";
      break;
    }
    case Kind::Enum: {
      os << "enum " << node->name << " {";
      for (size_t i = 0; i < node->enumerators.size(); ++i) {
        if (i) os << ", ";
        os << node->enumerators[i].name;
      }
      os << "}";
      break;
    }
    case Kind::Typedef:
      os << "typedef " << print_type(node->elem) << ' ' << node->name;
      break;
    default: print_type_into(node, os); break;
  }
  if (!node->ann.empty()) os << "  // " << node->ann.to_string();
  return os.str();
}

Stype* resolve_annotation_path(Module& module, const std::string& path,
                               DiagnosticEngine& diags) {
  auto segments = split(path, '.');
  if (segments.empty() || segments[0].empty()) {
    diags.error({}, "empty annotation path");
    return nullptr;
  }
  Stype* node = module.find(segments[0]);
  if (node == nullptr) {
    diags.error({}, "annotation path '" + path + "': unknown declaration '" +
                        segments[0] + "'");
    return nullptr;
  }
  for (size_t i = 1; i < segments.size(); ++i) {
    const std::string& seg = segments[i];
    // Descend through Named/Typedef wrappers before structural lookup,
    // except when the segment addresses the wrapper-level concepts below.
    if (seg == "element") {
      Stype* cur = node;
      // element applies to the nearest Pointer/Reference/Array/Sequence.
      while (cur != nullptr &&
             (cur->kind == Kind::Named || cur->kind == Kind::Typedef)) {
        cur = cur->kind == Kind::Named ? module.find(cur->name) : cur->elem;
      }
      if (cur != nullptr && (cur->kind == Kind::Pointer ||
                             cur->kind == Kind::Reference ||
                             cur->kind == Kind::Array ||
                             cur->kind == Kind::Sequence)) {
        node = cur->elem;
        continue;
      }
      diags.error({}, "annotation path '" + path + "': '" + seg +
                          "' applies only to pointers/arrays/sequences");
      return nullptr;
    }

    Stype* decl = module.resolve(node);
    if (decl == nullptr) {
      diags.error({}, "annotation path '" + path + "': cannot resolve '" +
                          segments[i - 1] + "'");
      return nullptr;
    }
    if (decl->kind == Kind::Function) {
      if (seg == "return") {
        if (decl->ret == nullptr) {
          diags.error({}, "annotation path '" + path + "': function returns void");
          return nullptr;
        }
        node = decl->ret;
        continue;
      }
      if (Param* p = decl->find_param(seg)) {
        node = p->type;
        continue;
      }
      diags.error({}, "annotation path '" + path + "': no parameter '" + seg +
                          "' in function '" + decl->name + "'");
      return nullptr;
    }
    if (decl->kind == Kind::Aggregate) {
      if (Field* f = decl->find_field(seg)) {
        node = f->type;
        continue;
      }
      if (Stype* m = decl->find_method(seg)) {
        node = m;
        continue;
      }
      diags.error({}, "annotation path '" + path + "': no member '" + seg +
                          "' in " + decl->name);
      return nullptr;
    }
    diags.error({}, "annotation path '" + path + "': cannot descend into " +
                        std::string(to_string(decl->kind)));
    return nullptr;
  }
  return node;
}

}  // namespace mbird::stype
