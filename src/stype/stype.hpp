// Stype: the language-neutral declaration AST (paper §4).
//
// Every frontend (C/C++, CORBA IDL, Java source, Java class files) parses
// declarations into Stypes. An Stype records the *syntactic* type structure
// plus all annotations — both language defaults and those applied explicitly
// by the programmer (interactively through the `mbird` CLI or in batch via
// annotation scripts). The lower/ module translates annotated Stypes into
// Mtypes.
//
// Ownership: all nodes live in a Module arena. Nodes are mutable because
// annotation happens after parsing. Named uses of a type are distinct
// `Named` wrapper nodes so that annotations can be attached either to a
// declaration (affecting every use) or to one particular use.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/diag.hpp"
#include "support/wide_int.hpp"

namespace mbird::stype {

enum class Lang : uint8_t { C, Cpp, Java, Idl };
[[nodiscard]] const char* to_string(Lang l);

enum class Kind : uint8_t {
  Prim,       // a built-in scalar type
  Named,      // a use of a declared type, by name
  Pointer,    // C/C++ pointer
  Reference,  // Java object reference / C++ reference / IDL interface ref
  Array,      // [n] if size set, indefinite otherwise
  Sequence,   // IDL sequence<T>; Java collections annotated as sequences
  Aggregate,  // struct/class/interface/union
  Enum,
  Function,  // free function, method, or IDL operation
  Typedef,
};
[[nodiscard]] const char* to_string(Kind k);

enum class Prim : uint8_t {
  Void,
  Bool,
  Char8,   // C char (by convention a character; annotation can flip intent)
  Char16,  // Java char / C wchar_t (as on our reference platform) / IDL wchar
  I8,
  U8,
  I16,
  U16,
  I32,
  U32,
  I64,
  U64,
  F32,
  F64,
};
[[nodiscard]] const char* to_string(Prim p);

enum class AggKind : uint8_t { Struct, Class, Interface, Union };
[[nodiscard]] const char* to_string(AggKind k);

enum class Direction : uint8_t { In, Out, InOut };
[[nodiscard]] const char* to_string(Direction d);

/// Character repertoires for the Character Mtype family (paper §3.1).
enum class Repertoire : uint8_t { Ascii, Latin1, Ucs2, Unicode };
[[nodiscard]] const char* to_string(Repertoire r);

/// How the length of an indefinite array is discovered at runtime.
struct LengthSpec {
  enum class Kind : uint8_t {
    Static,         // annotation supplies a fixed size -> Record Mtype
    Runtime,        // carried by the representation itself (Java arrays/Vectors)
    ParamName,      // a sibling parameter holds the element count (C idiom)
    FieldName,      // a sibling field holds the element count
    NulTerminated,  // C string idiom: scan for a zero element
  };
  Kind kind = Kind::Runtime;
  uint64_t static_size = 0;
  std::string name;  // for ParamName / FieldName

  friend bool operator==(const LengthSpec&, const LengthSpec&) = default;
};

/// Floating point shape override.
struct RealSpec {
  uint16_t mantissa_bits = 24;
  uint16_t exponent_bits = 8;
  friend bool operator==(const RealSpec&, const RealSpec&) = default;
};

/// Integer/character intent: languages allow integral types to hold either
/// integers or characters (paper §3.1); annotations settle the question.
enum class ScalarIntent : uint8_t { Integer, Character };

/// The annotation record. Fields left unset mean "use the language default".
/// merge() lets a script layer explicit annotations over defaults.
struct Annotations {
  std::optional<bool> not_null;       // pointer/reference never null
  std::optional<bool> no_alias;       // field never aliases another
  std::optional<Int128> range_lo;     // integer range override
  std::optional<Int128> range_hi;
  std::optional<Repertoire> repertoire;
  std::optional<ScalarIntent> intent;
  std::optional<RealSpec> real;
  std::optional<Direction> direction;  // parameter direction
  std::optional<LengthSpec> length;    // array/sequence length discovery
  std::optional<bool> by_value;        // pass aggregate by value (vs reference)
  std::optional<std::string> element_type;  // collection element override
  std::optional<bool> element_not_null;     // collection elements never null
  std::optional<bool> ordered_collection;   // treat class as indefinite seq

  /// Overlay `other` on top of *this (set fields in `other` win).
  void merge(const Annotations& other);
  /// Fill unset fields of *this from `other` (set fields in *this win).
  /// Used when accumulating from a use-site outward: the outermost
  /// annotation — closest to the programmer's intent at this use — wins.
  void fill_from(const Annotations& other);
  /// *this with its unset fields filled from `own`, a node's own
  /// annotations under a use site's. When `own` sets nothing that is *this
  /// itself, uncopied; otherwise the result is built in `scratch`.
  [[nodiscard]] const Annotations& filled_from(const Annotations& own,
                                               Annotations& scratch) const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::string to_string() const;
};

struct Stype;

struct Field {
  std::string name;
  Stype* type = nullptr;
  SourceLoc loc;
  bool is_static = false;
  bool is_private = false;
};

struct Param {
  std::string name;
  Stype* type = nullptr;
  SourceLoc loc;
};

struct Enumerator {
  std::string name;
  Int128 value = 0;
};

/// One declaration-AST node. A deliberately "fat" tagged struct: simple to
/// allocate from an arena, simple to print, and every consumer switches on
/// `kind` anyway.
struct Stype {
  Kind kind = Kind::Prim;
  Lang lang = Lang::C;
  SourceLoc loc;
  Annotations ann;

  // Kind::Prim
  Prim prim = Prim::Void;

  // Name of the entity: declared name for Aggregate/Enum/Function/Typedef,
  // referenced name for Named.
  std::string name;

  // Element / pointee / aliased type for Pointer, Reference, Array,
  // Sequence, Typedef.
  Stype* elem = nullptr;
  std::optional<uint64_t> array_size;  // Kind::Array with a declared size

  // Kind::Aggregate
  AggKind agg_kind = AggKind::Struct;
  std::vector<Field> fields;
  std::vector<Stype*> methods;  // Kind::Function nodes
  std::vector<std::string> bases;

  // Kind::Enum
  std::vector<Enumerator> enumerators;

  // Kind::Function
  Stype* ret = nullptr;  // nullptr means void
  std::vector<Param> params;
  // Declared exceptions (IDL `raises(...)`, Java `throws ...`), by name.
  // Lowering folds them into the reply type: Choice(normal, exc1, ...).
  std::vector<std::string> throws_list;

  [[nodiscard]] Field* find_field(const std::string& n);
  [[nodiscard]] Stype* find_method(const std::string& n);
  [[nodiscard]] Param* find_param(const std::string& n);
};

/// A set of declarations parsed from one side of an interface, plus the
/// arena that owns every node. This is the "list of types loaded into the
/// system" of the paper's Fig. 7 left panel.
class Module {
 public:
  Module(Lang lang, std::string name) : lang_(lang), name_(std::move(name)) {}

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  [[nodiscard]] Lang lang() const { return lang_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Allocate a node owned by this module.
  Stype* make(Kind kind);
  Stype* make_prim(Prim p);
  Stype* make_named(const std::string& target);

  /// Register a top-level declaration under its name.
  void declare(const std::string& name, Stype* node);
  [[nodiscard]] Stype* find(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& decl_order() const {
    return decl_order_;
  }
  [[nodiscard]] size_t decl_count() const { return decl_order_.size(); }

  /// Resolve Named and Typedef chains to the underlying declaration.
  /// Annotations encountered on the wrappers along the way are accumulated
  /// into `*acc` (if non-null) with fill_from semantics — outermost wins —
  /// so per-use annotations override per-declaration defaults. Returns
  /// nullptr for unknown names.
  [[nodiscard]] Stype* resolve(Stype* node, Annotations* acc = nullptr) const;

 private:
  Lang lang_;
  std::string name_;
  std::vector<std::unique_ptr<Stype>> arena_;
  std::vector<std::string> decl_order_;
  std::vector<std::pair<std::string, Stype*>> decls_;  // linear: small N
};

/// Pretty-print one declaration (or type use) in a language-neutral syntax;
/// used by diagnostics, the CLI `show` command, and project files.
[[nodiscard]] std::string print_type(const Stype* node);
[[nodiscard]] std::string print_decl(const Stype* node);

/// Resolve a dotted annotation path (e.g. "Line.start", "fitter.pts",
/// "fitter.return", "PointVector.element") to the node whose annotations it
/// addresses. Suffix segments: a field, a parameter, a method, `return`,
/// `element` (descends Pointer/Reference/Array/Sequence element). Returns
/// nullptr and reports through `diags` when the path does not resolve.
Stype* resolve_annotation_path(Module& module, const std::string& path,
                               DiagnosticEngine& diags);

}  // namespace mbird::stype
