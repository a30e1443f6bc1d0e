// Generic runtime values, shaped like Mtypes.
//
// Stubs convert between concrete representations (native C memory images,
// Java-like object heaps, wire bytes) through this common value form. A
// Value mirrors the structural shape of its Mtype:
//   Int / Real / Char / Unit  — scalars
//   Record                    — ordered children
//   Choice                    — active arm index + inner value
//   List                      — canonical encoding of recursive list data
//   Port                      — an endpoint id in the rpc layer
//
// Recursive non-list data (e.g. a linked-list object graph read field by
// field) may also appear as a nested Choice/Record chain; as_list() accepts
// both encodings.
//
// A List comes in two forms. The element form holds one Value per element
// (Value::list). The packed form holds a list of Chars that all fit in 8
// bits as one immutable, reference-counted byte run: Value::string and the
// wire decoder of 1-byte-repertoire char lists build it, and copying a
// packed list shares the run instead of copying bytes. Both forms answer
// kind(), size(), at(), as_list(), to_string() and operator== alike; at(i)
// on a packed list returns a reference to one of 256 immortal Char values,
// and a packed list equals the element-form list of the same characters.
// children() has no element vector to return for a packed list and throws
// ConversionError, so code that walks elements goes through as_list() or
// at(i), or reads the bytes with packed_chars().
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/wide_int.hpp"

namespace mbird::runtime {

class Value {
 public:
  enum class Kind : uint8_t { Unit, Int, Real, Char, Record, Choice, List, Port };

  Value() = default;

  static Value unit() { return Value(); }
  static Value integer(Int128 v) {
    Value x;
    x.kind_ = Kind::Int;
    x.int_ = v;
    return x;
  }
  static Value boolean(bool b) { return integer(b ? 1 : 0); }
  static Value real(double v) {
    Value x;
    x.kind_ = Kind::Real;
    x.int_ = std::bit_cast<uint64_t>(v);
    return x;
  }
  static Value character(uint32_t codepoint) {
    Value x;
    x.kind_ = Kind::Char;
    x.int_ = codepoint;
    return x;
  }
  static Value record(std::vector<Value> children) {
    Value x;
    x.kind_ = Kind::Record;
    x.kids_ = std::move(children);
    return x;
  }
  static Value choice(uint32_t arm, Value inner) {
    Value x;
    x.kind_ = Kind::Choice;
    x.arm_ = arm;
    x.kids_.push_back(std::move(inner));
    return x;
  }
  /// An element-form List.
  static Value list(std::vector<Value> elements) {
    Value x;
    x.kind_ = Kind::List;
    x.kids_ = std::move(elements);
    return x;
  }
  static Value port(uint64_t endpoint_id) {
    Value x;
    x.kind_ = Kind::Port;
    x.int_ = static_cast<Int128>(endpoint_id);
    return x;
  }
  /// Convenience for strings: a packed List of Char values, one per byte.
  static Value string(std::string_view s);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is(Kind k) const { return kind_ == k; }

  [[nodiscard]] Int128 as_int() const;
  [[nodiscard]] double as_real() const;
  [[nodiscard]] uint32_t as_char() const;
  [[nodiscard]] uint64_t as_port() const;
  [[nodiscard]] uint32_t arm() const;
  /// Choice inner value.
  [[nodiscard]] const Value& inner() const;
  /// Record children or element-form List elements. Throws
  /// ConversionError on a packed List.
  [[nodiscard]] const std::vector<Value>& children() const {
    if (run_) [[unlikely]] throw_packed_children();
    return kids_;
  }
  [[nodiscard]] size_t size() const {
    size_t n = kids_.size();
    if (n == 0 && run_) [[unlikely]] n = run_.size();
    return n;
  }
  [[nodiscard]] const Value& at(size_t i) const;

  /// The characters of a packed List, one byte each; nullopt for every
  /// other value, element-form Lists included.
  [[nodiscard]] std::optional<std::string_view> packed_chars() const {
    if (!run_) return std::nullopt;
    return std::string_view(run_.data(), run_.size());
  }

  /// View this value as a sequence of elements: accepts both the List
  /// encoding (either form; a packed List expands to Char elements) and a
  /// nil/cons Choice chain (Choice(nil=unit) terminated, cons =
  /// Record(elem, tail)). Returns nullopt for other shapes.
  [[nodiscard]] std::optional<std::vector<Value>> as_list() const;

  /// Inverse of the chain acceptance: encode a List as a nil/cons chain
  /// with the given arm indices. Consumes `elems` so the elements are
  /// spliced into the chain without per-element copies.
  [[nodiscard]] static Value chain_from_list(std::vector<Value>&& elems,
                                             uint32_t nil_arm, uint32_t cons_arm);

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Value& a, const Value& b);

 private:
  /// The packed form's storage: one allocation holding a reference count,
  /// the length and the bytes, never written after it is built. Copies
  /// share it and the last owner frees it; an empty Run (every value that
  /// is not a packed List) costs one null pointer to copy, move or destroy.
  /// It is not a std::shared_ptr<const char[]>: that two-word handle made
  /// BM_DecodeStroke, which decodes no chars, measurably slower.
  class Run {
   public:
    Run() = default;
    explicit Run(std::string_view bytes);
    Run(const Run& o) noexcept : rep_(o.rep_) {
      if (rep_) rep_->refs.fetch_add(1);
    }
    Run(Run&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
    Run& operator=(Run o) noexcept {
      std::swap(rep_, o.rep_);
      return *this;
    }
    ~Run() {
      if (rep_) release();
    }
    explicit operator bool() const { return rep_ != nullptr; }
    [[nodiscard]] size_t size() const { return rep_->len; }
    [[nodiscard]] const char* data() const {
      return reinterpret_cast<const char*>(rep_) + sizeof(Rep);
    }

   private:
    struct Rep {
      std::atomic<size_t> refs;
      size_t len;
      // len bytes follow
    };
    void release() noexcept;
    Rep* rep_ = nullptr;
  };

  /// The immortal Char value for code point `c`.
  static const Value& char_value(unsigned char c);
  [[noreturn]] static void throw_packed_children();

  Kind kind_ = Kind::Unit;
  uint32_t arm_ = 0;
  Run run_;
  // Int, Char and Port keep their value in int_ and Real its IEEE bit
  // pattern, so run_ fits in the space a separate double took.
  Int128 int_ = 0;
  std::vector<Value> kids_;
};

static_assert(sizeof(Value) <= 80, "a packed List must not grow every Value");

}  // namespace mbird::runtime
