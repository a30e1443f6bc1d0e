#include "runtime/value.hpp"

#include <cstring>
#include <new>
#include <sstream>

#include "support/error.hpp"

namespace mbird::runtime {

Value::Run::Run(std::string_view bytes) {
  void* block = ::operator new(sizeof(Rep) + bytes.size());
  rep_ = new (block) Rep{{1}, bytes.size()};
  if (!bytes.empty()) {
    std::memcpy(static_cast<char*>(block) + sizeof(Rep), bytes.data(), bytes.size());
  }
}

void Value::Run::release() noexcept {
  if (rep_->refs.fetch_sub(1) == 1) {
    rep_->~Rep();
    ::operator delete(rep_);
  }
}

const Value& Value::char_value(unsigned char c) {
  // Built once and never destroyed, so at() on a packed list can return
  // references that outlive the list.
  static const Value* const table = [] {
    auto* t = new Value[256];
    for (unsigned i = 0; i < 256; ++i) t[i] = character(i);
    return t;
  }();
  return table[c];
}

void Value::throw_packed_children() {
  throw ConversionError(
      "a packed list has no element vector (use as_list() or at())");
}

Value Value::string(std::string_view s) {
  Value x;
  x.kind_ = Kind::List;
  x.run_ = Run(s);
  return x;
}

Int128 Value::as_int() const {
  if (kind_ != Kind::Int) throw ConversionError("value is not an integer: " + to_string());
  return int_;
}

double Value::as_real() const {
  if (kind_ != Kind::Real) throw ConversionError("value is not a real: " + to_string());
  return std::bit_cast<double>(static_cast<uint64_t>(int_));
}

uint32_t Value::as_char() const {
  if (kind_ != Kind::Char) throw ConversionError("value is not a character: " + to_string());
  return static_cast<uint32_t>(int_);
}

uint64_t Value::as_port() const {
  if (kind_ != Kind::Port) throw ConversionError("value is not a port: " + to_string());
  return static_cast<uint64_t>(int_);
}

uint32_t Value::arm() const {
  if (kind_ != Kind::Choice) throw ConversionError("value is not a choice: " + to_string());
  return arm_;
}

const Value& Value::inner() const {
  if (kind_ != Kind::Choice || kids_.empty()) {
    throw ConversionError("value is not a choice: " + to_string());
  }
  return kids_[0];
}

const Value& Value::at(size_t i) const {
  if (i < kids_.size()) return kids_[i];
  if (run_ && i < run_.size()) {
    return char_value(static_cast<unsigned char>(run_.data()[i]));
  }
  throw ConversionError("child index " + std::to_string(i) +
                        " out of range in " + to_string());
}

std::optional<std::vector<Value>> Value::as_list() const {
  if (kind_ == Kind::List) {
    if (!run_) return kids_;
    std::vector<Value> out;
    out.reserve(run_.size());
    for (size_t i = 0; i < run_.size(); ++i) {
      out.push_back(character(static_cast<unsigned char>(run_.data()[i])));
    }
    return out;
  }
  // Accept a nil/cons chain.
  std::vector<Value> out;
  const Value* cur = this;
  for (;;) {
    if (cur->kind_ != Kind::Choice || cur->kids_.empty()) return std::nullopt;
    const Value& in = cur->kids_[0];
    if (in.kind_ == Kind::Unit) return out;  // nil
    if (in.kind_ != Kind::Record || in.kids_.size() < 2) return std::nullopt;
    // cons: all but the last child are the element (usually one).
    if (in.kids_.size() == 2) {
      out.push_back(in.kids_[0]);
    } else {
      out.push_back(Value::record(std::vector<Value>(in.kids_.begin(),
                                                     in.kids_.end() - 1)));
    }
    cur = &in.kids_.back();
  }
}

Value Value::chain_from_list(std::vector<Value>&& elems, uint32_t nil_arm,
                             uint32_t cons_arm) {
  // Build each cons cell explicitly: an initializer list would copy the
  // accumulated chain on every step, turning construction quadratic.
  Value chain = choice(nil_arm, unit());
  for (auto it = elems.rbegin(); it != elems.rend(); ++it) {
    std::vector<Value> cell;
    cell.reserve(2);
    cell.push_back(std::move(*it));
    cell.push_back(std::move(chain));
    chain = choice(cons_arm, record(std::move(cell)));
  }
  return chain;
}

std::string Value::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::Unit: os << "unit"; break;
    case Kind::Int: os << mbird::to_string(int_); break;
    case Kind::Real: os << as_real(); break;
    case Kind::Char: {
      uint32_t cp = static_cast<uint32_t>(int_);
      if (cp >= 0x20 && cp < 0x7f) {
        os << '\'' << static_cast<char>(cp) << '\'';
      } else {
        os << "'\\u" << cp << '\'';
      }
      break;
    }
    case Kind::Record: {
      os << '(';
      for (size_t i = 0; i < kids_.size(); ++i) {
        if (i) os << ", ";
        os << kids_[i].to_string();
      }
      os << ')';
      break;
    }
    case Kind::Choice:
      os << '#' << arm_ << ':' << (kids_.empty() ? "?" : kids_[0].to_string());
      break;
    case Kind::List: {
      os << '[';
      for (size_t i = 0; i < size(); ++i) {
        if (i) os << ", ";
        os << at(i).to_string();
      }
      os << ']';
      break;
    }
    case Kind::Port: os << "port@" << static_cast<uint64_t>(int_); break;
  }
  return os.str();
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::Unit: return true;
    case Value::Kind::Int:
    case Value::Kind::Char:
    case Value::Kind::Port: return a.int_ == b.int_;
    case Value::Kind::Real: return a.as_real() == b.as_real();
    case Value::Kind::List:
      if (a.run_ && b.run_) return a.packed_chars() == b.packed_chars();
      if (a.run_ || b.run_) {
        // One side packed: equal when the other holds the same Chars.
        if (a.size() != b.size()) return false;
        for (size_t i = 0; i < a.size(); ++i) {
          if (!(a.at(i) == b.at(i))) return false;
        }
        return true;
      }
      return a.kids_ == b.kids_;
    case Value::Kind::Choice:
      if (a.arm_ != b.arm_) return false;
      [[fallthrough]];
    case Value::Kind::Record: return a.kids_ == b.kids_;
  }
  return false;
}

}  // namespace mbird::runtime
