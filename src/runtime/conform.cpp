#include "runtime/conform.hpp"

#include "support/rng.hpp"

namespace mbird::runtime {

using mtype::Graph;
using mtype::MKind;
using mtype::Ref;

namespace {

std::string check(const Graph& g, Ref ref, const Value& v, int depth) {
  if (depth > 10000) return "conformance recursion limit";
  ref = mtype::skip_var(g, ref);
  const auto& n = g.at(ref);

  switch (n.kind) {
    case MKind::Unit:
      return v.is(Value::Kind::Unit) ? "" : "expected unit, got " + v.to_string();
    case MKind::Int: {
      if (!v.is(Value::Kind::Int)) return "expected integer, got " + v.to_string();
      if (v.as_int() < n.lo || v.as_int() > n.hi) {
        return "integer " + to_string(v.as_int()) + " outside [" +
               to_string(n.lo) + ".." + to_string(n.hi) + "]";
      }
      return "";
    }
    case MKind::Real:
      return v.is(Value::Kind::Real) ? "" : "expected real, got " + v.to_string();
    case MKind::Char:
      return v.is(Value::Kind::Char) ? "" : "expected char, got " + v.to_string();
    case MKind::Port:
      return v.is(Value::Kind::Port) ? "" : "expected port, got " + v.to_string();
    case MKind::Record: {
      if (!v.is(Value::Kind::Record)) {
        return "expected record, got " + v.to_string();
      }
      if (v.size() != n.children.size()) {
        return "record arity " + std::to_string(v.size()) + " != " +
               std::to_string(n.children.size());
      }
      for (size_t i = 0; i < n.children.size(); ++i) {
        std::string e = check(g, n.children[i], v.at(i), depth + 1);
        if (!e.empty()) return "child " + std::to_string(i) + ": " + e;
      }
      return "";
    }
    case MKind::Choice: {
      if (v.is(Value::Kind::List)) {
        // Lists are accepted where the choice is a list body; re-encode.
        return check(g, ref, Value::chain_from_list(*v.as_list(), 0, 1), depth + 1);
      }
      if (!v.is(Value::Kind::Choice)) {
        return "expected choice, got " + v.to_string();
      }
      if (v.arm() >= n.children.size()) {
        return "choice arm " + std::to_string(v.arm()) + " out of range";
      }
      std::string e = check(g, n.children[v.arm()], v.inner(), depth + 1);
      if (!e.empty()) return "arm " + std::to_string(v.arm()) + ": " + e;
      return "";
    }
    case MKind::Rec: {
      if (v.is(Value::Kind::List)) {
        auto elems = mtype::match_list_shape(g, ref);
        if (!elems || elems->size() != 1) {
          return "list value for a non-list recursive type";
        }
        for (size_t i = 0; i < v.size(); ++i) {
          std::string e = check(g, (*elems)[0], v.at(i), depth + 1);
          if (!e.empty()) return "element " + std::to_string(i) + ": " + e;
        }
        return "";
      }
      if (n.body() == mtype::kNullRef) return "unsealed recursive type";
      return check(g, n.body(), v, depth + 1);
    }
    case MKind::Var: return "unreachable (vars skipped)";
  }
  return "unknown mtype kind";
}

}  // namespace

std::string conform_error(const Graph& g, Ref ref, const Value& v) {
  return check(g, ref, v, 0);
}

namespace {

Value gen(const Graph& g, Ref ref, Rng& rng, int fuel) {
  ref = mtype::skip_var(g, ref);
  const auto& n = g.at(ref);
  switch (n.kind) {
    case MKind::Unit: return Value::unit();
    case MKind::Int: {
      // Sample within range; avoid overflow by clamping span.
      Int128 span = n.hi - n.lo;
      if (span < 0 || span > 1'000'000'000) span = 1'000'000'000;
      return Value::integer(n.lo + static_cast<Int128>(rng.below(
                                       static_cast<uint64_t>(span) + 1)));
    }
    case MKind::Real:
      return Value::real(static_cast<double>(rng.range(-1000, 1000)) / 8.0);
    case MKind::Char: return Value::character(static_cast<uint32_t>(rng.range(32, 126)));
    case MKind::Port: return Value::port(rng.below(1000));
    case MKind::Record: {
      std::vector<Value> kids;
      kids.reserve(n.children.size());
      for (Ref c : n.children) kids.push_back(gen(g, c, rng, fuel));
      return Value::record(std::move(kids));
    }
    case MKind::Choice: {
      // With low fuel, bias toward the structurally smallest arm (first
      // Unit if any) so recursive values terminate.
      uint32_t arm;
      if (fuel <= 0) {
        arm = 0;
        for (uint32_t i = 0; i < n.children.size(); ++i) {
          if (g.at(mtype::skip_var(g, n.children[i])).kind == MKind::Unit) {
            arm = i;
            break;
          }
        }
      } else {
        arm = static_cast<uint32_t>(rng.below(n.children.size()));
      }
      return Value::choice(arm, gen(g, n.children[arm], rng, fuel - 1));
    }
    case MKind::Rec: {
      auto elems = mtype::match_list_shape(g, ref);
      if (elems && elems->size() == 1) {
        size_t len = rng.below(static_cast<uint64_t>(fuel > 0 ? fuel + 2 : 1));
        std::vector<Value> out;
        for (size_t i = 0; i < len; ++i) {
          out.push_back(gen(g, (*elems)[0], rng, fuel - 1));
        }
        return Value::list(std::move(out));
      }
      return gen(g, n.body(), rng, fuel - 1);
    }
    case MKind::Var: break;
  }
  return Value::unit();
}

}  // namespace

Value random_value(const Graph& g, Ref ref, uint64_t seed, int fuel) {
  Rng rng(seed);
  return gen(g, ref, rng, fuel);
}

}  // namespace mbird::runtime
