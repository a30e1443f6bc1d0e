// Differential suite: the PlanIR engine (runtime::ThreadedEngine) against
// the tree-walking Converter oracle.
//
// For randomized Mtype pairs — records, nested choices, ListMap chains,
// canonical lists, and general recursive types (whose plans the comparer
// ties with Alias knots the IR must resolve) — every value must produce
// either identical results or identical typed errors from both executors.
// Values come in two flavors per seed: conforming (happy path) and values
// generated for an unrelated type (every error path).
//
// The engine's Value-marshal mode — the fused marshal program, the path a
// proxy forwarding to a remote port runs — is held to the same standard:
// its bytes must equal wire::encode applied to the oracle's output. One
// engine serves all of a seed's values, so the choice inline caches see
// repeats and arm changes. One documented
// asymmetry: fusion interleaves conversion and encoding, so when a value
// contains BOTH a later conversion error and an earlier wire-only error
// (e.g. a >0xff code point headed for a narrow char), the fused program
// reports the wire error first while convert-then-encode reports the
// conversion error. The test accepts exactly that divergence and no other.
#include <gtest/gtest.h>

#include <map>

#include "compare/compare.hpp"
#include "planir/planir.hpp"
#include "runtime/conform.hpp"
#include "runtime/convert.hpp"
#include "runtime/threaded.hpp"
#include "support/rng.hpp"
#include "wire/wire.hpp"

namespace mbird {
namespace {

using mtype::Graph;
using mtype::MKind;
using mtype::Ref;
using runtime::Value;

/// Random Mtypes weighted toward the shapes the engine dispatches on:
/// records, nested choices (multi-level tries), canonical lists, and
/// occasionally general (non-list) recursion.
Ref random_type(Graph& g, Rng& rng, int depth) {
  int pick = depth <= 0 ? static_cast<int>(rng.below(4))
                        : static_cast<int>(rng.below(10));
  switch (pick) {
    case 0: {
      Int128 lo = rng.range(-1000, 0);
      Int128 hi = lo + rng.range(0, 2000);
      return g.integer(lo, hi);
    }
    case 1: return g.real(rng.chance(0.5) ? 24 : 53, rng.chance(0.5) ? 8 : 11);
    case 2:
      return g.character(rng.chance(0.5) ? stype::Repertoire::Latin1
                                         : stype::Repertoire::Unicode);
    case 3: return g.unit();
    case 4:
    case 5: {  // record
      size_t n = 1 + rng.below(4);
      std::vector<Ref> kids;
      for (size_t i = 0; i < n; ++i) kids.push_back(random_type(g, rng, depth - 1));
      return g.record(std::move(kids));
    }
    case 6:
    case 7: {  // choice
      size_t n = 2 + rng.below(4);
      std::vector<Ref> kids;
      for (size_t i = 0; i < n; ++i) kids.push_back(random_type(g, rng, depth - 1));
      return g.choice(std::move(kids));
    }
    case 8: return g.list_of(random_type(g, rng, depth - 1));
    default: {
      // General recursion that is NOT list-shaped (the back-reference is
      // not the last cons field), so the comparer must tie a real knot.
      Ref rec = g.rec_placeholder();
      Ref elem = random_type(g, rng, depth - 1);
      g.seal_rec(rec, g.choice({g.unit(), g.record({g.var(rec), elem})}));
      return rec;
    }
  }
}

/// Clones `r` into `out`, shuffling record/choice children and randomly
/// re-associating records (the paper's §4 isomorphisms), preserving
/// recursive structure through the placeholder map.
Ref clone_iso(const Graph& g, Ref r, Graph& out, Rng& rng,
              std::map<Ref, Ref>& recs) {
  const auto& n = g.at(r);
  switch (n.kind) {
    case MKind::Int: return out.integer(n.lo, n.hi);
    case MKind::Real: return out.real(n.mantissa_bits, n.exponent_bits);
    case MKind::Char: return out.character(n.repertoire);
    case MKind::Unit: return out.unit();
    case MKind::Port: return out.port(clone_iso(g, n.body(), out, rng, recs));
    case MKind::Rec: {
      auto elems = mtype::match_list_shape(g, r);
      if (elems && elems->size() == 1) {
        return out.list_of(clone_iso(g, (*elems)[0], out, rng, recs));
      }
      Ref ph = out.rec_placeholder();
      recs[r] = ph;
      out.seal_rec(ph, clone_iso(g, n.body(), out, rng, recs));
      return ph;
    }
    case MKind::Var: {
      auto it = recs.find(n.var_target);
      return it != recs.end() ? out.var(it->second) : out.unit();
    }
    case MKind::Record: {
      std::vector<Ref> kids;
      for (Ref c : n.children) kids.push_back(clone_iso(g, c, out, rng, recs));
      for (size_t i = kids.size(); i > 1; --i) {
        std::swap(kids[i - 1], kids[rng.below(i)]);
      }
      if (kids.size() >= 3 && rng.chance(0.5)) {
        size_t start = rng.below(kids.size() - 1);
        size_t len = 2 + rng.below(kids.size() - start - 1);
        std::vector<Ref> inner(kids.begin() + static_cast<long>(start),
                               kids.begin() + static_cast<long>(start + len));
        Ref nested = out.record(std::move(inner));
        kids.erase(kids.begin() + static_cast<long>(start),
                   kids.begin() + static_cast<long>(start + len));
        kids.insert(kids.begin() + static_cast<long>(start), nested);
      }
      return out.record(std::move(kids));
    }
    case MKind::Choice: {
      std::vector<Ref> kids;
      for (Ref c : n.children) kids.push_back(clone_iso(g, c, out, rng, recs));
      for (size_t i = kids.size(); i > 1; --i) {
        std::swap(kids[i - 1], kids[rng.below(i)]);
      }
      return out.choice(std::move(kids));
    }
  }
  return out.unit();
}

struct Outcome {
  bool ok = false;
  Value val;
  std::string error;
};

template <typename F>
Outcome run(F&& f) {
  Outcome o;
  try {
    o.val = f();
    o.ok = true;
  } catch (const MbError& e) {
    o.error = e.what();
  }
  return o;
}

/// One matched pair (type pair, verified programs, oracle) per seed.
struct Case {
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
};

Case make_case(uint64_t seed) {
  Case c;
  Rng rng(seed);
  c.a = random_type(c.ga, rng, 4);
  std::map<Ref, Ref> recs;
  c.b = clone_iso(c.ga, c.a, c.gb, rng, recs);
  auto res = compare::compare(c.ga, c.a, c.gb, c.b, {});
  EXPECT_TRUE(res.ok) << "seed " << seed << "\n  left:  "
                      << mtype::print(c.ga, c.a) << "\n  right: "
                      << mtype::print(c.gb, c.b) << "\n"
                      << res.mismatch.to_string();
  c.plan = std::move(res.plan);
  c.root = res.root;
  return c;
}

class Differential : public testing::TestWithParam<uint64_t> {};

TEST_P(Differential, EngineMatchesTreeOracle) {
  Case c = make_case(GetParam());
  if (c.root == plan::kNullPlan) GTEST_SKIP();

  planir::Program prog = planir::compile(c.plan, c.root);
  auto issues = planir::verify(prog);
  ASSERT_TRUE(issues.empty()) << issues[0].to_string();
  auto path_issues = planir::verify_paths(prog, c.ga, c.a);
  ASSERT_TRUE(path_issues.empty()) << path_issues[0].to_string();

  runtime::Converter oracle(c.plan);
  runtime::ThreadedEngine engine(prog);

  // Conforming values: identical results (or identical typed errors — a
  // conforming value can still trip, e.g., nothing; but keep the check).
  for (uint64_t vs = 0; vs < 48; ++vs) {
    Value v = runtime::random_value(c.ga, c.a, GetParam() * 1009 + vs);
    Outcome t = run([&] { return oracle.apply(c.root, v); });
    Outcome m = run([&] { return engine.apply(v); });
    ASSERT_EQ(t.ok, m.ok) << "seed " << GetParam() << " value " << v.to_string()
                          << "\n  tree: " << (t.ok ? t.val.to_string() : t.error)
                          << "\n  engine: "
                          << (m.ok ? m.val.to_string() : m.error);
    if (t.ok) {
      EXPECT_EQ(t.val, m.val) << "seed " << GetParam() << " value "
                              << v.to_string();
    } else {
      EXPECT_EQ(t.error, m.error) << "seed " << GetParam();
    }
  }

  // Foreign values (generated for an unrelated type): both executors must
  // take the same error path with the same message, or agree the value
  // happens to convert.
  Graph gm;
  Rng mrng(GetParam() + 7777);
  Ref mutant = random_type(gm, mrng, 3);
  for (uint64_t vs = 0; vs < 16; ++vs) {
    Value v = runtime::random_value(gm, mutant, GetParam() * 31 + vs);
    Outcome t = run([&] { return oracle.apply(c.root, v); });
    Outcome m = run([&] { return engine.apply(v); });
    ASSERT_EQ(t.ok, m.ok) << "seed " << GetParam() << " mutant "
                          << v.to_string() << "\n  tree: "
                          << (t.ok ? t.val.to_string() : t.error)
                          << "\n  engine: "
                          << (m.ok ? m.val.to_string() : m.error);
    if (t.ok) {
      EXPECT_EQ(t.val, m.val);
    } else {
      EXPECT_EQ(t.error, m.error) << "seed " << GetParam();
    }
  }
}

TEST_P(Differential, FusedMarshalMatchesConvertThenEncode) {
  Case c = make_case(GetParam());
  if (c.root == plan::kNullPlan) GTEST_SKIP();

  planir::Program mp = planir::compile_marshal(c.plan, c.root, c.gb, c.b);
  auto issues = planir::verify(mp);
  ASSERT_TRUE(issues.empty()) << issues[0].to_string();

  runtime::Converter oracle(c.plan);
  runtime::ThreadedEngine engine(mp);

  auto check = [&](const Value& v) {
    std::vector<uint8_t> fused, unfused;
    std::string ferr, uerr;
    bool fused_wire = false;
    try {
      fused = engine.marshal(v);
    } catch (const WireError& e) {
      ferr = e.what();
      fused_wire = true;
    } catch (const MbError& e) {
      ferr = e.what();
    }
    try {
      unfused = wire::encode(c.gb, c.b, oracle.apply(c.root, v));
    } catch (const MbError& e) {
      uerr = e.what();
    }
    ASSERT_EQ(ferr.empty(), uerr.empty())
        << "seed " << GetParam() << " value " << v.to_string()
        << "\n  fused:   " << ferr << "\n  unfused: " << uerr;
    if (ferr.empty()) {
      EXPECT_EQ(fused, unfused) << "seed " << GetParam() << " value "
                                << v.to_string();
    } else {
      // Fusion may surface an earlier wire-only error where the two-phase
      // path reports a later conversion error first; everything else must
      // match verbatim.
      EXPECT_TRUE(ferr == uerr || fused_wire)
          << "seed " << GetParam() << "\n  fused:   " << ferr
          << "\n  unfused: " << uerr;
    }
  };

  for (uint64_t vs = 0; vs < 10; ++vs) {
    check(runtime::random_value(c.ga, c.a, GetParam() * 523 + vs));
  }
  Graph gm;
  Rng mrng(GetParam() + 31337);
  Ref mutant = random_type(gm, mrng, 3);
  for (uint64_t vs = 0; vs < 6; ++vs) {
    check(runtime::random_value(gm, mutant, GetParam() * 47 + vs));
  }
}

// 126 seeds x (48 + 16) convert values + 126 x 16 marshal values > 10,000
// distinct value runs through both executors.
INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         testing::Range<uint64_t>(0, 126));

}  // namespace
}  // namespace mbird
