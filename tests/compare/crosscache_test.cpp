#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "compare/compare.hpp"
#include "compare/crosscache.hpp"
#include "mtype/canon.hpp"
#include "mtype/mtype.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "planir/planir.hpp"
#include "support/threadpool.hpp"

namespace mbird::compare {
namespace {

using mtype::Graph;
using mtype::Ref;
using mtype::Repertoire;

// A two-level record pair: permuted fields at both levels, so the comparer
// has real backtracking to do on a cold run.
struct PairFixture {
  Graph ga, gb;
  Ref a, b;
  PairFixture() {
    Ref ia = ga.record({ga.integer(0, 255), ga.real(24, 8),
                        ga.character(Repertoire::Ascii)});
    a = ga.record({ia, ga.integer(-100, 100), ga.list_of(ga.integer(0, 9))});
    Ref ib = gb.record({gb.character(Repertoire::Ascii), gb.integer(0, 255),
                        gb.real(24, 8)});
    b = gb.record({gb.list_of(gb.integer(0, 9)), gb.integer(-100, 100), ib});
  }
};

TEST(CrossCache, SecondSessionReportsNearZeroSteps) {
  PairFixture f;
  CrossCache cross;
  Options opts;
  opts.cross = &cross;

  Session first(f.ga, f.gb, opts);
  auto r1 = first.compare(f.a, f.b);
  ASSERT_TRUE(r1.ok) << r1.mismatch.to_string();
  EXPECT_GT(r1.steps, 3u);

  // A brand-new Session over the same cache resolves the whole pair from
  // the top-level memo entry: one visit.
  Session second(f.ga, f.gb, opts);
  auto r2 = second.compare(f.a, f.b);
  ASSERT_TRUE(r2.ok) << r2.mismatch.to_string();
  EXPECT_LE(r2.steps, 1u);
  EXPECT_TRUE(plan::validate(second.plans(), r2.root).empty());

  auto st = cross.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.entries, 0u);
}

TEST(CrossCache, CachedFragmentSteersFieldsCorrectly) {
  // Two distinct roots in the same graphs with identical concrete layout
  // (strict-id equal): the fragment cached for the first pair must convert
  // the second pair's fields the same, correct way.
  Graph ga, gb;
  Ref a1 = ga.record({ga.integer(0, 50), ga.real(24, 8)});
  Ref a2 = ga.record({ga.integer(0, 50), ga.real(24, 8)});
  Ref b1 = gb.record({gb.real(24, 8), gb.integer(0, 50)});

  CrossCache cross;
  Options opts;
  opts.cross = &cross;

  Result warmup = compare(ga, a1, gb, b1, opts);
  ASSERT_TRUE(warmup.ok);

  Result r = compare(ga, a2, gb, b1, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.steps, 1u) << "strict-id twin should hit the pair memo";
  ASSERT_TRUE(plan::validate(r.plan, r.root).empty());

  // Target leaf 0 is the Real, target leaf 1 the Int: the spliced
  // RecordMap must route the right conversion op to each.
  const plan::PlanNode& root = r.plan.at(r.root);
  ASSERT_EQ(root.kind, plan::PKind::RecordMap);
  ASSERT_EQ(root.fields.size(), 2u);
  EXPECT_EQ(r.plan.at(root.fields[0].op).kind, plan::PKind::RealCopy);
  EXPECT_EQ(r.plan.at(root.fields[1].op).kind, plan::PKind::IntCopy);

  // And the compiled program must verify.
  planir::Program prog = planir::compile(r.plan, r.root);
  EXPECT_TRUE(planir::verify(prog).empty());
}

TEST(CrossCache, NegativeVerdictsAreCachedAndDefinitive) {
  Graph ga, gb;
  Ref a = ga.record({ga.integer(0, 5), ga.character(Repertoire::Ascii)});
  Ref b = gb.record({gb.integer(0, 6), gb.character(Repertoire::Ascii)});

  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  // Without the hash prune the cold run genuinely explores candidates, so
  // the warm run's single step demonstrably comes from the cached verdict.
  opts.use_hash_prune = false;

  Result r1 = compare(ga, a, gb, b, opts);
  ASSERT_FALSE(r1.ok);
  EXPECT_GT(r1.steps, 1u);

  Result r2 = compare(ga, a, gb, b, opts);
  ASSERT_FALSE(r2.ok);
  EXPECT_LE(r2.steps, 1u) << "second run should fail from the cached verdict";
  EXPECT_TRUE(r2.mismatch.valid);
}

TEST(CrossCache, BudgetTrippedRunsPoisonNoNegatives) {
  PairFixture f;
  CrossCache cross;
  Options tight;
  tight.cross = &cross;
  tight.max_steps = 2;  // guaranteed to trip mid-comparison
  Result starved = compare(f.ga, f.a, f.gb, f.b, tight);
  ASSERT_FALSE(starved.ok);

  // Same cache, sane budget: the pair must still be provable — a budget
  // failure is not a structural verdict and must not have been recorded.
  Options roomy;
  roomy.cross = &cross;
  Result r = compare(f.ga, f.a, f.gb, f.b, roomy);
  EXPECT_TRUE(r.ok) << r.mismatch.to_string();
}

TEST(CrossCache, CanonAssistedAgreesWithPlainComparer) {
  // Differential check over a family of related types, including the
  // µ-wrapped-record corner where iso classes and comparer equivalence
  // genuinely diverge: with and without the cache, verdicts must agree.
  Graph ga, gb;
  std::vector<Ref> left, right;
  {
    Ref r2 = ga.record({ga.integer(0, 7), ga.character(Repertoire::Ascii)});
    Ref rec = ga.rec_placeholder();
    ga.seal_rec(rec, r2);
    left.push_back(ga.record({rec}));                       // µ-wrapped
    left.push_back(r2);                                     // plain
    left.push_back(ga.record({r2, ga.unit()}));             // unit-padded
    left.push_back(ga.record({ga.integer(0, 7)}));          // narrower
    left.push_back(ga.list_of(r2));                         // list
    left.push_back(ga.choice({r2, ga.unit()}));             // choice
  }
  {
    Ref s2 = gb.record({gb.character(Repertoire::Ascii), gb.integer(0, 7)});
    Ref rec = gb.rec_placeholder();
    gb.seal_rec(rec, s2);
    right.push_back(gb.record({rec}));
    right.push_back(s2);
    right.push_back(gb.record({gb.unit(), s2}));
    right.push_back(gb.record({gb.integer(0, 7)}));
    right.push_back(gb.list_of(s2));
    right.push_back(gb.choice({gb.unit(), s2}));
  }

  for (bool unit_elim : {false, true}) {
    CrossCache cross;
    for (const Ref a : left) {
      for (const Ref b : right) {
        Options plain;
        plain.unit_elimination = unit_elim;
        Options cached = plain;
        cached.cross = &cross;
        FullResult want = compare_full(ga, a, gb, b, plain);
        // Twice with the cache: cold (filling) and warm (serving).
        FullResult got_cold = compare_full(ga, a, gb, b, cached);
        FullResult got_warm = compare_full(ga, a, gb, b, cached);
        EXPECT_EQ(to_string(want.verdict), to_string(got_cold.verdict))
            << "pair (" << a << ", " << b << ") unit_elim=" << unit_elim;
        EXPECT_EQ(to_string(want.verdict), to_string(got_warm.verdict))
            << "pair (" << a << ", " << b << ") unit_elim=" << unit_elim;
        if (want.to_right.ok) {
          EXPECT_TRUE(
              plan::validate(got_warm.to_right.plan, got_warm.to_right.root)
                  .empty());
        }
      }
    }
  }
}

TEST(CrossCache, UndersizedHashVectorsAreIgnored) {
  PairFixture f;
  std::vector<uint64_t> bogus(2, 0xdeadbeefULL);  // far too small, garbage
  Options opts;
  opts.left_hashes = &bogus;
  opts.right_hashes = &bogus;
  Result r = compare(f.ga, f.a, f.gb, f.b, opts);
  EXPECT_TRUE(r.ok) << "bogus hash vectors must be ignored, not trusted: "
                    << r.mismatch.to_string();
}

TEST(HashCache, RecomputesAfterInPlaceRewrite) {
  Graph g;
  Ref r = g.integer(0, 10);
  (void)g.record({r, r});
  HashCache hc(g);
  uint64_t before = (*hc.get())[r];

  // In-place rewrite: same node count, different structure. The stale
  // cache bug served the old hashes here (size unchanged).
  g.at_mut(r).hi = 99;
  uint64_t after = (*hc.get())[r];
  EXPECT_NE(before, after);

  // Growth still triggers recomputation too.
  (void)g.integer(5, 6);
  EXPECT_EQ(hc.get()->size(), g.size());

  // Explicit refresh is a no-op when nothing changed.
  auto snapshot = *hc.get();
  hc.refresh();
  EXPECT_EQ(*hc.get(), snapshot);
}

TEST(CrossCache, ExtractRefusesMidConstructionFragments) {
  plan::PlanGraph pg;
  plan::PlanNode alias;
  alias.kind = plan::PKind::Alias;  // inner left dangling (kNullPlan)
  plan::PlanRef r = pg.add(std::move(alias));
  EXPECT_EQ(CrossCache::extract(pg, r), nullptr);
}

TEST(CrossCache, ProgramMemoRoundTrip) {
  Graph ga, gb;
  Ref a = ga.integer(0, 10);
  Ref b = gb.integer(0, 10);
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  Result r = compare(ga, a, gb, b, opts);
  ASSERT_TRUE(r.ok);

  auto sa = cross.strict_ids(ga);
  auto sb = cross.strict_ids(gb);
  CrossCache::Key key{(*sa)[a], (*sb)[b], CrossCache::fingerprint(opts)};
  EXPECT_EQ(cross.find_program(key), nullptr);
  auto prog = std::make_shared<planir::Program>(planir::compile(r.plan, r.root));
  cross.insert_program(key, prog);
  EXPECT_EQ(cross.find_program(key).get(), prog.get());
  EXPECT_EQ(cross.stats().programs, 1u);
}

TEST(CrossCache, SharedAcrossThreadsUnderLoad) {
  // Four workers hammer one cache with the same pair family. Primarily a
  // ThreadSanitizer target (the CI TSan lane runs this test); the
  // functional assertion is that every comparison still gets the right
  // verdict.
  PairFixture f;
  CrossCache cross;
  std::atomic<int> ok_count{0};
  std::atomic<int> bad_count{0};
  {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.submit([&] {
        for (int i = 0; i < 50; ++i) {
          Options opts;
          opts.cross = &cross;
          Result r = compare(f.ga, f.a, f.gb, f.b, opts);
          (r.ok ? ok_count : bad_count).fetch_add(1);
          Result rev = compare(f.gb, f.b, f.ga, f.a, opts);
          (rev.ok ? ok_count : bad_count).fetch_add(1);
        }
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(ok_count.load(), 400);
  EXPECT_EQ(bad_count.load(), 0);
  auto st = cross.stats();
  EXPECT_GT(st.hits, 0u);
}

TEST(CrossCache, RegistryCountersMatchStatsUnderConcurrentWriters) {
  // stats() and the crosscache.verdict.* registry counters are two views
  // of one count: with four workers racing on one cache, the registry
  // moves by exactly this cache's totals.
  const auto before = obs::Registry::global().snapshot();
  PairFixture f;
  CrossCache cross;
  {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.submit([&] {
        for (int i = 0; i < 20; ++i) {
          Options opts;
          opts.cross = &cross;
          (void)compare(f.ga, f.a, f.gb, f.b, opts);
          (void)compare(f.gb, f.b, f.ga, f.a, opts);
        }
      });
    }
    pool.wait_idle();
  }
  const auto moved = obs::Registry::global().snapshot().delta_since(before);
  auto delta = [&](const char* name) {
    auto it = moved.counters.find(name);
    return it == moved.counters.end() ? size_t{0} : it->second;
  };
  const auto st = cross.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
  EXPECT_GT(st.inserts, 0u);
  EXPECT_EQ(delta("crosscache.verdict.hits"), st.hits);
  EXPECT_EQ(delta("crosscache.verdict.misses"), st.misses);
  EXPECT_EQ(delta("crosscache.verdict.inserts"), st.inserts);
}

TEST(CrossCache, WriteBufferFlushesOnUnwind) {
  // An exception thrown through a scope holding a WriteBuffer with pending
  // inserts must not drop them: the destructor flushes during unwinding,
  // so a crashing chunk in the batch driver still publishes what it
  // learned before the throw.
  PairFixture f;
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  auto sa = cross.strict_ids(f.ga);
  auto sb = cross.strict_ids(f.gb);
  const CrossCache::Key key{(*sa)[f.a], (*sb)[f.b],
                            CrossCache::fingerprint(opts)};
  auto negative = std::make_shared<CrossCache::Variant>();
  negative->ok = false;  // portable: no fragment, no graph binding
  EXPECT_THROW(
      {
        CrossCache::WriteBuffer wb(cross);
        wb.insert(key, negative);
        // Pending only: under kAutoFlush, the owner must not see it yet.
        EXPECT_EQ(cross.find(key, &f.ga, f.ga.version(), &f.gb,
                             f.gb.version()),
                  nullptr);
        throw std::runtime_error("chunk died");
      },
      std::runtime_error);
  auto hit = cross.find(key, &f.ga, f.ga.version(), &f.gb, f.gb.version());
  ASSERT_NE(hit, nullptr) << "unwind must flush pending inserts";
  EXPECT_FALSE(hit->ok);
}

TEST(ThreadPool, RecursiveSubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      pool.submit([&count] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
  // Reusable after idle.
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 21);
}

}  // namespace
}  // namespace mbird::compare
