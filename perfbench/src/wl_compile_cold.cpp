// compile_cold: service::ServiceCore in-process on one thread. Parse and
// lower are set-up; each pass drops the in-memory caches, freezes, and
// compiles every corpus pair. One op is one pair. This is the comparer,
// canon, PlanIR and cross-cache write path users pay on every batch; it
// bypasses wire, rpc and the runtime.
#include <memory>
#include <utility>

#include "corpus.hpp"
#include "obs/trace.hpp"
#include "planir/planir.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mbird::compare::Verdict;
using mbird::mtype::Ref;

/// One set-up: the parsed corpus, its service core and lowered pairs.
struct Loaded {
  std::vector<mbird::stype::Module> modules;
  mbird::DiagnosticEngine diags;
  std::unique_ptr<mbird::service::ServiceCore> core;
  std::vector<std::pair<Ref, Ref>> refs;  // kNullRef when lowering failed
  double parse_ms = 0, lower_ms = 0;
};

std::unique_ptr<Loaded> set_up(const Corpus& corpus) {
  auto l = std::make_unique<Loaded>();
  const uint64_t t0 = now_ns();
  if (!load_corpus(corpus, l->modules, l->diags)) {
    throw std::runtime_error("corpus does not parse: " + l->diags.summary());
  }
  const uint64_t t1 = now_ns();
  l->core = std::make_unique<mbird::service::ServiceCore>(l->modules, l->diags);
  for (const auto& p : corpus.pairs) {
    std::string err;
    const Ref a = l->core->lower_left(p.left, &err);
    const Ref b = l->core->lower_right(p.right, &err);
    l->refs.push_back({a, b});
  }
  const uint64_t t2 = now_ns();
  l->parse_ms = static_cast<double>(t1 - t0) / 1e6;
  l->lower_ms = static_cast<double>(t2 - t1) / 1e6;
  return l;
}

struct PassStats {
  Samples freeze_ms;
  Samples program_ops;
};

/// Cold passes until `seconds` elapse or `max_ops` ops complete.
void run_passes(Loaded& l, const Corpus& corpus, double seconds,
                uint64_t max_ops, bool op_spans, Window& w, PassStats& ps,
                Result& r) {
  const double cpu0 = self_cpu_seconds();
  const uint64_t start = now_ns();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  w.start = start;
  bool done = false;
  while (!done) {
    l.core->reset_memory_cache();
    const uint64_t f0 = now_ns();
    const auto frozen = l.core->freeze();
    ps.freeze_ms.add(static_cast<double>(now_ns() - f0) / 1e6);
    for (size_t i = 0; i < corpus.pairs.size(); ++i) {
      const uint64_t t0 = now_ns();
      if (t0 >= end || (max_ops != 0 && w.ops() >= max_ops)) {
        done = true;
        break;
      }
      const auto [a, b] = l.refs[i];
      r.attempted++;
      if (a == mbird::mtype::kNullRef || b == mbird::mtype::kNullRef) {
        r.fail();
        continue;
      }
      mbird::service::PairOutcome out;
      try {
        std::optional<mbird::obs::Span> span;
        if (op_spans) span.emplace("bench.op");
        out = l.core->compile(frozen, a, b);
      } catch (const std::exception& e) {
        r.info["last_error"] = e.what();
        r.fail();
        continue;
      }
      const uint64_t t1 = now_ns();
      if (out.verdict != corpus.pairs[i].expected) {
        r.fail();
        continue;
      }
      w.add(t0, t1, op_spans);
      if (out.program_ops > 0) ps.program_ops.add(static_cast<double>(out.program_ops));
    }
  }
  w.end = now_ns();
  w.cpu_s = self_cpu_seconds() - cpu0;
}

/// Time planir::compile on the plan each pair's verdict yields, for every
/// fourth pair (each plan needs an uncached compare_full first).
double planir_compile_us_per_pair(Loaded& l, const Corpus& corpus) {
  const auto& ga = l.core->left_graph();
  const auto& gb = l.core->right_graph();
  double total_us = 0;
  size_t n = 0;
  for (size_t i = 0; i < corpus.pairs.size(); i += 4) {
    const auto [a, b] = l.refs[i];
    if (a == mbird::mtype::kNullRef || b == mbird::mtype::kNullRef) continue;
    auto full = mbird::compare::compare_full(ga, a, gb, b);
    const mbird::compare::Result* res = nullptr;
    if (full.verdict == Verdict::Equivalent || full.verdict == Verdict::LeftSubtype) {
      res = &full.to_right;
    } else if (full.verdict == Verdict::RightSubtype) {
      res = &full.to_left;
    }
    if (res == nullptr || !res->ok) continue;
    const uint64_t t0 = now_ns();
    auto prog = mbird::planir::compile(res->plan, res->root);
    total_us += static_cast<double>(now_ns() - t0) / 1e3;
    (void)prog;
    ++n;
  }
  return n > 0 ? total_us / static_cast<double>(n) : 0;
}

double ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

}  // namespace

void run_compile_cold(const Options& o, Result& r) {
  Corpus corpus = make_corpus(o.seed, o.tiny ? 40 : 500, o.tiny ? 6 : 20);
  if (o.plant_wrong) {
    corpus.pairs[0].expected = corpus.pairs[0].expected == Verdict::Mismatch
                                   ? Verdict::Equivalent
                                   : Verdict::Mismatch;
  }
  InputHash h;
  for (const auto& f : corpus.files) {
    h.add(f.name);
    h.add(f.text);
    h.add(f.script);
  }
  for (const auto& p : corpus.pairs) {
    h.add(p.left);
    h.add(p.right);
    h.add_u64(static_cast<uint64_t>(p.expected));
  }
  r.info["inputs_hash"] = h.hex();
  r.info["pairs"] = std::to_string(corpus.pairs.size());
  size_t by_verdict[4] = {0, 0, 0, 0};
  for (const auto& p : corpus.pairs) by_verdict[static_cast<int>(p.expected)]++;
  r.info["pairs_by_verdict"] = std::to_string(by_verdict[0]) + " equivalent, " +
                               std::to_string(by_verdict[1]) + " left-subtype, " +
                               std::to_string(by_verdict[2]) + " right-subtype, " +
                               std::to_string(by_verdict[3]) + " mismatch";

  std::vector<double> setups, parse_ms, lower_ms;
  std::unique_ptr<Loaded> l;
  for (int s = 0; s < setup_count(o, 3); ++s) {
    l.reset();
    const uint64_t t0 = now_ns();
    l = set_up(corpus);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    parse_ms.push_back(l->parse_ms);
    lower_ms.push_back(l->lower_ms);
  }

  Window w;
  PassStats ps;
  if (!o.trace) {
    run_passes(*l, corpus, o.seconds, 0, false, w, ps, r);
    report_end_to_end(r, w, setups, vm_hwm_mib(::getpid()));
    return;
  }

  // Traced run: an untraced half for timing-based layer metrics and the
  // overhead baseline, then a traced half with spans and timed metrics on.
  run_passes(*l, corpus, half_seconds(o), 0, false, w, ps, r);
  Window tw;
  PassStats tps;
  auto& tracer = mbird::obs::Tracer::global();
  const auto before = mbird::obs::Registry::global().snapshot();
  mbird::obs::set_metrics_on(true);
  tracer.enable();
  uint64_t window_t0 = 0;
  {
    window_t0 = now_ns();
    mbird::obs::Span window("bench.window");
    run_passes(*l, corpus, half_seconds(o), 200000, true, tw, tps, r);
  }
  tracer.disable();
  mbird::obs::set_metrics_on(false);
  const auto after = mbird::obs::Registry::global().snapshot();
  const TraceSummary ts = summarize_trace(window_t0, tw.intervals);

  const double ops = static_cast<double>(std::max<uint64_t>(tw.ops(), 1));
  auto per_op = [&](const char* counter) {
    return static_cast<double>(counter_delta(before, after, counter)) / ops;
  };
  r.set("frontend.parse_ms", median(parse_ms), "ms");
  r.set("lower.lower_ms", median(lower_ms), "ms");
  r.set("mtype.graph_nodes",
        static_cast<double>(l->core->left_graph().size() +
                            l->core->right_graph().size()),
        "count");
  r.set("canon.freeze_ms", ps.freeze_ms.quantile(0.5), "ms");
  double compare_us = 0;
  if (auto it = ts.dur_us.find("compare"); it != ts.dur_us.end()) {
    for (double d : it->second) compare_us += d;
  }
  r.set("compare.us_per_pair", compare_us / ops, "us");
  r.set("compare.steps_per_pair", per_op("compare.steps"), "count");
  r.set("compare.candidates_per_pair", per_op("compare.candidates_ordered"),
        "count");
  const uint64_t ext = counter_delta(before, after, "compare.plan_extracts");
  const uint64_t spl = counter_delta(before, after, "compare.plan_splices");
  r.set("plan.splice_ratio", ratio(spl, ext + spl), "ratio");
  r.set("planir.compile_us_per_pair", planir_compile_us_per_pair(*l, corpus), "us");
  r.set("planir.program_ops", ps.program_ops.mean(), "count");
  const uint64_t vh = counter_delta(before, after, "crosscache.verdict.hits");
  const uint64_t vm = counter_delta(before, after, "crosscache.verdict.misses");
  const uint64_t ph = counter_delta(before, after, "crosscache.program.hits");
  const uint64_t pm = counter_delta(before, after, "crosscache.program.misses");
  r.set("crosscache.verdict_hit_ratio", ratio(vh, vh + vm), "ratio");
  r.set("crosscache.program_hit_ratio", ratio(ph, ph + pm), "ratio");
  report_trace_overhead(r, w, tw);
  report_trace(r, ts, ops);
  mark_unmeasured_absent(r, "compile_cold runs no rpc, daemon or runtime engine");
}

}  // namespace perfbench
