#include "tool/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "compare/crosscache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/cachestore.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"

namespace mbird::tool {

namespace {

struct Pair {
  std::string left_spec, right_spec;
  size_t lineno = 0;
  mtype::Ref ra = mtype::kNullRef;
  mtype::Ref rb = mtype::kNullRef;
};

struct PairResult {
  PairOutcome outcome;
  int64_t micros = 0;
  std::string error;  // non-empty: the pair failed with an exception
};

// Peak resident set of this process in KB (0 where unsupported). The
// batch report and the streaming tests use it to pin the memory-bounded
// claim: a 100k-pair manifest must not scale RSS with manifest length.
int64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<int64_t>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
    return static_cast<int64_t>(ru.ru_maxrss);  // KB on Linux
#endif
  }
#endif
  return 0;
}

// Incremental manifest-order JSON report writer. Pairs stream out as
// each block completes (the driver never holds more than one block of
// results), so report size never feeds back into memory use.
class ReportWriter {
 public:
  explicit ReportWriter(std::ostream& os) : os_(os) {}

  [[nodiscard]] bool started() const { return started_; }

  void begin(size_t jobs) {
    started_ = true;
    os_ << "{\n  \"jobs\": " << jobs << ",\n  \"pairs\": [\n";
  }

  void pair(const Pair& p, const PairResult& r) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << "    {\"left\": ";
    write_json_string(os_, p.left_spec);
    os_ << ", \"right\": ";
    write_json_string(os_, p.right_spec);
    os_ << ", ";
    if (!r.error.empty()) {
      os_ << "\"error\": ";
      write_json_string(os_, r.error);
    } else {
      os_ << "\"verdict\": \"" << compare::to_string(r.outcome.verdict)
          << "\", \"steps\": " << r.outcome.steps
          << ", \"micros\": " << r.micros
          << ", \"memo\": " << (r.outcome.memo_hit ? "true" : "false")
          << ", \"program_cached\": "
          << (r.outcome.program_cached ? "true" : "false")
          << ", \"program_ops\": " << r.outcome.program_ops;
    }
    os_ << '}';
  }

  void begin_summary() {
    if (!first_) os_ << '\n';
    os_ << "  ],\n  \"summary\": {\n";
  }

  std::ostream& os() { return os_; }

 private:
  std::ostream& os_;
  bool started_ = false;
  bool first_ = true;
};

}  // namespace

size_t batch_chunk_size(size_t pairs, size_t jobs, size_t requested) {
  if (requested > 0) return requested;
  if (jobs <= 1) return std::max<size_t>(1, pairs);
  // ~4 steal-able chunks per worker for load balance, but never smaller
  // than a floor that amortizes the fixed per-chunk cost (submit mutex,
  // condvar notify, std::function allocation) — warm pairs resolve in
  // well under a microsecond, so tiny chunks would be all overhead.
  constexpr size_t kMinChunk = 16;
  return std::clamp(pairs / (jobs * 4), kMinChunk, std::max(kMinChunk, pairs));
}

int run_batch(std::vector<stype::Module>& modules, std::istream& manifest,
              const std::string& manifest_name, DiagnosticEngine& diags,
              const BatchOptions& options, std::ostream& out,
              std::ostream& err) {
  // Batch reports always embed a metrics snapshot, so the timed tier
  // (histograms, engine op counts) is on for the whole run.
  obs::set_metrics_on(true);
  const obs::Registry::Snapshot snap0 = obs::Registry::global().snapshot();

  // ---- report destination --------------------------------------------------
  std::ofstream file;
  std::ostream* rep = &out;
  if (!options.out_path.empty()) {
    file.open(options.out_path, std::ios::binary);
    if (!file) {
      err << "mbird: cannot write " << options.out_path << '\n';
      return 1;
    }
    rep = &file;
  }
  ReportWriter writer(*rep);

  // ---- the compile engine --------------------------------------------------
  // ServiceCore owns what used to live inline here: the two graphs,
  // persistent per-module LowerEngines with the (module, decl) memo, the
  // CrossCache + HashCaches, and (with --cache) the durable store. The
  // graphs grow only during ingestion (single-threaded); each parallel
  // phase sees them frozen.
  service::ServiceCore core(modules, diags);
  if (!options.cache_path.empty()) {
    std::string serr;
    if (!core.open_cache(options.cache_path, &serr)) {
      err << "mbird: cannot open cache " << options.cache_path << ": " << serr
          << '\n';
      return 1;
    }
  }
  auto lower_side = [&](const std::string& spec, size_t lineno,
                        bool left) -> mtype::Ref {
    std::string lerr;
    mtype::Ref r = left ? core.lower_left(spec, &lerr)
                        : core.lower_right(spec, &lerr);
    if (r == mtype::kNullRef) {
      err << "mbird: " << manifest_name << ':' << lineno << ": " << lerr
          << '\n';
    }
    return r;
  };

  ThreadPool pool(options.jobs);

  // ---- streaming loop ------------------------------------------------------
  size_t lineno = 0, total_pairs = 0, blocks = 0, chunk_used = 0;
  size_t counts[4] = {0, 0, 0, 0};
  size_t errors = 0, total_steps = 0, memo_hits = 0;
  int64_t busy_micros = 0, wall_micros = 0;
  // Mid-stream manifest failure: remember it, finish reporting what ran.
  int stream_error_code = 0;
  size_t stream_error_line = 0;
  std::string stream_error_msg;
  auto stream_fail = [&](int code, size_t at_line, std::string msg) {
    stream_error_code = code;
    stream_error_line = at_line;
    stream_error_msg = std::move(msg);
  };

  std::vector<Pair> block;
  block.reserve(kStreamBlock);
  std::vector<PairResult> results;
  std::string line;

  bool eof = false;
  while (!eof && stream_error_code == 0) {
    // ---- ingest + lower one block (graphs mutable only here) ---------------
    block.clear();
    while (block.size() < kStreamBlock && stream_error_code == 0) {
      if (!std::getline(manifest, line)) {
        eof = true;
        break;
      }
      ++lineno;
      if (auto hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      std::istringstream ls(line);
      std::string a, b, extra;
      if (!(ls >> a)) continue;  // blank / comment-only
      if (!(ls >> b) || (ls >> extra)) {
        err << "mbird: " << manifest_name << ':' << lineno
            << ": expected '<declA> <declB>'\n";
        stream_fail(2, lineno, "expected '<declA> <declB>'");
        break;
      }
      Pair p{a, b, lineno, mtype::kNullRef, mtype::kNullRef};
      p.ra = lower_side(p.left_spec, lineno, true);
      if (p.ra == mtype::kNullRef) {
        stream_fail(1, lineno, "cannot resolve '" + p.left_spec + "'");
        break;
      }
      p.rb = lower_side(p.right_spec, lineno, false);
      if (p.rb == mtype::kNullRef) {
        stream_fail(1, lineno, "cannot resolve '" + p.right_spec + "'");
        break;
      }
      block.push_back(std::move(p));
    }
    if (block.empty()) continue;  // loop exits via eof / stream_error_code

    // ---- refresh shared read-only state if the graphs grew -----------------
    // freeze() re-snapshots HashCaches (keyed on Graph::version()) and the
    // strict-id tables; both are single-threaded here (barrier below keeps
    // workers out).
    const service::ServiceCore::Frozen frozen = core.freeze();

    // ---- fan out in chunks -------------------------------------------------
    results.assign(block.size(), PairResult{});
    chunk_used = batch_chunk_size(block.size(), options.jobs, options.chunk);
    auto wall0 = std::chrono::steady_clock::now();
    for (size_t begin = 0; begin < block.size(); begin += chunk_used) {
      const size_t end = std::min(begin + chunk_used, block.size());
      pool.submit([&, begin, end] {
        compare::CrossCache::WriteBuffer wb(core.cross());
        for (size_t idx = begin; idx < end; ++idx) {
          const Pair& p = block[idx];
          PairResult& r = results[idx];
          obs::Span span("batch.pair");
          auto t0 = std::chrono::steady_clock::now();
          try {
            r.outcome = core.compile(frozen, p.ra, p.rb, &wb);
          } catch (const std::exception& e) {
            r.error = e.what();
          }
          r.micros = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
          if (span.recording()) {
            span.note("left", p.left_spec);
            span.note("right", p.right_spec);
            if (r.error.empty()) {
              span.note("verdict", compare::to_string(r.outcome.verdict));
              span.note("memo", r.outcome.memo_hit ? "hit" : "miss");
              span.note("program_cached",
                        r.outcome.program_cached ? "true" : "false");
            } else {
              span.note("error", "true");
            }
          }
        }
      });
    }
    pool.wait_idle();
    wall_micros += std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();

    // ---- emit this block's results, in manifest order ----------------------
    if (!writer.started()) writer.begin(options.jobs);
    for (size_t idx = 0; idx < block.size(); ++idx) {
      const PairResult& r = results[idx];
      writer.pair(block[idx], r);
      if (!r.error.empty()) {
        ++errors;
        continue;
      }
      ++counts[static_cast<size_t>(r.outcome.verdict)];
      total_steps += r.outcome.steps;
      if (r.outcome.memo_hit) ++memo_hits;
      busy_micros += r.micros;
    }
    total_pairs += block.size();
    ++blocks;
    obs::gauge("batch.stream.block_pairs")
        .set_max(static_cast<int64_t>(block.size()));
  }

  if (total_pairs == 0) {
    if (stream_error_code != 0) return stream_error_code;
    err << "mbird: " << manifest_name << ": no pairs\n";
    return 2;
  }

  // ---- durable-store commit ------------------------------------------------
  // Before the summary so its stats include the final flush, and so a
  // flush failure is reported while the report is still open.
  bool store_flush_failed = false;
  if (core.cache_store() != nullptr) {
    std::string ferr;
    if (!core.flush_cache(&ferr)) {
      err << "mbird: cache flush failed: " << ferr << '\n';
      store_flush_failed = true;
    }
  }

  // ---- summary -------------------------------------------------------------
  auto st = core.cross().stats();

  // Worker utilization: summed busy time across pairs over the pool's
  // theoretical capacity (wall time x jobs). 100 means every worker was
  // busy the whole parallel phase.
  obs::gauge("batch.jobs").set(static_cast<int64_t>(options.jobs));
  if (wall_micros > 0 && options.jobs > 0) {
    int64_t pct =
        busy_micros * 100 / (wall_micros * static_cast<int64_t>(options.jobs));
    obs::gauge("batch.worker_utilization_pct").set(std::min<int64_t>(pct, 100));
  }
  obs::gauge("batch.stream.blocks").set(static_cast<int64_t>(blocks));
  const int64_t rss_kb = peak_rss_kb();
  if (rss_kb > 0) obs::gauge("batch.peak_rss_kb").set(rss_kb);

  const obs::Registry::Snapshot delta =
      obs::Registry::global().snapshot().delta_since(snap0);

  writer.begin_summary();
  std::ostream& js = writer.os();
  js << "    \"pairs\": " << total_pairs << ",\n"
     << "    \"equivalent\": " << counts[0] << ",\n"
     << "    \"left_subtype\": " << counts[1] << ",\n"
     << "    \"right_subtype\": " << counts[2] << ",\n"
     << "    \"mismatch\": " << counts[3] << ",\n"
     << "    \"errors\": " << errors << ",\n"
     << "    \"memo_hits\": " << memo_hits << ",\n"
     << "    \"total_steps\": " << total_steps << ",\n"
     << "    \"wall_micros\": " << wall_micros << ",\n"
     << "    \"blocks\": " << blocks << ",\n"
     << "    \"chunk\": " << chunk_used << ",\n"
     << "    \"peak_rss_kb\": " << rss_kb << ",\n";
  if (stream_error_code != 0) {
    js << "    \"manifest_error\": {\"line\": " << stream_error_line
       << ", \"message\": ";
    write_json_string(js, stream_error_msg);
    js << "},\n";
  }
  js << "    \"cache\": {\"hits\": " << st.hits << ", \"misses\": " << st.misses
     << ", \"inserts\": " << st.inserts << ", \"entries\": " << st.entries
     << ", \"programs\": " << st.programs
     << ", \"strict_classes\": " << st.strict_classes
     << ", \"interned_nodes\": " << st.interned_nodes << "}";
  if (store::CacheStore* cs = core.cache_store()) {
    const auto ss = cs->stats();
    js << ",\n    \"store\": {\"entries\": " << ss.entries
       << ", \"hits\": " << ss.hits << ", \"misses\": " << ss.misses
       << ", \"appends\": " << ss.appends
       << ", \"bytes_appended\": " << ss.bytes_appended
       << ", \"flushes\": " << ss.pages.flushes
       << ", \"journaled_pages\": " << ss.pages.journaled_pages << "}";
  }
  js << "\n  },\n  \"metrics\": " << delta.to_json(2) << "\n}\n";

  if (!options.out_path.empty()) {
    out << "wrote " << options.out_path << '\n';
  }
  if (stream_error_code != 0) return stream_error_code;
  if (store_flush_failed) return 1;
  return errors == 0 ? 0 : 1;
}

}  // namespace mbird::tool
