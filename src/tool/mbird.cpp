#include "tool/mbird.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "annotate/script.hpp"
#include "cfront/cparser.hpp"
#include "codegen/cgen.hpp"
#include "compare/compare.hpp"
#include "idl/idlparser.hpp"
#include "javaclass/classfile.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planir/planir.hpp"
#include "project/project.hpp"
#include "runtime/layout.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "support/strings.hpp"
#include "tool/batch.hpp"
#include "tool/metrics_reader.hpp"

namespace mbird::tool {

namespace {

using stype::Lang;
using stype::Module;
using stype::Stype;

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

// One diagnostic as a structured JSON line (--diag-format=json): tools
// consuming mbird's stderr get machine-parseable records instead of the
// "file:line:col: severity: message" text form.
void write_diag_json(std::ostream& os, const Diagnostic& d) {
  os << "{\"severity\": \"" << to_string(d.severity) << "\", \"file\": \"";
  json_escape(os, d.loc.file);
  os << "\", \"line\": " << d.loc.line << ", \"col\": " << d.loc.col
     << ", \"message\": \"";
  json_escape(os, d.message);
  os << "\"}\n";
}

DiagnosticEngine::Sink make_diag_sink(std::ostream& e, bool json) {
  if (json) {
    return [&e](const Diagnostic& d) { write_diag_json(e, d); };
  }
  return [&e](const Diagnostic& d) { e << d.to_string() << '\n'; };
}

struct Session {
  std::vector<Module> modules;
  // Original sources, for project save.
  project::Project record;
  DiagnosticEngine diags;
  std::ostream* err = nullptr;

  explicit Session(std::ostream& e, bool json_diags = false)
      : diags(make_diag_sink(e, json_diags)), err(&e) {}

  Module* module_of(const std::string& name) {
    for (auto& m : modules) {
      if (m.name() == name) return &m;
    }
    return nullptr;
  }

  /// Find a declaration across modules: "module:decl" or bare "decl".
  /// Returns the owning module and fills `decl_name`.
  Module* find_decl(const std::string& spec, std::string* decl_name) {
    auto colon = spec.find(':');
    if (colon != std::string::npos) {
      *decl_name = spec.substr(colon + 1);
      return module_of(spec.substr(0, colon));
    }
    *decl_name = spec;
    // Bare names may be "Class.method": search by the class component.
    std::string head = spec.substr(0, spec.find('.'));
    for (auto& m : modules) {
      if (m.find(head) != nullptr) return &m;
    }
    return nullptr;
  }
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << text;
  return f.good();
}

// Strict non-negative integer flag parsing. std::stoul alone accepts
// "-1" (wrapping to SIZE_MAX) and "3x" (stopping at the 'x'); both are
// usage errors here, not silently-coerced values.
std::optional<size_t> parse_count(const std::string& flag,
                                  const std::string& text, std::ostream& err) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    err << "mbird: " << flag << " expects a non-negative integer, got '"
        << text << "'\n";
    return std::nullopt;
  }
  try {
    return static_cast<size_t>(std::stoull(text));
  } catch (const std::exception&) {
    err << "mbird: " << flag << " value '" << text << "' is out of range\n";
    return std::nullopt;
  }
}

bool load_source(Session& s, Lang lang, const std::string& path,
                 const std::string& text) {
  switch (lang) {
    case Lang::C: {
      cfront::Options opts;
      opts.cplusplus = false;
      s.modules.push_back(cfront::parse_c(text, path, s.diags, opts));
      break;
    }
    case Lang::Cpp: s.modules.push_back(cfront::parse_c(text, path, s.diags)); break;
    case Lang::Java: s.modules.push_back(javasrc::parse_java(text, path, s.diags)); break;
    case Lang::Idl: s.modules.push_back(idl::parse_idl(text, path, s.diags)); break;
  }
  s.record.sources.push_back({lang, path, text});
  return !s.diags.has_errors();
}

int usage(std::ostream& err) {
  err << "usage: mbird [--trace <out.json>] [--metrics <out.json>]\n"
         "             [--diag-format=text|json]\n"
         "             [--c|--java|--idl|--classfile|--project <file>]...\n"
         "             [--script <file>] [--annotate '<stmts>']\n"
         "             <list|show|mtype|diagram|compare|plan|gen|batch|serve|stats|top|save> ...\n"
         "  compare <a> <b> [--cache <file>]\n"
         "                             verdict for one pair (--cache reuses\n"
         "                             and extends a durable verdict store)\n"
         "  plan <a> <b> [--emit-ir]   print the coercion plan (or its\n"
         "                             compiled PlanIR bytecode listing;\n"
         "                             --emit-ir=native fuses a's memory\n"
         "                             layout into a zero-copy marshaler)\n"
         "  batch <manifest> [--jobs N] [--chunk N] [--out <file>]\n"
         "        [--cache <file>]     compare/compile every '<a> <b>' pair in\n"
         "                             the manifest over N worker threads (in\n"
         "                             chunks of --chunk pairs; 0 = auto),\n"
         "                             sharing one cross-pair cache; streams\n"
         "                             the manifest with bounded memory and\n"
         "                             writes the JSON report incrementally;\n"
         "                             --cache persists verdicts and compiled\n"
         "                             programs across runs (warm restart)\n"
         "  serve [--requests <file>] [--cache <file>]\n"
         "        [--listen <addr>] [--max-requests N] [--flightrec <file>]\n"
         "                             long-lived daemon: answer compile-pair\n"
         "                             request lines (stdin or --requests)\n"
         "                             over the in-process rpc stack, one\n"
         "                             JSON reply line each; --listen binds\n"
         "                             unix:PATH or tcp:HOST:PORT instead and\n"
         "                             serves many concurrent rpc clients\n"
         "                             through the epoll reactor; --flightrec\n"
         "                             sets the on-fault flight-recorder dump\n"
         "                             file ('none' disables)\n"
         "  stats [metrics.json]       pretty-print a --metrics/batch metrics\n"
         "                             snapshot (no file: this process's own);\n"
         "                             exit 2 on an unparseable snapshot\n"
         "  stats --stitch <a.json> <b.json>... [-o out.json]\n"
         "                             merge per-process --trace files into\n"
         "                             one Chrome trace: clocks aligned by\n"
         "                             shared trace ids, cross-process rpc\n"
         "                             hops drawn as flow arrows\n"
         "  top --connect <addr> [--once] [--json] [--raw] [--rings]\n"
         "      [--interval <ms>] [--samples N] [--timeout <ms>]\n"
         "                             live dashboard against a listening\n"
         "                             daemon's telemetry port: req/s,\n"
         "                             latency and loop-lag percentiles,\n"
         "                             per-peer queue depth, cache hit ratio;\n"
         "                             --once --json emits one machine-\n"
         "                             readable sample; --raw dumps the\n"
         "                             telemetry reply (--rings includes the\n"
         "                             flight-recorder rings)\n"
         "global flags (valid anywhere on the line):\n"
         "  --trace <out.json>         record nested spans, write Chrome\n"
         "                             trace-event JSON (chrome://tracing)\n"
         "  --metrics <out.json>       write the metrics registry snapshot\n"
         "  --diag-format=text|json    diagnostics as text or JSON lines\n"
         "execution: every plan runs on one PlanIR interpreter; compiled C\n"
         "stubs are a library option (rpc::NativeStub), not a CLI flag\n";
  return 2;
}

// ---- `mbird top`: live telemetry dashboard ----------------------------------
// One sample = one telemetry round-trip to a listening daemon: the flat
// scalars (served, uptime_ms, ...) plus the full metrics snapshot.
struct TopSample {
  obs::Registry::Snapshot snap;
  std::map<std::string, int64_t> ints;

  [[nodiscard]] int64_t flat(const char* k) const {
    auto it = ints.find(k);
    return it == ints.end() ? 0 : it->second;
  }
  [[nodiscard]] uint64_t cnt(const char* name) const {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }
  [[nodiscard]] int64_t gauge(const char* name) const {
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0 : it->second;
  }
  [[nodiscard]] const obs::Registry::HistView* hist(const char* name) const {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? nullptr : &it->second;
  }
  // "rpc.peer.<id>.inflight" gauges, keyed by peer id.
  [[nodiscard]] std::map<uint64_t, int64_t> peer_inflight() const {
    std::map<uint64_t, int64_t> by_peer;
    const std::string prefix = "rpc.peer.";
    const std::string suffix = ".inflight";
    for (const auto& [name, v] : snap.gauges) {
      if (name.size() <= prefix.size() + suffix.size()) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
        continue;
      }
      const std::string id =
          name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
      if (id.empty() || id.find_first_not_of("0123456789") != std::string::npos)
        continue;
      by_peer[std::stoull(id)] = v;
    }
    return by_peer;
  }
};

bool parse_telemetry(const std::string& text, TopSample* sample,
                     std::string* perr) {
  MetricsReader r{text};
  if (!r.parse_snapshot(&sample->snap, false)) {
    *perr = r.error.empty() ? "malformed telemetry JSON" : r.error;
    return false;
  }
  sample->ints = std::move(r.top_ints);
  return true;
}

// Requests per second: from the daemon's own uptime on a lone sample, from
// the served delta between two samples on a refreshing dashboard.
double top_rate(const TopSample& cur, const TopSample* prev) {
  if (prev != nullptr) {
    const double dt_ms =
        static_cast<double>(cur.flat("uptime_ms") - prev->flat("uptime_ms"));
    if (dt_ms > 0) {
      return static_cast<double>(cur.flat("served") - prev->flat("served")) *
             1e3 / dt_ms;
    }
  }
  const double up_ms = static_cast<double>(cur.flat("uptime_ms"));
  if (up_ms <= 0) return 0;
  return static_cast<double>(cur.flat("served")) * 1e3 / up_ms;
}

// The machine-readable form (`mbird top --once --json`): one flat JSON
// object with the dashboard's derived numbers — CI smoke asserts on the
// req_per_sec and loop_lag_ns keys.
void write_top_json(std::ostream& os, const TopSample& s, double rps) {
  char num[64];
  std::snprintf(num, sizeof num, "%.3f", rps);
  os << "{\"uptime_ms\":" << s.flat("uptime_ms")
     << ",\"served\":" << s.flat("served") << ",\"req_per_sec\":" << num
     << ",\"peers\":" << s.flat("peers");
  const obs::Registry::HistView* lat = s.hist("serve.latency_us");
  os << ",\"latency_us\":{\"count\":" << (lat ? lat->count : 0)
     << ",\"p50\":" << (lat ? lat->p50 : 0) << ",\"p95\":" << (lat ? lat->p95 : 0)
     << ",\"p99\":" << (lat ? lat->p99 : 0) << "}";
  const obs::Registry::HistView* lag = s.hist("rpc.reactor.loop_lag_ns");
  os << ",\"loop_lag_ns\":{\"count\":" << (lag ? lag->count : 0)
     << ",\"p50\":" << (lag ? lag->p50 : 0) << ",\"p95\":" << (lag ? lag->p95 : 0)
     << ",\"p99\":" << (lag ? lag->p99 : 0) << ",\"max\":" << (lag ? lag->max : 0)
     << "}";
  os << ",\"queue_depth\":" << s.gauge("rpc.reactor.queue_depth")
     << ",\"stalls\":" << s.cnt("rpc.reactor.stalls");
  const uint64_t hits = s.cnt("crosscache.verdict.hits");
  const uint64_t misses = s.cnt("crosscache.verdict.misses");
  std::snprintf(num, sizeof num, "%.4f",
                hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) /
                          static_cast<double>(hits + misses));
  os << ",\"cache_hit_ratio\":" << num;
  os << ",\"peer_inflight\":{";
  bool first = true;
  for (const auto& [peer, depth] : s.peer_inflight()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << peer << "\":" << depth;
  }
  os << "},\"flightrec_recorded\":" << s.flat("flightrec_recorded")
     << ",\"flightrec_faults\":" << s.flat("flightrec_faults") << "}\n";
}

// The human-readable dashboard frame.
void write_top_text(std::ostream& os, const std::string& addr,
                    const TopSample& s, double rps) {
  char line[256];
  std::snprintf(line, sizeof line, "mbird top — %s   up %.1fs\n", addr.c_str(),
                static_cast<double>(s.flat("uptime_ms")) / 1e3);
  os << line;
  std::snprintf(line, sizeof line,
                "requests   served %lld   rate %.1f/s   peers %lld\n",
                static_cast<long long>(s.flat("served")), rps,
                static_cast<long long>(s.flat("peers")));
  os << line;
  if (const auto* lat = s.hist("serve.latency_us")) {
    std::snprintf(line, sizeof line,
                  "latency    p50 %lluus  p95 %lluus  p99 %lluus  (n=%llu)\n",
                  static_cast<unsigned long long>(lat->p50),
                  static_cast<unsigned long long>(lat->p95),
                  static_cast<unsigned long long>(lat->p99),
                  static_cast<unsigned long long>(lat->count));
    os << line;
  }
  if (const auto* lag = s.hist("rpc.reactor.loop_lag_ns")) {
    std::snprintf(line, sizeof line,
                  "loop lag   p50 %.1fus  p99 %.1fus  max %.1fus\n",
                  static_cast<double>(lag->p50) / 1e3,
                  static_cast<double>(lag->p99) / 1e3,
                  static_cast<double>(lag->max) / 1e3);
    os << line;
  }
  const uint64_t hits = s.cnt("crosscache.verdict.hits");
  const uint64_t misses = s.cnt("crosscache.verdict.misses");
  std::snprintf(
      line, sizeof line,
      "cache      hit ratio %.1f%% (hits %llu, misses %llu)\n",
      hits + misses == 0 ? 0.0
                         : 100.0 * static_cast<double>(hits) /
                               static_cast<double>(hits + misses),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses));
  os << line;
  std::snprintf(line, sizeof line,
                "reactor    queue depth %lld   stalls %llu   stalled %lld\n",
                static_cast<long long>(s.gauge("rpc.reactor.queue_depth")),
                static_cast<unsigned long long>(s.cnt("rpc.reactor.stalls")),
                static_cast<long long>(s.gauge("rpc.reactor.stalled")));
  os << line;
  std::snprintf(line, sizeof line, "flightrec  recorded %lld   faults %lld\n",
                static_cast<long long>(s.flat("flightrec_recorded")),
                static_cast<long long>(s.flat("flightrec_faults")));
  os << line;
  for (const auto& [peer, depth] : s.peer_inflight()) {
    std::snprintf(line, sizeof line, "  peer %llu inflight %lld\n",
                  static_cast<unsigned long long>(peer),
                  static_cast<long long>(depth));
    os << line;
  }
}

// ---- `mbird stats --stitch`: multi-process trace merge ----------------------
// Each input file becomes one pid in the merged Chrome trace. Files have
// independent epochs (each process's tracer starts its own clock), so the
// merge aligns them by the trace-context links the wire extension carried:
// a span whose parent_span_id lives in another file pins the two clocks
// together (child centered inside its parent). Cross-file parent→child
// links additionally get Chrome flow arrows ("s"/"f" events) so
// chrome://tracing draws the rpc hop.
struct StitchFile {
  std::string path;
  std::vector<TraceEvent> events;
  std::map<uint64_t, size_t> by_span;  // span_id → index into events
  double offset_us = 0;
};

struct StitchLink {
  size_t parent_file, parent_ev;
  size_t child_file, child_ev;
};

int run_stitch(const std::vector<std::string>& paths,
               const std::string& out_path, std::ostream& out,
               std::ostream& err) {
  std::vector<StitchFile> files;
  for (const std::string& p : paths) {
    auto text = read_file(p);
    if (!text) {
      err << "mbird: cannot read " << p << '\n';
      return 1;
    }
    StitchFile f;
    f.path = p;
    std::string perr;
    if (!parse_chrome_trace(*text, &f.events, &perr)) {
      err << "mbird: " << p << ": " << perr << '\n';
      return 2;
    }
    for (size_t k = 0; k < f.events.size(); ++k) {
      const uint64_t span = f.events[k].id_arg("span_id");
      if (span != 0) f.by_span.emplace(span, k);
    }
    files.push_back(std::move(f));
  }

  // Clock alignment, first file as the base: for every event whose parent
  // span lives in an earlier (already-aligned) file and shares its
  // trace_id, the child "should" sit centered inside the parent; average
  // the implied offsets over all such links.
  std::vector<StitchLink> links;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    double sum = 0;
    size_t n = 0;
    for (size_t ei = 0; ei < files[fi].events.size(); ++ei) {
      const TraceEvent& ev = files[fi].events[ei];
      const uint64_t parent = ev.id_arg("parent_span_id");
      const uint64_t trace = ev.id_arg("trace_id");
      if (parent == 0 || trace == 0) continue;
      if (files[fi].by_span.count(parent) != 0) continue;  // same-file nesting
      for (size_t fj = 0; fj < files.size(); ++fj) {
        if (fj == fi) continue;
        auto it = files[fj].by_span.find(parent);
        if (it == files[fj].by_span.end()) continue;
        const TraceEvent& pev = files[fj].events[it->second];
        if (pev.id_arg("trace_id") != trace) continue;
        links.push_back(StitchLink{fj, it->second, fi, ei});
        if (fi != 0 && fj < fi) {
          const double want = pev.ts + files[fj].offset_us +
                              (pev.dur - ev.dur) / 2.0;
          sum += want - ev.ts;
          ++n;
        }
        break;
      }
    }
    if (fi != 0 && n > 0) files[fi].offset_us = sum / static_cast<double>(n);
  }

  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&]() {
    if (!first) os << ",\n";
    first = false;
  };
  char num[64];
  for (size_t fi = 0; fi < files.size(); ++fi) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << fi + 1
       << ",\"args\":{\"name\":";
    os << '"';
    json_escape(os, files[fi].path);
    os << '"' << "}}";
  }
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const TraceEvent& ev : files[fi].events) {
      if (ev.ph != "X") continue;
      sep();
      os << "{\"name\":";
      os << '"';
      json_escape(os, ev.name);
      os << '"';
      os << ",\"cat\":\"mbird\",\"ph\":\"X\",\"pid\":" << fi + 1
         << ",\"tid\":" << ev.tid;
      std::snprintf(num, sizeof num, "%.3f", ev.ts + files[fi].offset_us);
      os << ",\"ts\":" << num;
      std::snprintf(num, sizeof num, "%.3f", ev.dur);
      os << ",\"dur\":" << num;
      if (!ev.args.empty()) {
        os << ",\"args\":{";
        bool afirst = true;
        for (const auto& [k, v] : ev.args) {
          if (!afirst) os << ",";
          afirst = false;
          os << '"';
          json_escape(os, k);
          os << "\":\"";
          json_escape(os, v);
          os << '"';
        }
        os << "}";
      }
      os << "}";
    }
  }
  for (const StitchLink& ln : links) {
    const TraceEvent& p = files[ln.parent_file].events[ln.parent_ev];
    const TraceEvent& c = files[ln.child_file].events[ln.child_ev];
    char id[32];
    std::snprintf(id, sizeof id, "%016llx",
                  static_cast<unsigned long long>(c.id_arg("span_id")));
    sep();
    std::snprintf(num, sizeof num, "%.3f",
                  p.ts + files[ln.parent_file].offset_us);
    os << "{\"name\":\"rpc\",\"cat\":\"mbird.flow\",\"ph\":\"s\",\"id\":\"0x"
       << id << "\",\"pid\":" << ln.parent_file + 1 << ",\"tid\":" << p.tid
       << ",\"ts\":" << num << "}";
    sep();
    std::snprintf(num, sizeof num, "%.3f",
                  c.ts + files[ln.child_file].offset_us);
    os << "{\"name\":\"rpc\",\"cat\":\"mbird.flow\",\"ph\":\"f\",\"bp\":\"e\","
          "\"id\":\"0x"
       << id << "\",\"pid\":" << ln.child_file + 1 << ",\"tid\":" << c.tid
       << ",\"ts\":" << num << "}";
  }
  os << (first ? "" : "\n") << "],\"displayTimeUnit\":\"ms\"}\n";

  if (out_path.empty()) {
    out << os.str();
  } else if (!write_file(out_path, os.str())) {
    err << "mbird: cannot write " << out_path << '\n';
    return 1;
  } else {
    out << "stitched " << files.size() << " traces, " << links.size()
        << " cross-process links";
    if (!out_path.empty()) out << " -> " << out_path;
    out << '\n';
  }
  return 0;
}

int run_command(const std::vector<std::string>& args, bool json_diags,
                std::ostream& out, std::ostream& err) {
  Session s(err, json_diags);

  size_t i = 0;
  auto next_arg = [&](const std::string& flag) -> std::optional<std::string> {
    if (i + 1 >= args.size()) {
      err << "mbird: " << flag << " requires an argument\n";
      return std::nullopt;
    }
    return args[++i];
  };

  // ---- input phase ----------------------------------------------------------
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (!starts_with(a, "--")) break;  // command reached

    auto want_file = [&]() -> std::optional<std::string> {
      auto p = next_arg(a);
      if (!p) return std::nullopt;
      return p;
    };

    if (a == "--c" || a == "--java" || a == "--idl") {
      auto path = want_file();
      if (!path) return 2;
      auto text = read_file(*path);
      if (!text) {
        err << "mbird: cannot read " << *path << '\n';
        return 1;
      }
      Lang lang = a == "--c" ? Lang::Cpp : a == "--java" ? Lang::Java : Lang::Idl;
      load_source(s, lang, *path, *text);
    } else if (a == "--classfile") {
      auto path = want_file();
      if (!path) return 2;
      auto text = read_file(*path);
      if (!text) {
        err << "mbird: cannot read " << *path << '\n';
        return 1;
      }
      Module m(Lang::Java, *path);
      std::vector<uint8_t> bytes(text->begin(), text->end());
      javaclass::parse_class_into(m, bytes, s.diags);
      s.modules.push_back(std::move(m));
      // class files are binary; they are not recorded into projects.
    } else if (a == "--project") {
      auto path = want_file();
      if (!path) return 2;
      auto text = read_file(*path);
      if (!text) {
        err << "mbird: cannot read " << *path << '\n';
        return 1;
      }
      project::Project p = project::parse_project(*text, s.diags);
      auto mods = project::load_modules(p, s.diags);
      for (auto& m : mods) s.modules.push_back(std::move(m));
      for (auto& src : p.sources) s.record.sources.push_back(src);
      for (auto& sc : p.scripts) s.record.scripts.push_back(sc);
    } else if (a == "--script" || a == "--annotate") {
      std::string text;
      std::string name;
      if (a == "--script") {
        auto path = want_file();
        if (!path) return 2;
        auto t = read_file(*path);
        if (!t) {
          err << "mbird: cannot read " << *path << '\n';
          return 1;
        }
        text = *t;
        name = *path;
      } else {
        auto t = next_arg(a);
        if (!t) return 2;
        text = *t;
        name = "<inline>";
      }
      if (s.modules.empty()) {
        err << "mbird: " << a << " must follow an input\n";
        return 2;
      }
      annotate::run_script(text, name, s.modules.back(), s.diags);
      s.record.scripts.push_back({s.modules.back().name(), text});
    } else {
      err << "mbird: unknown option " << a << '\n';
      return usage(err);
    }
  }

  if (s.diags.has_errors()) return 1;
  if (i >= args.size()) return usage(err);
  std::string cmd = args[i++];

  // ---- command phase -----------------------------------------------------------
  if (cmd == "list") {
    for (const auto& m : s.modules) {
      out << m.name() << " (" << stype::to_string(m.lang()) << ")\n";
      for (const auto& name : m.decl_order()) {
        out << "  " << name << '\n';
      }
    }
    return 0;
  }

  if (cmd == "show" || cmd == "mtype" || cmd == "diagram") {
    if (i >= args.size()) return usage(err);
    std::string decl_name;
    Module* m = s.find_decl(args[i], &decl_name);
    if (m == nullptr) {
      err << "mbird: unknown declaration '" << args[i] << "'\n";
      return 1;
    }
    if (cmd == "show") {
      std::string head = decl_name.substr(0, decl_name.find('.'));
      Stype* d = m->find(head);
      out << stype::print_decl(d) << '\n';
      return 0;
    }
    mtype::Graph g;
    mtype::Ref r = lower::lower_decl(*m, g, decl_name, s.diags);
    if (r == mtype::kNullRef || s.diags.has_errors()) return 1;
    out << (cmd == "mtype" ? mtype::print(g, r) + "\n" : mtype::diagram(g, r));
    return 0;
  }

  if (cmd == "compare") {
    // The one-shot path rides the same ServiceCore as the batch driver and
    // the serve daemon: with --cache, a verdict resolved by an earlier run
    // (or a batch) replays from the durable store without re-comparing.
    if (i + 1 >= args.size()) return usage(err);
    const std::string spec_a = args[i];
    const std::string spec_b = args[i + 1];
    i += 2;
    std::string cache_path;
    for (; i < args.size(); ++i) {
      if (args[i] == "--cache" && i + 1 < args.size()) {
        cache_path = args[++i];
      } else {
        err << "mbird: unknown compare option '" << args[i] << "'\n";
        return 2;
      }
    }
    service::ServiceCore core(s.modules, s.diags);
    if (!cache_path.empty()) {
      std::string serr;
      if (!core.open_cache(cache_path, &serr)) {
        err << "mbird: cannot open cache " << cache_path << ": " << serr
            << '\n';
        return 1;
      }
    }
    service::PairOutcome o;
    std::string cerr_msg;
    if (!core.compile_spec(spec_a, spec_b, &o, &cerr_msg)) {
      err << "mbird: " << cerr_msg << '\n';
      return 1;
    }
    if (!cache_path.empty()) {
      std::string ferr;
      if (!core.flush_cache(&ferr)) {
        err << "mbird: cache flush failed: " << ferr << '\n';
        return 1;
      }
    }
    out << compare::to_string(o.verdict) << '\n';
    if (o.verdict == compare::Verdict::Mismatch) {
      if (!o.mismatch.empty()) out << o.mismatch << '\n';
      return 1;
    }
    return 0;
  }

  if (cmd == "plan" || cmd == "gen") {
    if (i + 1 >= args.size()) return usage(err);
    std::string name_a, name_b;
    Module* ma = s.find_decl(args[i], &name_a);
    Module* mb = s.find_decl(args[i + 1], &name_b);
    if (ma == nullptr || mb == nullptr) {
      err << "mbird: unknown declaration '" << args[ma ? i + 1 : i] << "'\n";
      return 1;
    }
    i += 2;

    mtype::Graph ga, gb;
    mtype::Ref ra = lower::lower_decl(*ma, ga, name_a, s.diags);
    mtype::Ref rb = lower::lower_decl(*mb, gb, name_b, s.diags);
    if (ra == mtype::kNullRef || rb == mtype::kNullRef || s.diags.has_errors()) {
      return 1;
    }

    auto full = compare::compare_full(ga, ra, gb, rb);
    if (full.verdict != compare::Verdict::Equivalent &&
        full.verdict != compare::Verdict::LeftSubtype) {
      err << "mbird: no left-to-right conversion exists ("
          << compare::to_string(full.verdict) << ")\n";
      if (full.to_right.mismatch.valid) {
        err << full.to_right.mismatch.to_string() << '\n';
      }
      return 1;
    }
    if (cmd == "plan") {
      // `plan A B --emit-ir` dumps the flat PlanIR the runtime engine and
      // the stub generator actually execute, instead of the plan tree.
      // `--emit-ir=native` fuses the plan with A's native memory layout and
      // dumps the zero-copy marshal program (Load*/BlockCopy over the image).
      bool emit_ir = false, emit_native = false;
      for (; i < args.size(); ++i) {
        if (args[i] == "--emit-ir") emit_ir = true;
        else if (args[i] == "--emit-ir=native") emit_native = true;
      }
      if (emit_native) {
        stype::Stype* src_ty = ma->find(name_a);
        if (src_ty == nullptr) {
          err << "mbird: declaration '" << name_a << "' has no source type\n";
          return 1;
        }
        try {
          runtime::LayoutEngine engine(*ma);
          auto layout = std::make_shared<const runtime::ImageLayout>(
              runtime::image_layout_of(engine, src_ty));
          planir::Program prog = planir::compile_native_marshal(
              full.to_right.plan, full.to_right.root, gb, rb,
              std::move(layout));
          planir::require_valid(prog);
          out << planir::disassemble(prog);
        } catch (const MbError& e) {
          err << "mbird: " << e.what() << '\n';
          return 1;
        }
      } else if (emit_ir) {
        planir::Program prog =
            planir::compile(full.to_right.plan, full.to_right.root);
        planir::require_valid(prog);
        out << planir::disassemble(prog);
      } else {
        out << plan::print(full.to_right.plan, full.to_right.root);
      }
      return 0;
    }

    // gen
    std::string stub_name = "stub";
    std::string out_dir;
    for (; i < args.size(); ++i) {
      if (args[i] == "--name" && i + 1 < args.size()) stub_name = args[++i];
      else if (args[i] == "-o" && i + 1 < args.size()) out_dir = args[++i];
    }
    codegen::Options copts;
    copts.emit_marshaler = true;
    auto stub = codegen::generate_c_stub(ga, ra, gb, rb, full.to_right.plan,
                                         full.to_right.root, stub_name, copts);
    if (out_dir.empty()) {
      out << stub.header << '\n' << stub.source;
    } else {
      std::string h = out_dir + "/" + stub_name + ".h";
      std::string c = out_dir + "/" + stub_name + ".c";
      if (!write_file(h, stub.header) || !write_file(c, stub.source)) {
        err << "mbird: cannot write stub files to " << out_dir << '\n';
        return 1;
      }
      out << "wrote " << h << " and " << c << '\n';
    }
    return 0;
  }

  if (cmd == "batch") {
    if (i >= args.size()) return usage(err);
    std::string manifest_path = args[i++];
    BatchOptions bopts;
    for (; i < args.size(); ++i) {
      if (args[i] == "--jobs" && i + 1 < args.size()) {
        auto v = parse_count("--jobs", args[++i], err);
        if (!v) return usage(err);
        if (*v == 0) {
          err << "mbird: --jobs must be at least 1\n";
          return usage(err);
        }
        bopts.jobs = *v;
      } else if (args[i] == "--chunk" && i + 1 < args.size()) {
        auto v = parse_count("--chunk", args[++i], err);
        if (!v) return usage(err);
        bopts.chunk = *v;  // 0 = auto
      } else if (args[i] == "--out" && i + 1 < args.size()) {
        bopts.out_path = args[++i];
      } else if (args[i] == "--cache" && i + 1 < args.size()) {
        bopts.cache_path = args[++i];
      } else {
        err << "mbird: unknown batch option '" << args[i] << "'\n";
        return 2;
      }
    }
    // Streamed, not slurped: a 100k-pair manifest is processed in
    // kStreamBlock-line blocks with bounded memory (see batch.hpp).
    std::ifstream manifest(manifest_path, std::ios::binary);
    if (!manifest) {
      err << "mbird: cannot read " << manifest_path << '\n';
      return 1;
    }
    return run_batch(s.modules, manifest, manifest_path, s.diags, bopts, out,
                     err);
  }

  if (cmd == "serve") {
    service::ServeOptions sopts;
    std::string requests_path;
    std::string listen_addr;
    uint64_t max_requests = 0;
    std::optional<std::string> flightrec_path;
    for (; i < args.size(); ++i) {
      if (args[i] == "--cache" && i + 1 < args.size()) {
        sopts.cache_path = args[++i];
      } else if (args[i] == "--requests" && i + 1 < args.size()) {
        requests_path = args[++i];
      } else if (args[i] == "--listen" && i + 1 < args.size()) {
        listen_addr = args[++i];
      } else if (args[i] == "--max-requests" && i + 1 < args.size()) {
        max_requests = std::strtoull(args[++i].c_str(), nullptr, 10);
      } else if (args[i] == "--flightrec" && i + 1 < args.size()) {
        // Fault-dump destination; "none" disables the on-fault file (the
        // telemetry port can still read the rings).
        flightrec_path = args[++i];
        if (*flightrec_path == "none") flightrec_path = "";
      } else {
        err << "mbird: unknown serve option '" << args[i] << "'\n";
        return 2;
      }
    }
    if (!listen_addr.empty()) {
      service::ServeListenOptions lopts;
      lopts.cache_path = sopts.cache_path;
      lopts.max_requests = max_requests;
      if (flightrec_path) lopts.flightrec_path = *flightrec_path;
      return service::run_serve_listen(s.modules, listen_addr, s.diags, lopts,
                                       out, err);
    }
    if (requests_path.empty()) {
      return service::run_serve(s.modules, std::cin, "<stdin>", s.diags, sopts,
                                out, err);
    }
    std::ifstream requests(requests_path, std::ios::binary);
    if (!requests) {
      err << "mbird: cannot read " << requests_path << '\n';
      return 1;
    }
    return service::run_serve(s.modules, requests, requests_path, s.diags,
                              sopts, out, err);
  }

  if (cmd == "stats") {
    if (i < args.size() && args[i] == "--stitch") {
      ++i;
      std::vector<std::string> trace_files;
      std::string out_path;
      for (; i < args.size(); ++i) {
        if (args[i] == "-o" && i + 1 < args.size()) out_path = args[++i];
        else if (starts_with(args[i], "--")) {
          err << "mbird: unknown stitch option '" << args[i] << "'\n";
          return 2;
        } else {
          trace_files.push_back(args[i]);
        }
      }
      if (trace_files.size() < 2) {
        err << "mbird: stats --stitch needs at least two trace files\n";
        return 2;
      }
      return run_stitch(trace_files, out_path, out, err);
    }
    obs::Registry::Snapshot snap;
    if (i < args.size()) {
      auto text = read_file(args[i]);
      if (!text) {
        err << "mbird: cannot read " << args[i] << '\n';
        return 1;
      }
      std::string perr;
      auto parsed = parse_metrics_json(*text, &perr);
      if (!parsed) {
        // Exit 2 — usage-class failure, distinct from I/O's exit 1 — so
        // scripted consumers can tell "bad snapshot" from "missing file".
        err << "mbird: " << args[i] << ": " << perr << '\n';
        return 2;
      }
      snap = std::move(*parsed);
    } else {
      // No file: this process's own registry (counters the input phase of
      // this very invocation touched, if any).
      snap = obs::Registry::global().snapshot();
    }
    out << snap.to_text();
    return 0;
  }

  if (cmd == "top") {
    std::string addr;
    bool once = false, json = false, raw = false, rings = false;
    size_t interval_ms = 1000;
    size_t samples = 0;  // 0: until killed
    int timeout_ms = 5000;
    for (; i < args.size(); ++i) {
      if (args[i] == "--connect" && i + 1 < args.size()) {
        addr = args[++i];
      } else if (args[i] == "--once") {
        once = true;
      } else if (args[i] == "--json") {
        json = true;
      } else if (args[i] == "--raw") {
        raw = true;
      } else if (args[i] == "--rings") {
        rings = true;
      } else if (args[i] == "--interval" && i + 1 < args.size()) {
        auto v = parse_count("--interval", args[++i], err);
        if (!v || *v == 0) return usage(err);
        interval_ms = *v;
      } else if (args[i] == "--samples" && i + 1 < args.size()) {
        auto v = parse_count("--samples", args[++i], err);
        if (!v) return usage(err);
        samples = *v;
      } else if (args[i] == "--timeout" && i + 1 < args.size()) {
        auto v = parse_count("--timeout", args[++i], err);
        if (!v) return usage(err);
        timeout_ms = static_cast<int>(*v);
      } else {
        err << "mbird: unknown top option '" << args[i] << "'\n";
        return 2;
      }
    }
    if (addr.empty()) {
      err << "mbird: top requires --connect <addr>\n";
      return usage(err);
    }
    try {
      service::ServeProtocol proto;
      if (raw) {
        // The unprocessed telemetry reply — with --rings this is the
        // on-demand flight-recorder dump path (no --trace, no restart).
        out << service::fetch_telemetry(proto, addr, rings, timeout_ms);
        return 0;
      }
      std::optional<TopSample> prev;
      for (size_t n = 0; once || samples == 0 || n < samples; ++n) {
        const std::string reply =
            service::fetch_telemetry(proto, addr, rings, timeout_ms);
        TopSample sample;
        std::string perr;
        if (!parse_telemetry(reply, &sample, &perr)) {
          err << "mbird: telemetry reply: " << perr << '\n';
          return 2;
        }
        const double rps = top_rate(sample, prev ? &*prev : nullptr);
        if (json) {
          write_top_json(out, sample, rps);
        } else {
          if (!once && samples != 1) out << "\x1b[2J\x1b[H";  // clear screen
          write_top_text(out, addr, sample, rps);
        }
        out.flush();
        if (once) break;
        prev = std::move(sample);
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
      return 0;
    } catch (const std::exception& e) {
      err << "mbird: top: " << e.what() << '\n';
      return 1;
    }
  }

  if (cmd == "save") {
    if (i >= args.size()) return usage(err);
    // Sources plus the *exported* current annotations: the export already
    // reflects everything earlier scripts applied, so recorded scripts are
    // not duplicated into the project.
    project::Project p;
    p.sources = s.record.sources;
    for (const auto& m : s.modules) {
      p.scripts.push_back({m.name(), project::export_annotations(m)});
    }
    if (!write_file(args[i], project::serialize(p))) {
      err << "mbird: cannot write " << args[i] << '\n';
      return 1;
    }
    out << "saved " << args[i] << '\n';
    return 0;
  }

  err << "mbird: unknown command '" << cmd << "'\n";
  return usage(err);
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  // ---- global observability flags ------------------------------------------
  // Stripped before the normal input/command scan so they are valid anywhere
  // on the line (`mbird batch m.txt --jobs 4 --trace t.json` included).
  std::string trace_path, metrics_path, diag_format = "text";
  std::vector<std::string> rest;
  rest.reserve(args.size());
  for (size_t k = 0; k < args.size(); ++k) {
    const std::string& a = args[k];
    auto value_of = [&]() -> std::optional<std::string> {
      if (k + 1 >= args.size()) {
        err << "mbird: " << a << " requires an argument\n";
        return std::nullopt;
      }
      return args[++k];
    };
    if (a == "--trace") {
      auto v = value_of();
      if (!v) return 2;
      trace_path = *v;
    } else if (starts_with(a, "--trace=")) {
      trace_path = a.substr(8);
    } else if (a == "--metrics") {
      auto v = value_of();
      if (!v) return 2;
      metrics_path = *v;
    } else if (starts_with(a, "--metrics=")) {
      metrics_path = a.substr(10);
    } else if (a == "--diag-format") {
      auto v = value_of();
      if (!v) return 2;
      diag_format = *v;
    } else if (starts_with(a, "--diag-format=")) {
      diag_format = a.substr(14);
    } else {
      rest.push_back(a);
    }
  }
  if (diag_format != "text" && diag_format != "json") {
    err << "mbird: --diag-format expects 'text' or 'json', got '"
        << diag_format << "'\n";
    return usage(err);
  }
  if (!trace_path.empty()) {
    obs::Tracer::global().enable();
    obs::set_metrics_on(true);  // span duration notes want the timed tier
  }
  if (!metrics_path.empty()) obs::set_metrics_on(true);

  int rc = run_command(rest, diag_format == "json", out, err);

  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (!write_file(trace_path, obs::Tracer::global().chrome_json())) {
      err << "mbird: cannot write " << trace_path << '\n';
      if (rc == 0) rc = 1;
    }
  }
  if (!metrics_path.empty()) {
    if (!write_file(metrics_path,
                    obs::Registry::global().snapshot().to_json() + "\n")) {
      err << "mbird: cannot write " << metrics_path << '\n';
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

}  // namespace mbird::tool
