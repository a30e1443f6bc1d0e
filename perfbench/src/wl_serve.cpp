// serve_compile and echo_bulk: the daemon as shipped (`mbird serve --listen
// unix:`), driven by one client thread over real unix sockets.
//
// Client rules (perfbench/README.md gives the measurements behind them):
// waits block on socket readiness (no sleeps, no spinning) and poll only
// readable connections; one request in flight per connection; the client
// keeps the library's default ReliabilityOptions; every run starts its own
// daemon and reaps it.
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>

#include "corpus.hpp"
#include "daemon.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "support/error.hpp"
#include "tool/metrics_reader.hpp"
#include "transport/socket.hpp"
#include "wire/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mbird::runtime::Value;
namespace svc = mbird::service;
using Snapshot = mbird::obs::Registry::Snapshot;

constexpr uint64_t kOpTimeoutNs = 20'000'000'000ull;  // a reply this late fails
constexpr uint64_t kTracedOpCap = 30000;  // bounds span memory on both sides
constexpr size_t kEchoBytes = 128 * 1024;

std::string make_dir(const Options& o, const std::string& tag) {
  static int counter = 0;
  const std::string dir = o.workdir + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  ::mkdir(o.workdir.c_str(), 0755);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + dir);
  }
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// One client connection: an rpc::Node over a dialed unix socket, with at
/// most one request in flight.
struct Conn {
  int fd = -1;
  std::unique_ptr<mbird::rpc::Node> node;
  bool busy = false;
  uint64_t t0 = 0;     // op start
  size_t req = 0;      // request index in the workload's stream
  std::optional<Value> reply;
};

/// Outcome of one reply: when the op ended and whether the answer is right.
struct Finish {
  uint64_t t_end = 0;
  bool ok = false;
};

struct Loop {
  /// Prepare and send the next request on `c`; false when the stream is
  /// exhausted. Sets c.t0 when the op starts.
  std::function<bool(Conn&)> issue;
  /// In-op handling of c.reply, then the oracle check.
  std::function<Finish(Conn&)> finish;
};

std::vector<Conn> connect_all(const std::string& addr, int n) {
  std::vector<Conn> conns(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Conn& c = conns[static_cast<size_t>(i)];
    c.fd = mbird::transport::dial_fd(addr);
    c.node = std::make_unique<mbird::rpc::Node>(static_cast<uint16_t>(2 + i));
    c.node->connect(svc::kServeNodeId, mbird::transport::polled_socket_link(c.fd));
  }
  return conns;
}

/// Closed loop: every connection keeps one request in flight until
/// `seconds` pass or `max_ops` replies arrive, then the in-flight requests
/// drain. Wall time runs to the last reply.
void closed_loop(std::vector<Conn>& conns, Daemon& d, double seconds,
                 uint64_t max_ops, bool spans, const Loop& loop, Window& w,
                 Result& r) {
  using mbird::obs::Span;
  const double cpu0 = cpu_seconds(d.pid());
  const uint64_t start = now_ns();
  const uint64_t end =
      seconds > 0 ? start + static_cast<uint64_t>(seconds * 1e9) : UINT64_MAX;
  uint64_t last = start;
  auto more = [&] {
    return now_ns() < end && (max_ops == 0 || w.ops() < max_ops);
  };
  bool dead = false;
  auto issue = [&](Conn& c) {
    std::optional<Span> s;
    if (spans) s.emplace("rpc.client_send");
    try {
      c.busy = loop.issue(c);
    } catch (const mbird::TransportError&) {
      c.busy = true;  // failed below with the other in-flight requests
      dead = true;
    }
  };
  for (auto& c : conns) issue(c);

  std::vector<pollfd> pfds;
  std::vector<Conn*> who;
  while (!dead) {
    pfds.clear();
    who.clear();
    for (auto& c : conns) {
      if (c.busy) {
        pfds.push_back({c.fd, POLLIN, 0});
        who.push_back(&c);
      }
    }
    if (pfds.empty()) break;
    int n;
    {
      std::optional<Span> s;
      if (spans) s.emplace("rpc.client_wait");
      n = ::poll(pfds.data(), pfds.size(), 1000);
    }
    if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (n <= 0) {
      // A second without a readable socket: the daemon died, or a request
      // is stuck. Give every node one poll so its timers can act.
      if (!d.alive()) dead = true;
      for (Conn* c : who) {
        c->node->poll();
        if (!c->reply && now_ns() - c->t0 > kOpTimeoutNs) dead = true;
      }
      if (!dead) {
        for (size_t k = 0; k < who.size(); ++k) pfds[k].revents = POLLIN;
      }
    }
    for (size_t k = 0; k < pfds.size() && !dead; ++k) {
      if (pfds[k].revents == 0) continue;
      Conn& c = *who[k];
      {
        std::optional<Span> s;
        if (spans) s.emplace("rpc.client_poll");
        c.node->poll();
      }
      if ((pfds[k].revents & (POLLHUP | POLLERR)) != 0 && !c.reply) {
        dead = true;  // the daemon closed the connection mid-request
        break;
      }
      if (!c.reply) continue;
      const Finish f = loop.finish(c);
      c.reply.reset();
      r.attempted++;
      if (f.ok) {
        w.add(c.t0, f.t_end, spans);
      } else {
        r.fail();
      }
      last = f.t_end;
      c.busy = false;
      if (more()) issue(c);
    }
  }
  if (dead) {
    // Every request still in flight when the daemon died counts as failed.
    for (auto& c : conns) {
      if (c.busy) {
        r.attempted++;
        r.fail();
        c.busy = false;
      }
    }
    r.info["daemon_died"] = "1";
  }
  w.start = start;
  w.end = last;
  w.cpu_s = cpu_seconds(d.pid()) - cpu0;
}

Snapshot telemetry(const svc::ServeProtocol& proto, const std::string& addr) {
  const std::string json = svc::fetch_telemetry(proto, addr, false);
  std::string err;
  auto snap = mbird::tool::parse_metrics_json(json, &err);
  if (!snap) throw std::runtime_error("bad telemetry reply: " + err);
  return *snap;
}

double ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

/// Per-layer metrics read from the daemon's registry and the client's
/// (rpc reliability, chunking, reactor, pool) over a traced window.
void report_rpc_layers(Result& r, const Snapshot& d0, const Snapshot& d1,
                       const Snapshot& c0, const Snapshot& c1, double ops,
                       uint64_t ctx_delta) {
  auto both = [&](const char* name) {
    return static_cast<double>(counter_delta(d0, d1, name) +
                               counter_delta(c0, c1, name));
  };
  r.set("rpc.frames_per_op", both("rpc.frames_sent") / ops, "count");
  r.set("rpc.acks_per_op", both("rpc.acks_sent") / ops, "count");
  r.set("rpc.retransmits_per_kop", both("rpc.retransmits") * 1000 / ops, "count");
  r.set("rpc.duplicates_per_kop", both("rpc.duplicates_dropped") * 1000 / ops,
        "count");
  r.set("rpc.bytes_per_op", both("rpc.bytes_sent") / ops, "B");
  r.set("rpc.chunks_per_op", both("rpc.chunks_sent") / ops, "count");
  r.set("rpc.reassembled_per_op", both("rpc.messages_reassembled") / ops, "count");
  r.set("wire.pool_reuse_ratio",
        ratio(counter_delta(d0, d1, "wire.pool.reused"),
              counter_delta(d0, d1, "wire.pool.acquired")),
        "ratio");
  auto hist = [&](const char* name) -> const mbird::obs::Registry::HistView* {
    auto it = d1.histograms.find(name);
    return it == d1.histograms.end() ? nullptr : &it->second;
  };
  if (const auto* lag = hist("rpc.reactor.loop_lag_ns")) {
    r.set("reactor.loop_lag_p50_us", static_cast<double>(lag->p50) / 1e3, "us");
    r.set("reactor.loop_lag_p99_us", static_cast<double>(lag->p99) / 1e3, "us");
  } else {
    r.absent["reactor.loop_lag_p50_us"] = "daemon exports no rpc.reactor.loop_lag_ns";
    r.absent["reactor.loop_lag_p99_us"] = "daemon exports no rpc.reactor.loop_lag_ns";
  }
  bool present = false;
  const uint64_t stalls = counter_delta(d0, d1, "rpc.reactor.stalls", &present);
  if (present) r.set("reactor.stalls", static_cast<double>(stalls), "count");
  // serve.latency_us holds nanoseconds (obs::ScopedTimer records now_ns()).
  if (const auto* lat = hist("serve.latency_us")) {
    r.set("serve.handler_p50_us", static_cast<double>(lat->p50) / 1e3, "us");
  }
  r.set("daemon.ctx_switches_per_op", static_cast<double>(ctx_delta) / ops, "count");
}

/// Client-side span metrics: per-op send, poll and wait time.
void report_client_spans(Result& r, const TraceSummary& ts, double ops) {
  auto total = [&](const char* name) {
    double t = 0;
    if (auto it = ts.dur_us.find(name); it != ts.dur_us.end()) {
      for (double d : it->second) t += d;
    }
    return t / ops;
  };
  r.set("rpc.client_send_us", total("rpc.client_send"), "us");
  r.set("rpc.client_poll_us", total("rpc.client_poll"), "us");
  r.set("rpc.client_wait_us", total("rpc.client_wait"), "us");
  report_trace(r, ts, ops);
}

/// The shared daemon workload runner. `prepare` writes the daemon's input
/// files into its directory and returns the command-line arguments that
/// precede `serve`; `warm` runs after connecting, as part of set-up.
struct ServeSpec {
  const char* name;
  int connections;
  int setups;
  std::function<std::vector<std::string>(const std::string& dir)> prepare;
  std::function<void(std::vector<Conn>&, Daemon&)> warm;
  Loop timed;
  /// Per-layer metrics this workload adds from its traced window.
  std::function<void(Result&, const Snapshot& d0, const Snapshot& d1,
                     double ops)>
      layers;
  std::string absent_reason;
  std::function<void()> before_traced = [] {};
};

struct Session {
  std::string dir;
  std::unique_ptr<Daemon> daemon;
  std::vector<Conn> conns;
  std::string addr;
};

Session start_session(const Options& o, const ServeSpec& spec, bool traced) {
  Session s;
  s.dir = make_dir(o, spec.name);
  std::vector<std::string> args;
  if (traced) {
    args.push_back("--trace");
    args.push_back("daemon.trace.json");
  }
  for (auto& a : spec.prepare(s.dir)) args.push_back(a);
  for (const char* a : {"serve", "--listen", "unix:d.sock", "--flightrec",
                        "flightrec.json"}) {
    args.push_back(a);
  }
  s.daemon = std::make_unique<Daemon>(o.mbird, s.dir, args);
  s.addr = "unix:" + s.dir + "/d.sock";
  s.conns = connect_all(s.addr, spec.connections);
  spec.warm(s.conns, *s.daemon);
  return s;
}

void remove_dir(const std::string& dir) {
  for (const char* f : {"d.sock", "daemon.trace.json", "client.trace.json",
                        "stitched.json", "flightrec.json", "classes.hpp",
                        "classes.hpp.mba", "Classes.java", "Classes.java.mba",
                        "messages.idl", "Messages.java", "Messages.java.mba"}) {
    ::unlink((dir + "/" + f).c_str());
  }
  ::rmdir(dir.c_str());
}

void run_serve_workload(const Options& o, const ServeSpec& spec, Result& r) {
  r.info["connections"] = std::to_string(spec.connections);
  std::vector<double> setups;
  Session s;
  for (int i = 0; i < setup_count(o, spec.setups); ++i) {
    if (s.daemon) {
      s.conns.clear();
      s.daemon->stop();
      remove_dir(s.dir);
    }
    const uint64_t t0 = now_ns();
    s = start_session(o, spec, false);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.info["daemon_ready_line"] = s.daemon->ready_line();

  Window w;
  closed_loop(s.conns, *s.daemon, o.trace ? half_seconds(o) : o.seconds, 0,
              false, spec.timed, w, r);
  const double rss = vm_hwm_mib(s.daemon->pid());
  s.conns.clear();
  s.daemon->stop();
  remove_dir(s.dir);
  if (!o.trace) {
    report_end_to_end(r, w, setups, rss);
    return;
  }

  // Traced half: a fresh daemon started with --trace, client spans and the
  // program's timed metrics on, registry deltas read over telemetry.
  Session t = start_session(o, spec, true);
  spec.before_traced();
  auto& tracer = mbird::obs::Tracer::global();
  const svc::ServeProtocol proto;
  const Snapshot d0 = telemetry(proto, t.addr);
  const Snapshot c0 = mbird::obs::Registry::global().snapshot();
  const uint64_t ctx0 = ctx_switches(t.daemon->pid());
  Window tw;
  mbird::obs::set_metrics_on(true);
  tracer.enable();
  const uint64_t window_t0 = now_ns();
  {
    mbird::obs::Span window("bench.window");
    closed_loop(t.conns, *t.daemon, half_seconds(o), kTracedOpCap, true,
                spec.timed, tw, r);
  }
  tracer.disable();
  mbird::obs::set_metrics_on(false);
  const uint64_t ctx1 = ctx_switches(t.daemon->pid());
  const Snapshot c1 = mbird::obs::Registry::global().snapshot();
  const Snapshot d1 = telemetry(proto, t.addr);
  t.conns.clear();
  t.daemon->stop();

  const TraceSummary ts = summarize_trace(window_t0, tw.intervals);
  const double ops = static_cast<double>(std::max<uint64_t>(tw.ops(), 1));
  report_rpc_layers(r, d0, d1, c0, c1, ops, ctx1 - ctx0);
  report_client_spans(r, ts, ops);
  report_trace_overhead(r, w, tw);
  spec.layers(r, d0, d1, ops);

  // Join the daemon's serve.request spans to the client's spans; the
  // command's one output line reports the cross-process links it found.
  write_file(t.dir + "/client.trace.json", tracer.chrome_json());
  Daemon stitch(o.mbird, t.dir,
                {"stats", "--stitch", "daemon.trace.json", "client.trace.json",
                 "-o", "stitched.json"});
  r.info["stitch"] = stitch.ready_line();
  stitch.stop();
  remove_dir(t.dir);
  mark_unmeasured_absent(r, spec.absent_reason);
}

/// In-process parse and lower of the corpus the daemon loads, timed for
/// the frontend and lowering layer metrics.
void report_corpus_layers(Result& r, const Corpus& corpus) {
  std::vector<double> parse_ms, lower_ms;
  size_t nodes = 0;
  for (int i = 0; i < 3; ++i) {
    std::vector<mbird::stype::Module> modules;
    mbird::DiagnosticEngine diags;
    const uint64_t t0 = now_ns();
    if (!load_corpus(corpus, modules, diags)) return;
    const uint64_t t1 = now_ns();
    svc::ServiceCore core(modules, diags);
    for (const auto& p : corpus.pairs) {
      std::string err;
      (void)core.lower_left(p.left, &err);
      (void)core.lower_right(p.right, &err);
    }
    parse_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    lower_ms.push_back(static_cast<double>(now_ns() - t1) / 1e6);
    nodes = core.left_graph().size() + core.right_graph().size();
  }
  r.set("frontend.parse_ms", median(parse_ms), "ms");
  r.set("lower.lower_ms", median(lower_ms), "ms");
  r.set("mtype.graph_nodes", static_cast<double>(nodes), "count");
}

}  // namespace

void run_serve_compile(const Options& o, Result& r) {
  // The daemon's cold pass is superlinear in the corpus (each request's
  // on-demand lowering grows the graphs, and the freeze and compile that
  // follow slow down with them): 40 pairs take about a second, 80 pairs
  // about nine, and the full compile_cold corpus does not finish within a
  // run. serve_compile therefore loads a smaller corpus from the same
  // generator.
  Corpus corpus = make_corpus(o.seed, o.tiny ? 12 : 30, o.tiny ? 4 : 10);
  if (o.plant_wrong) {
    corpus.pairs[0].expected =
        corpus.pairs[0].expected == mbird::compare::Verdict::Mismatch
            ? mbird::compare::Verdict::Equivalent
            : mbird::compare::Verdict::Mismatch;
  }
  const svc::ServeProtocol proto;
  const mbird::mtype::Ref reply_type =
      mbird::rpc::reply_msg_type(proto.g, proto.invocation);
  std::vector<Value> requests;
  for (const auto& p : corpus.pairs) {
    requests.push_back(
        Value::record({Value::string(p.left), Value::string(p.right)}));
  }

  // Seeded request order for the timed window; the hash covers the corpus
  // and the stream's first 4096 requests.
  Rng order = Rng::derive(o.seed, "serve_compile.requests");
  InputHash h;
  for (const auto& f : corpus.files) {
    h.add(f.text);
    h.add(f.script);
  }
  {
    Rng peek = order;
    for (int i = 0; i < 4096; ++i) h.add_u64(peek.below(corpus.pairs.size()));
  }
  r.info["inputs_hash"] = h.hex();
  r.info["pairs"] = std::to_string(corpus.pairs.size());

  uint64_t memo_hits = 0, replies = 0;
  auto send_pair = [&](Conn& c, size_t i) {
    c.req = i;
    c.t0 = now_ns();
    const uint64_t rp = c.node->open_port(
        &proto.g, reply_type, [&c](const Value& v) { c.reply = v; }, true);
    c.node->send(svc::kServeCompilePort, proto.g, proto.invocation,
                 Value::record({requests[i], Value::port(rp)}));
  };
  auto check = [&](Conn& c) {
    Finish f;
    f.t_end = now_ns();
    const Value& v = *c.reply;
    f.ok = v.size() >= 6 &&
           static_cast<int>(v.at(0).as_int()) ==
               static_cast<int>(corpus.pairs[c.req].expected) &&
           svc::string_of(v.at(5)).empty();
    replies++;
    if (v.size() >= 3 && v.at(2).as_int() != 0) memo_hits++;
    return f;
  };

  ServeSpec spec;
  spec.name = "serve_compile";
  spec.setups = 3;
  spec.connections = static_cast<int>(std::clamp<long>(
      ::sysconf(_SC_NPROCESSORS_ONLN) - 1, 1, 3));
  spec.prepare = [&](const std::string& dir) {
    for (const auto& f : corpus.files) {
      write_file(dir + "/" + f.name, f.text);
      if (!f.script.empty()) write_file(dir + "/" + f.name + ".mba", f.script);
    }
    return corpus_args(corpus);
  };
  // Set-up's cold pass: every pair once, in corpus order, checked.
  spec.warm = [&](std::vector<Conn>& conns, Daemon& d) {
    size_t next = 0;
    Loop cold;
    cold.issue = [&](Conn& c) {
      if (next >= corpus.pairs.size()) return false;
      send_pair(c, next++);
      return true;
    };
    cold.finish = check;
    Window ignored;
    closed_loop(conns, d, 0, 0, false, cold, ignored, r);
  };
  spec.timed.issue = [&](Conn& c) {
    send_pair(c, order.below(corpus.pairs.size()));
    return true;
  };
  spec.timed.finish = check;
  spec.layers = [&](Result& res, const Snapshot& d0, const Snapshot& d1,
                    double) {
    const uint64_t vh = counter_delta(d0, d1, "crosscache.verdict.hits");
    const uint64_t vm = counter_delta(d0, d1, "crosscache.verdict.misses");
    const uint64_t ph = counter_delta(d0, d1, "crosscache.program.hits");
    const uint64_t pm = counter_delta(d0, d1, "crosscache.program.misses");
    res.set("crosscache.verdict_hit_ratio", ratio(vh, vh + vm), "ratio");
    res.set("crosscache.program_hit_ratio", ratio(ph, ph + pm), "ratio");
    res.set("service.memo_hit_ratio", ratio(memo_hits, replies), "ratio");
    report_corpus_layers(res, corpus);
  };
  spec.absent_reason =
      "serve_compile replies from the warm memo: no compare, plan or runtime engine";
  // Only the traced window's replies count toward the memo ratio.
  spec.before_traced = [&] { memo_hits = replies = 0; };
  run_serve_workload(o, spec, r);
}

void run_echo_bulk(const Options& o, Result& r) {
  const svc::ServeProtocol proto;
  const mbird::mtype::Ref blob = mbird::rpc::reply_msg_type(proto.g, proto.echo_invocation);
  Rng content = Rng::derive(o.seed, "echo_bulk.payloads");
  auto next_payload = [&](std::string& p) {
    p.resize(o.tiny ? 4096 : kEchoBytes);
    for (size_t i = 0; i < p.size(); i += 8) {
      uint64_t x = content.next();
      for (size_t k = 0; k < 8 && i + k < p.size(); ++k, x >>= 8) {
        p[i + k] = static_cast<char>(0x20 + (x & 0xff) % 95);  // printable
      }
    }
  };
  {
    InputHash h;
    Rng saved = content;
    std::string p;
    for (int i = 0; i < 8; ++i) {
      next_payload(p);
      h.add(p);
    }
    content = saved;
    r.info["inputs_hash"] = h.hex();
  }
  r.info["payload_bytes"] = std::to_string(o.tiny ? 4096 : kEchoBytes);

  std::string payload;
  uint64_t sent = 0;
  ServeSpec spec;
  spec.name = "echo_bulk";
  spec.setups = 5;
  spec.connections = 1;
  spec.prepare = [](const std::string&) { return std::vector<std::string>{}; };
  spec.warm = [](std::vector<Conn>&, Daemon&) {};
  spec.timed.issue = [&](Conn& c) {
    next_payload(payload);
    if (o.plant_wrong && sent == 0) payload[0] ^= 1;  // corrupt the expectation below
    c.t0 = now_ns();
    const uint64_t rp = c.node->open_port(
        &proto.g, blob, [&c](const Value& v) { c.reply = v; }, true);
    c.node->send(svc::kServeEchoPort, proto.g, proto.echo_invocation,
                 Value::record({Value::record({Value::string(payload)}),
                                Value::port(rp)}));
    if (o.plant_wrong && sent == 0) payload[0] ^= 1;
    sent++;
    return true;
  };
  spec.timed.finish = [&](Conn& c) {
    const std::string echoed = svc::string_of(c.reply->at(0));
    Finish f;
    f.t_end = now_ns();
    f.ok = echoed == payload;
    return f;
  };
  spec.layers = [&](Result& res, const Snapshot&, const Snapshot&, double) {
    // The 128 KiB echo invocation through the wire codec and Value, timed
    // in-process.
    std::string p;
    next_payload(p);
    Samples enc_s, dec_s, build_us, read_us, allocs;
    size_t bytes = 0;
    for (int i = 0; i < 9; ++i) {
      uint64_t t0 = now_ns();
      Value s = Value::string(p);
      build_us.add(static_cast<double>(now_ns() - t0) / 1e3);
      const Value inv = Value::record({Value::record({std::move(s)}), Value::port(1)});
      t0 = now_ns();
      const std::vector<uint8_t> wire =
          mbird::wire::encode(proto.g, proto.echo_invocation, inv);
      enc_s.add(static_cast<double>(now_ns() - t0) / 1e9);
      bytes = wire.size();
      const uint64_t a0 = alloc_count();
      count_allocs(true);
      t0 = now_ns();
      const Value back = mbird::wire::decode(proto.g, proto.echo_invocation, wire);
      dec_s.add(static_cast<double>(now_ns() - t0) / 1e9);
      count_allocs(false);
      allocs.add(static_cast<double>(alloc_count() - a0));
      t0 = now_ns();
      const std::string text = svc::string_of(back.at(0).at(0));
      read_us.add(static_cast<double>(now_ns() - t0) / 1e3);
      if (text != p) res.fail();
      res.attempted++;
    }
    res.set("wire.encode_MBps", static_cast<double>(bytes) / 1e6 / enc_s.quantile(0.5), "MB/s");
    res.set("wire.decode_MBps", static_cast<double>(bytes) / 1e6 / dec_s.quantile(0.5), "MB/s");
    res.set("wire.decode_allocs_per_op", allocs.quantile(0.5), "count");
    res.set("value.string_build_us", build_us.quantile(0.5), "us");
    res.set("value.string_read_us", read_us.quantile(0.5), "us");
  };
  spec.absent_reason = "echo_bulk bypasses the service, compare and the runtime engines";
  run_serve_workload(o, spec, r);
}

}  // namespace perfbench
