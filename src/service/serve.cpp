#include "service/serve.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "idl/idlparser.hpp"
#include "lower/lower.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/reactor.hpp"
#include "rpc/rpc.hpp"
#include "service/service.hpp"
#include "store/cachestore.hpp"
#include "support/strings.hpp"
#include "transport/link.hpp"
#include "transport/socket.hpp"

namespace mbird::service {

namespace {

using runtime::Value;

// The serve protocol, described the way everything else in the system is:
// as declarations, lowered through the real frontend. Strings are the
// canonical list-of-char Mtype, so request specs ride the same wire
// encoding as any user list.
constexpr const char* kProtocolIdl = R"(
struct CompileRequest {
  string left;
  string right;
};
struct CompileReply {
  long long verdict;
  long long steps;
  boolean memo_hit;
  boolean program_cached;
  long long program_ops;
  string error;
};
struct EchoBlob {
  string payload;
};
struct TelemetryRequest {
  boolean include_rings;
};
struct TelemetryReply {
  string json;
};
)";

/// The compile handler both serve modes register: decode the request pair,
/// run it through the service core, encode the reply record.
std::function<Value(const Value&)> compile_handler(ServiceCore& core) {
  return [&core](const Value& args) -> Value {
    obs::Span span("serve.compile");
    const std::string left = string_of(args.at(0));
    const std::string right = string_of(args.at(1));
    PairOutcome o;
    std::string perr;
    const bool ok = core.compile_spec(left, right, &o, &perr);
    if (span.recording()) {
      span.note("left", left);
      span.note("right", right);
      span.note(ok ? "verdict" : "error",
                ok ? compare::to_string(o.verdict) : perr);
    }
    return Value::record({Value::integer(static_cast<int64_t>(o.verdict)),
                          Value::integer(static_cast<int64_t>(o.steps)),
                          Value::integer(o.memo_hit ? 1 : 0),
                          Value::integer(o.program_cached ? 1 : 0),
                          Value::integer(static_cast<int64_t>(o.program_ops)),
                          Value::string(ok ? "" : perr)});
  };
}

std::atomic<bool> g_serve_stop{false};
// The serving reactor, so a signal can end its wait (which has no timeout
// while idle); null outside run_serve_listen.
std::atomic<const rpc::Reactor*> g_serve_reactor{nullptr};
void serve_stop_signal(int) {
  g_serve_stop.store(true);
  if (const rpc::Reactor* r = g_serve_reactor.load()) r->wake();
}

}  // namespace

std::string string_of(const Value& v) {
  if (auto bytes = v.packed_chars()) return std::string(*bytes);
  std::string s;
  if (auto lst = v.as_list()) {
    s.reserve(lst->size());
    for (const auto& c : *lst) {
      s.push_back(static_cast<char>(c.as_char()));
    }
  }
  return s;
}

ServeProtocol::ServeProtocol() {
  DiagnosticEngine pdiags;
  stype::Module proto = idl::parse_idl(kProtocolIdl, "<serve-protocol>", pdiags);
  request = lower::lower_decl(proto, g, "CompileRequest", pdiags);
  reply = lower::lower_decl(proto, g, "CompileReply", pdiags);
  if (request == mtype::kNullRef || reply == mtype::kNullRef ||
      pdiags.has_errors()) {
    throw MbError("serve protocol bootstrap failed");  // unreachable
  }
  // The paper's function model: invocation = Record(Inputs, port(Outputs)).
  invocation = g.record({request, g.port(reply)}, {"args", "reply"});
  mtype::Ref blob = lower::lower_decl(proto, g, "EchoBlob", pdiags);
  mtype::Ref treq = lower::lower_decl(proto, g, "TelemetryRequest", pdiags);
  mtype::Ref trep = lower::lower_decl(proto, g, "TelemetryReply", pdiags);
  if (blob == mtype::kNullRef || treq == mtype::kNullRef ||
      trep == mtype::kNullRef || pdiags.has_errors()) {
    throw MbError("serve protocol bootstrap failed");  // unreachable
  }
  echo_invocation = g.record({blob, g.port(blob)}, {"args", "reply"});
  telemetry_invocation = g.record({treq, g.port(trep)}, {"args", "reply"});
}

int run_serve(std::vector<stype::Module>& modules, std::istream& requests,
              const std::string& requests_name, DiagnosticEngine& diags,
              const ServeOptions& options, std::ostream& out,
              std::ostream& err) {
  // Per-request latency histograms want the timed metrics tier.
  obs::set_metrics_on(true);

  ServiceCore core(modules, diags);
  if (!options.cache_path.empty()) {
    std::string serr;
    if (!core.open_cache(options.cache_path, &serr)) {
      err << "mbird: cannot open cache " << options.cache_path << ": " << serr
          << '\n';
      return 1;
    }
  }

  // ---- protocol bootstrap --------------------------------------------------
  ServeProtocol proto;
  const mtype::Graph& gs = proto.g;
  mtype::Ref invocation = proto.invocation;

  // One process, two nodes, a real socketpair between them: every request
  // round-trips through wire marshaling and framing.
  rpc::Node client(2), server(kServeNodeId);
  auto [lc, ls] = transport::make_socket_pair();
  client.connect(kServeNodeId, std::move(lc));
  server.connect(2, std::move(ls));

  uint64_t fn = rpc::serve_function(server, gs, invocation,
                                    compile_handler(core));

  // ---- request loop --------------------------------------------------------
  obs::Count served{"serve.requests"};
  obs::Count bad{"serve.bad_requests"};
  auto& latency = obs::histogram("serve.latency_us");
  size_t memo_hits = 0, reply_errors = 0, lineno = 0;
  std::string line;
  while (std::getline(requests, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string a, b, extra;
    if (!(ls >> a)) continue;  // blank / comment-only
    if (!(ls >> b) || (ls >> extra)) {
      bad.add();
      err << "mbird: " << requests_name << ':' << lineno
          << ": expected '<declA> <declB>'\n";
      out << "{\"line\": " << lineno
          << ", \"error\": \"expected '<declA> <declB>'\"}\n";
      continue;
    }

    obs::Span span("serve.request");
    auto t0 = std::chrono::steady_clock::now();
    Value args = Value::record({Value::string(a), Value::string(b)});
    Value reply;
    try {
      reply = rpc::call_function(client, fn, gs, invocation, args,
                                 {&client, &server});
    } catch (const std::exception& e) {
      bad.add();
      out << "{\"line\": " << lineno << ", \"error\": ";
      write_json_string(out, e.what());
      out << "}\n";
      continue;
    }
    const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    served.add();
    latency.record(static_cast<uint64_t>(us));
    if (span.recording()) {
      span.note("left", a);
      span.note("right", b);
    }

    const auto verdict = static_cast<compare::Verdict>(
        static_cast<int64_t>(reply.at(0).as_int()));
    const std::string remote_err = string_of(reply.at(5));
    out << "{\"left\": ";
    write_json_string(out, a);
    out << ", \"right\": ";
    write_json_string(out, b);
    out << ", ";
    if (!remote_err.empty()) {
      ++reply_errors;
      out << "\"error\": ";
      write_json_string(out, remote_err);
      out << "}\n";
      continue;
    }
    const bool memo = reply.at(2).as_int() != 0;
    if (memo) ++memo_hits;
    out << "\"verdict\": \"" << compare::to_string(verdict)
        << "\", \"steps\": " << static_cast<int64_t>(reply.at(1).as_int())
        << ", \"micros\": " << us << ", \"memo\": " << (memo ? "true" : "false")
        << ", \"program_cached\": "
        << (reply.at(3).as_int() != 0 ? "true" : "false")
        << ", \"program_ops\": " << static_cast<int64_t>(reply.at(4).as_int())
        << "}\n";
  }

  // ---- graceful shutdown ---------------------------------------------------
  int rc = 0;
  std::string ferr;
  if (!core.flush_cache(&ferr)) {
    err << "mbird: cache flush failed: " << ferr << '\n';
    rc = 1;
  }
  const auto& cs = client.stats();
  const auto& ss = server.stats();
  out << "{\"served\": " << served.value()
      << ", \"bad_requests\": " << bad.value()
      << ", \"reply_errors\": " << reply_errors
      << ", \"memo_hits\": " << memo_hits
      << ", \"latency_p50_us\": " << latency.percentile(0.50)
      << ", \"latency_p99_us\": " << latency.percentile(0.99)
      << ", \"rpc\": {\"frames_sent\": " << (cs.frames_sent + ss.frames_sent)
      << ", \"frames_received\": "
      << (cs.frames_received + ss.frames_received)
      << ", \"bytes_sent\": " << (cs.bytes_sent + ss.bytes_sent)
      << ", \"retransmits\": " << (cs.retransmits + ss.retransmits) << "}";
  if (store::CacheStore* st = core.cache_store()) {
    const auto sst = st->stats();
    out << ", \"store\": {\"entries\": " << sst.entries
        << ", \"hits\": " << sst.hits << ", \"misses\": " << sst.misses
        << ", \"appends\": " << sst.appends << "}";
  }
  out << "}\n";
  return rc;
}

int run_serve_listen(std::vector<stype::Module>& modules,
                     const std::string& addr, DiagnosticEngine& diags,
                     const ServeListenOptions& options, std::ostream& out,
                     std::ostream& err) {
  obs::set_metrics_on(true);

  ServiceCore core(modules, diags);
  if (!options.cache_path.empty()) {
    std::string serr;
    if (!core.open_cache(options.cache_path, &serr)) {
      err << "mbird: cannot open cache " << options.cache_path << ": " << serr
          << '\n';
      return 1;
    }
  }

  ServeProtocol proto;
  // Stream clients never see a retransmit; these apply only to peers that
  // run the reliability sublayer (sequenced frames, e.g. a make_lossy
  // client). The reactor ticks about once per millisecond while such a
  // channel has frames in flight, so the socketpair-tuned defaults (first
  // retransmit after 2 ticks) would re-send replies before a client across
  // real sockets can possibly ack. Stretch them.
  rpc::ReliabilityOptions relopts;
  relopts.initial_backoff = 8;
  relopts.max_backoff = 256;
  rpc::Node server(kServeNodeId, relopts);
  rpc::Reactor reactor(server);
  try {
    reactor.listen(addr);
  } catch (const std::exception& e) {
    err << "mbird: cannot listen on " << addr << ": " << e.what() << '\n';
    return 1;
  }

  // Always-on flight recorder: a few kB of recent spans per thread so the
  // daemon can explain faults without --trace having been enabled.
  obs::FlightRecorder::global().enable();
  if (!options.flightrec_path.empty()) {
    obs::FlightRecorder::global().set_fault_path(options.flightrec_path);
  }
  const auto start = std::chrono::steady_clock::now();

  obs::Count served{"serve.requests"};
  auto& latency = obs::histogram("serve.latency_us");
  auto counted = [&](std::function<Value(const Value&)> fn) {
    return [fn = std::move(fn), &served, &latency](const Value& v) -> Value {
      // One span per request — a child of the calling frame's trace
      // context (the rpc layer adopts it around dispatch), so a stitched
      // client/server trace nests this under the client's rpc.call.
      obs::Span span("serve.request");
      obs::ScopedTimer timer(latency);
      served.add();
      return fn(v);
    };
  };
  uint64_t compile_port = rpc::serve_function(server, proto.g, proto.invocation,
                                              counted(compile_handler(core)));
  uint64_t echo_port =
      rpc::serve_function(server, proto.g, proto.echo_invocation,
                          counted([](const Value& args) { return args; }));
  // The telemetry function: registry snapshot + live counters as one JSON
  // string, optionally with the flight-recorder rings. NOT wrapped in
  // counted() — dashboard polls must not count toward --max-requests or
  // skew the request-rate metrics they report.
  auto telemetry = [&](const Value& args) -> Value {
    obs::Span span("serve.telemetry");
    const bool include_rings = args.at(0).as_int() != 0;
    const auto uptime_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::ostringstream os;
    os << "{\"uptime_ms\":" << uptime_ms
       << ",\"served\":" << served.value()
       << ",\"peers\":" << reactor.peer_count()
       << ",\"flightrec_recorded\":"
       << obs::FlightRecorder::global().total_recorded()
       << ",\"flightrec_faults\":"
       << obs::FlightRecorder::global().fault_count() << ",\"metrics\":";
    obs::Registry::global().snapshot().write_json(os);
    if (include_rings) {
      std::string rings =
          obs::FlightRecorder::global().chrome_json("telemetry.request");
      while (!rings.empty() && rings.back() == '\n') rings.pop_back();
      os << ",\"flight_recorder\":" << rings;
    }
    os << "}";
    return Value::record({Value::string(os.str())});
  };
  uint64_t telemetry_port = rpc::serve_function(
      server, proto.g, proto.telemetry_invocation, telemetry);
  if (compile_port != kServeCompilePort || echo_port != kServeEchoPort ||
      telemetry_port != kServeTelemetryPort) {
    err << "mbird: serve port convention violated\n";  // unreachable
    return 1;
  }

  // The ready line is the dial signal for harnesses: the resolved address
  // (ephemeral TCP ports filled in) and the three well-known ports.
  out << "{\"listening\": \"" << reactor.listen_address()
      << "\", \"compile_port\": " << compile_port
      << ", \"echo_port\": " << echo_port
      << ", \"telemetry_port\": " << telemetry_port << "}" << std::endl;

  // No wait cap: an idle daemon sleeps until a request, a due timer, or
  // a stop signal, whose handler wakes the reactor through its eventfd (so
  // a signal landing between the stop check and the wait still ends it).
  g_serve_stop.store(false);
  g_serve_reactor.store(&reactor);
  std::signal(SIGINT, serve_stop_signal);
  std::signal(SIGTERM, serve_stop_signal);
  reactor.run([&] {
    return g_serve_stop.load(std::memory_order_relaxed) ||
           (options.max_requests != 0 &&
            served.value() >= options.max_requests);
  });
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_reactor.store(nullptr);

  int rc = 0;
  std::string ferr;
  if (!core.flush_cache(&ferr)) {
    err << "mbird: cache flush failed: " << ferr << '\n';
    rc = 1;
  }
  const auto& ss = server.stats();
  out << "{\"served\": " << served.value()
      << ", \"peers\": " << reactor.peer_count()
      << ", \"rpc\": {\"frames_sent\": " << ss.frames_sent
      << ", \"frames_received\": " << ss.frames_received
      << ", \"chunks_sent\": " << ss.chunks_sent
      << ", \"chunks_received\": " << ss.chunks_received
      << ", \"bytes_sent\": " << ss.bytes_sent
      << ", \"retransmits\": " << ss.retransmits
      << ", \"decode_faults\": " << ss.decode_faults
      << ", \"max_queue_depth\": " << ss.max_queue_depth << "}}" << std::endl;
  return rc;
}

std::string fetch_telemetry(const ServeProtocol& proto, const std::string& addr,
                            bool include_rings, int timeout_ms) {
  // A telemetry client is ephemeral: pick a node id outside the range
  // ordinary clients use so a dashboard poll never supersedes a worker's
  // connection (the reactor keys channels by origin node id).
  rpc::Node client(static_cast<uint16_t>(
      0x8000u | (static_cast<unsigned>(::getpid()) & 0x7fffu)));
  client.connect(kServeNodeId,
                 transport::polled_socket_link(transport::dial_fd(addr)));

  const mtype::Ref reply_type =
      rpc::reply_msg_type(proto.g, proto.telemetry_invocation);
  std::optional<Value> reply;
  uint64_t rp = client.open_port(
      &proto.g, reply_type, [&reply](const Value& v) { reply = v; },
      /*once=*/true);
  client.send(kServeTelemetryPort, proto.g, proto.telemetry_invocation,
              Value::record({Value::record({Value::integer(include_rings)}),
                             Value::port(rp)}));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    client.poll();
    if (reply) return string_of(reply->at(0));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw MbError("telemetry fetch from " + addr + " timed out after " +
                std::to_string(timeout_ms) + "ms");
}

}  // namespace mbird::service
