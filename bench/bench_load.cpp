// End-to-end load harness for the reactor-hosted server (DESIGN.md §4k):
// N client nodes × M cycled message sizes at a configurable per-client
// rate, against either an embedded epoll reactor or an external
// `mbird serve --listen` address, optionally over lossy links.
//
// Two modes measure the same total work:
//   * sequential — one client session at a time (dial, M paced calls,
//     teardown). This is the baseline: per-session pacing and setup cost
//     are paid serially, like a fleet of clients sharing one connection
//     slot.
//   * concurrent — all N sessions at once through one reactor. The server
//     multiplexes every socket on a single epoll loop, so the paced idle
//     time of the fleet overlaps and aggregate throughput approaches
//     N × the per-client rate.
//
// The default run executes both and reports the speedup. Latencies are
// recorded per call into obs histograms (log-scale, ≤12.5% relative
// error on any quantile) and exported as p50/p95/p99. The size cycle
// includes a payload above the 64 KiB frame ceiling, so every run
// exercises chunked framing and in-order reassembly in both directions;
// with --loss, chunk retransmission too.
//
// Exit status is nonzero when any call timed out or any echo came back
// corrupted — the CI smoke gate relies on that.
#include <sys/utsname.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/reactor.hpp"
#include "rpc/rpc.hpp"
#include "service/serve.hpp"
#include "transport/socket.hpp"

namespace {

using namespace mbird;
using runtime::Value;
using Clock = std::chrono::steady_clock;

struct Options {
  size_t clients = 32;
  size_t calls = 20;         // per client
  double rate = 10.0;        // calls/sec per client (pacing)
  std::vector<size_t> sizes = {64, 4096, 131072};  // cycled per call
  double loss = 0.0;         // drop probability on client links
  std::string mode = "both";  // sequential | concurrent | both
  std::string connect;       // external server address ("" = embedded)
  int call_timeout_ms = 30000;
};

struct ClientTotals {
  uint64_t ok = 0;
  uint64_t timeouts = 0;
  uint64_t mismatches = 0;
  uint64_t retransmits = 0;
  uint64_t chunks_sent = 0;
  uint64_t chunks_received = 0;
  void add(const ClientTotals& o) {
    ok += o.ok;
    timeouts += o.timeouts;
    mismatches += o.mismatches;
    retransmits += o.retransmits;
    chunks_sent += o.chunks_sent;
    chunks_received += o.chunks_received;
  }
};

/// One client session: dial, M paced echo calls, teardown. The wait loop
/// sleeps when the node is idle so a fleet of clients shares the host
/// instead of spin-polling it.
ClientTotals run_client(uint16_t node_id, const std::string& addr,
                        uint64_t echo_port, const Options& opt,
                        const service::ServeProtocol& proto,
                        obs::Histogram& latency_us) {
  ClientTotals totals;
  // Only a --loss run's make_lossy link is sequenced; a plain socket client
  // never retransmits. Backoff is measured in poll ticks and this loop
  // polls every ~100µs, so the defaults (first retransmit after 2 ticks)
  // would flood a server whose reactor ticks at millisecond granularity
  // with spurious retransmits. Stretch the backoff to match the polling
  // cadence.
  rpc::ReliabilityOptions relopts;
  relopts.initial_backoff = 256;
  relopts.max_backoff = 4096;
  rpc::Node node(node_id, relopts);
  std::unique_ptr<transport::Link> link =
      transport::polled_socket_link(transport::dial_fd(addr));
  if (opt.loss > 0.0) {
    transport::FaultOptions faults;
    faults.drop_probability = opt.loss;
    faults.seed = node_id;
    link = transport::make_lossy(std::move(link), faults);
  }
  node.connect(service::kServeNodeId, std::move(link));

  const mtype::Ref blob = proto.g.at(proto.echo_invocation).children[0];
  const auto session_start = Clock::now();
  for (size_t i = 0; i < opt.calls; ++i) {
    std::this_thread::sleep_until(
        session_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / opt.rate)));
    const size_t size = opt.sizes[i % opt.sizes.size()];
    const std::string payload(size, static_cast<char>('a' + i % 26));

    std::optional<Value> reply;
    uint64_t reply_port = node.open_port(
        &proto.g, blob, [&reply](const Value& v) { reply = v; },
        /*once=*/true);
    Value inv = Value::record({Value::record({Value::string(payload)}),
                               Value::port(reply_port)});
    const auto t0 = Clock::now();
    node.send(echo_port, proto.g, proto.echo_invocation, inv);
    const auto deadline =
        t0 + std::chrono::milliseconds(opt.call_timeout_ms);
    // Exponentially ramped idle sleep: a fleet of waiting clients backs off
    // the shared core quickly (the reply is CPU-bound on the server side),
    // and since a lossy client's retransmit backoff counts poll ticks,
    // slower polling while waiting also means fewer spurious retransmits
    // under contention.
    uint64_t idle_us = 100;
    while (!reply && Clock::now() < deadline) {
      if (node.poll() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(idle_us));
        idle_us = std::min<uint64_t>(idle_us * 2, 4000);
      } else {
        idle_us = 100;
      }
    }
    if (!reply) {
      node.close_port(reply_port);
      totals.timeouts++;
      continue;
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - t0)
                        .count();
    latency_us.record(static_cast<uint64_t>(us));
    if (service::string_of(reply->at(0)) != payload) {
      totals.mismatches++;
    } else {
      totals.ok++;
    }
  }
  const auto& st = node.stats();
  totals.retransmits = st.retransmits;
  totals.chunks_sent = st.chunks_sent;
  totals.chunks_received = st.chunks_received;
  return totals;
}

struct PhaseResult {
  double elapsed_s = 0;
  double throughput = 0;  // completed calls / sec
  ClientTotals totals;
  obs::Histogram* latency = nullptr;
};

PhaseResult run_phase(bool concurrent, const std::string& addr,
                      uint64_t echo_port, const Options& opt,
                      const service::ServeProtocol& proto,
                      obs::Histogram& latency_us) {
  PhaseResult result;
  result.latency = &latency_us;
  std::vector<ClientTotals> per_client(opt.clients);
  const auto t0 = Clock::now();
  if (concurrent) {
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (size_t c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        per_client[c] = run_client(static_cast<uint16_t>(2 + c), addr,
                                   echo_port, opt, proto, latency_us);
      });
    }
    for (auto& t : threads) t.join();
  } else {
    for (size_t c = 0; c < opt.clients; ++c) {
      per_client[c] = run_client(static_cast<uint16_t>(2 + c), addr, echo_port,
                                 opt, proto, latency_us);
    }
  }
  result.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& ct : per_client) result.totals.add(ct);
  result.throughput =
      result.elapsed_s > 0
          ? static_cast<double>(result.totals.ok) / result.elapsed_s
          : 0;
  return result;
}

void emit_phase(std::ostringstream& os, const char* name,
                const PhaseResult& r) {
  os << "  \"" << name << "\": {\"elapsed_s\": " << r.elapsed_s
     << ", \"throughput_calls_per_s\": " << r.throughput
     << ", \"ok\": " << r.totals.ok << ", \"timeouts\": " << r.totals.timeouts
     << ", \"mismatches\": " << r.totals.mismatches
     << ", \"client_retransmits\": " << r.totals.retransmits
     << ", \"client_chunks_sent\": " << r.totals.chunks_sent
     << ", \"client_chunks_received\": " << r.totals.chunks_received
     << ", \"latency_us\": {\"p50\": " << r.latency->percentile(0.50)
     << ", \"p95\": " << r.latency->percentile(0.95)
     << ", \"p99\": " << r.latency->percentile(0.99)
     << ", \"max\": " << r.latency->max_value() << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_load: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--clients") {
      opt.clients = std::strtoull(next(), nullptr, 10);
    } else if (a == "--calls") {
      opt.calls = std::strtoull(next(), nullptr, 10);
    } else if (a == "--rate") {
      opt.rate = std::strtod(next(), nullptr);
    } else if (a == "--loss") {
      opt.loss = std::strtod(next(), nullptr);
    } else if (a == "--mode") {
      opt.mode = next();
    } else if (a == "--connect") {
      opt.connect = next();
    } else if (a == "--timeout-ms") {
      opt.call_timeout_ms = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (a == "--sizes") {
      opt.sizes.clear();
      std::istringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        opt.sizes.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      }
      if (opt.sizes.empty()) opt.sizes = {64};
    } else {
      std::fprintf(stderr,
                   "usage: bench_load [--clients N] [--calls M] [--rate R]\n"
                   "                  [--sizes a,b,c] [--loss P]\n"
                   "                  [--mode sequential|concurrent|both]\n"
                   "                  [--connect ADDR] [--timeout-ms T]\n");
      return 2;
    }
  }

  service::ServeProtocol proto;

  // Embedded server unless --connect: one reactor thread serving the echo
  // function — the same code path `mbird serve --listen` runs.
  std::string addr = opt.connect;
  uint64_t echo_port = service::kServeEchoPort;
  std::unique_ptr<rpc::Node> server;
  std::unique_ptr<rpc::Reactor> reactor;
  std::atomic<bool> stop{false};
  std::thread server_thread;
  if (addr.empty()) {
    addr = "unix:/tmp/bench_load_" + std::to_string(::getpid()) + ".sock";
    // The reactor ticks roughly once per millisecond while a sequenced
    // (lossy) client has replies in flight; stretch their backoff
    // accordingly (same reasoning as the client side above).
    rpc::ReliabilityOptions server_relopts;
    server_relopts.initial_backoff = 8;
    server_relopts.max_backoff = 256;
    server = std::make_unique<rpc::Node>(service::kServeNodeId, server_relopts);
    reactor = std::make_unique<rpc::Reactor>(*server);
    reactor->listen(addr);
    echo_port = rpc::serve_function(*server, proto.g, proto.echo_invocation,
                                    [](const Value& args) { return args; });
    // A finite wait cap lets the idle loop see the stop flag.
    server_thread = std::thread(
        [&] { reactor->run([&] { return stop.load(); }, /*timeout_ms=*/1); });
  }

  auto& seq_lat = obs::histogram("bench.load.sequential_us");
  auto& conc_lat = obs::histogram("bench.load.concurrent_us");
  std::optional<PhaseResult> seq, conc;
  if (opt.mode == "sequential" || opt.mode == "both") {
    seq = run_phase(/*concurrent=*/false, addr, echo_port, opt, proto, seq_lat);
  }
  if (opt.mode == "concurrent" || opt.mode == "both") {
    conc = run_phase(/*concurrent=*/true, addr, echo_port, opt, proto,
                     conc_lat);
  }

  if (server_thread.joinable()) {
    stop.store(true);
    server_thread.join();
  }

  utsname un{};
  uname(&un);
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "{\n  \"bench\": \"load\",\n  \"clients\": " << opt.clients
     << ",\n  \"calls_per_client\": " << opt.calls
     << ",\n  \"rate_per_client\": " << opt.rate << ",\n  \"sizes\": [";
  for (size_t i = 0; i < opt.sizes.size(); ++i) {
    os << (i != 0 ? ", " : "") << opt.sizes[i];
  }
  os << "],\n  \"loss\": " << opt.loss << ",\n  \"server\": \""
     << (opt.connect.empty() ? "embedded" : opt.connect) << "\",\n";
  os << "  \"host\": {\"os\": \"" << un.sysname << " " << un.release
     << "\", \"arch\": \"" << un.machine
     << "\", \"cpus\": " << sysconf(_SC_NPROCESSORS_ONLN) << "},\n";
  if (seq) {
    emit_phase(os, "sequential", *seq);
    os << ",\n";
  }
  if (conc) {
    emit_phase(os, "concurrent", *conc);
    os << ",\n";
  }
  if (seq && conc && conc->throughput > 0 && seq->throughput > 0) {
    os << "  \"speedup\": " << conc->throughput / seq->throughput << ",\n";
  }
  if (server) {
    const auto& ss = server->stats();
    os << "  \"server_stats\": {\"frames_received\": " << ss.frames_received
       << ", \"chunks_received\": " << ss.chunks_received
       << ", \"messages_reassembled\": " << ss.messages_reassembled
       << ", \"retransmits\": " << ss.retransmits
       << ", \"max_queue_depth\": " << ss.max_queue_depth << "},\n";
  }
  uint64_t timeouts = (seq ? seq->totals.timeouts : 0) +
                      (conc ? conc->totals.timeouts : 0);
  uint64_t mismatches = (seq ? seq->totals.mismatches : 0) +
                        (conc ? conc->totals.mismatches : 0);
  os << "  \"timeouts\": " << timeouts << ",\n  \"mismatches\": " << mismatches
     << "\n}\n";
  std::fputs(os.str().c_str(), stdout);
  return (timeouts == 0 && mismatches == 0) ? 0 : 1;
}
