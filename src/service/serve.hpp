// `mbird serve`: a long-lived compile-pair daemon over the repo's own rpc
// stack (dogfooding — the serve protocol itself is a pair of
// Mockingbird-described IDL messages).
//
// Topology: one process, two rpc Nodes joined by a real AF_UNIX
// socketpair. The server node exposes the compile function
// (serve_function over the lowered invocation type Record(CompileRequest,
// port(CompileReply))); the driver loop reads request lines, builds a
// CompileRequest Value, and rpc-calls the server — every request round-
// trips through wire marshaling and stream framing, exactly like a
// cross-process client would.
//
// Request stream: one `<left> <right>` declaration-spec pair per line
// (same grammar as a batch manifest; `#` comments and blanks ignored).
// Each reply is emitted as one JSON line on stdout, in request order. A
// malformed request line produces an error JSON line and the daemon keeps
// serving — a daemon does not die on one bad request.
//
// Observability: every request runs under an obs::Span("serve.request"),
// counts serve.requests, and records end-to-end latency into the
// serve.latency_us histogram. With --cache, verdicts and programs resolved
// cold are written through to the durable store; shutdown flushes it
// crash-safely before the summary line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mtype/mtype.hpp"
#include "runtime/value.hpp"
#include "stype/stype.hpp"
#include "support/diag.hpp"

namespace mbird::service {

struct ServeOptions {
  std::string cache_path;  // empty: in-memory caches only
};

/// The serve wire protocol, bootstrapped once: the CompileRequest /
/// CompileReply IDL lowered to Mtypes, plus the function-model invocation
/// types (paper §3.3: invocation = Record(Inputs, port(Outputs))). The echo
/// invocation (string in, string out) is the load-harness workload — it
/// exercises marshaling and chunking without compile cost. Shared by the
/// daemon, the listening server, and bench/test clients so both ends lower
/// the identical graph.
struct ServeProtocol {
  mtype::Graph g;
  mtype::Ref request = mtype::kNullRef;     // CompileRequest
  mtype::Ref reply = mtype::kNullRef;       // CompileReply
  mtype::Ref invocation = mtype::kNullRef;  // Record(request, port(reply))
  mtype::Ref echo_invocation = mtype::kNullRef;  // Record(string, port(string))
  // Record(TelemetryRequest, port(TelemetryReply)) — the live telemetry
  // plane (DESIGN.md §4l): registry snapshot + flight-recorder dump.
  mtype::Ref telemetry_invocation = mtype::kNullRef;
  ServeProtocol();  // throws MbError if the bootstrap IDL fails (unreachable)
};

/// Port-id convention for a listening server: the server is node
/// kServeNodeId and opens the compile function first, the echo function
/// second, and the telemetry function third — so clients can compute all
/// three port ids without a directory round-trip.
constexpr uint16_t kServeNodeId = 1;
[[nodiscard]] constexpr uint64_t serve_port(uint64_t local_id) {
  return (static_cast<uint64_t>(kServeNodeId) << 48) | local_id;
}
constexpr uint64_t kServeCompilePort = serve_port(1);
constexpr uint64_t kServeEchoPort = serve_port(2);
constexpr uint64_t kServeTelemetryPort = serve_port(3);

/// Decode the canonical list-of-char string Mtype back to a std::string.
[[nodiscard]] std::string string_of(const runtime::Value& v);

struct ServeListenOptions {
  std::string cache_path;     // empty: in-memory caches only
  uint64_t max_requests = 0;  // stop after this many served (0: run until
                              // SIGINT/SIGTERM)
  // Fault-path flight-recorder dump destination (marshal fault,
  // reassembly-limit abort, peer-retire storm). Empty disables the
  // on-fault file dump; the telemetry port can still read the rings.
  std::string flightrec_path = "mbird.flightrec.json";
};

/// Dial a listening daemon and fetch one telemetry snapshot: a JSON
/// object with uptime, served count, the full metrics-registry snapshot
/// under "metrics", and (when `include_rings`) the flight-recorder dump
/// under "flight_recorder". Throws TransportError/MbError on connect
/// failure or timeout.
[[nodiscard]] std::string fetch_telemetry(const ServeProtocol& proto,
                                          const std::string& addr,
                                          bool include_rings,
                                          int timeout_ms = 5000);

/// Run the reactor-hosted multi-client server: bind `addr` ("unix:PATH",
/// "tcp:HOST:PORT", bare path), print one ready JSON line with the resolved
/// address and port ids, and serve concurrent clients until a signal
/// arrives (or max_requests is reached). Returns 0 on clean shutdown.
int run_serve_listen(std::vector<stype::Module>& modules,
                     const std::string& addr, DiagnosticEngine& diags,
                     const ServeListenOptions& options, std::ostream& out,
                     std::ostream& err);

/// Run the daemon loop over already-loaded modules, reading request lines
/// from `requests` (`requests_name` labels errors) until EOF. Returns 0
/// when the stream was fully served (per-request failures are data — they
/// produce error reply lines, not a nonzero exit); nonzero on setup
/// failures (cache open, protocol bootstrap) or a failed shutdown flush.
int run_serve(std::vector<stype::Module>& modules, std::istream& requests,
              const std::string& requests_name, DiagnosticEngine& diags,
              const ServeOptions& options, std::ostream& out,
              std::ostream& err);

}  // namespace mbird::service
