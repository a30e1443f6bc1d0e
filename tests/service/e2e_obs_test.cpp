// End-to-end observability tests (DESIGN.md §4l): a real mbird daemon in a
// child process, a real AF_UNIX socket between it and an in-test client,
// and the full trace pipeline — wire trace-context extension, per-process
// Chrome trace files, `mbird stats --stitch` — verified from the outside.
//
// The load-bearing assertions:
//   * every client rpc.call has EXACTLY ONE serve.request child in the
//     stitched trace, sharing its trace_id — clean link and 5% loss alike
//     (retransmits must carry the same ids, not mint fresh ones);
//   * an induced marshal fault makes the always-on flight recorder dump
//     the faulting request's trace context to disk with --trace never
//     enabled.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cfront/cparser.hpp"
#include "javasrc/javaparser.hpp"
#include "obs/flightrec.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "service/serve.hpp"
#include "tool/mbird.hpp"
#include "tool/metrics_reader.hpp"
#include "transport/link.hpp"
#include "transport/socket.hpp"

namespace mbird::service {
namespace {

using runtime::Value;

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

pid_t spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  int fd = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::close(fd);
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  _exit(127);
}

class E2eObsTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "mbird_e2e_obs";
    std::filesystem::create_directories(dir_);
    header_ = dir_ + "/a.h";
    java_ = dir_ + "/B.java";
    std::ofstream(header_) << "struct Point { int x; int y; };\n";
    std::ofstream(java_) << "public class Point { int x; int y; }\n";
  }

  void TearDown() override {
    // A failed test must not leak its daemon: a live child still holds the
    // test's stdout pipe, which hangs ctest waiting for EOF forever.
    for (pid_t pid : daemons_) {
      if (::kill(pid, 0) == 0) ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  // Spawn `mbird serve --listen unix:… --trace daemon.json` and wait for
  // the ready line. Returns the daemon pid; fills `sock` and `daemon_json`.
  pid_t start_daemon(const std::string& tag, uint64_t max_requests,
                     std::string* sock, std::string* daemon_json) {
    *sock = dir_ + "/" + tag + ".sock";
    *daemon_json = dir_ + "/" + tag + ".daemon.json";
    std::remove(sock->c_str());
    const std::string ready = dir_ + "/" + tag + ".ready";
    // Remove the ready file HERE, not in the child: spawn() truncates it
    // only after fork+open, and a stale "listening" line from a previous
    // run would win that race and release the wait below before the
    // daemon has even bound its socket.
    std::remove(ready.c_str());
    pid_t pid = spawn({MBIRD_BIN, "--c", header_, "--java", java_, "--trace",
                       *daemon_json, "serve", "--listen", "unix:" + *sock,
                       "--max-requests", std::to_string(max_requests),
                       "--flightrec", "none"},
                      ready);
    daemons_.push_back(pid);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (slurp(ready).find("\"listening\"") != std::string::npos) return pid;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "daemon never printed its ready line: " << slurp(ready);
    ::kill(pid, SIGKILL);
    return -1;
  }

  // One traced echo call; returns the trace id the call's span carried.
  // Asserts the reply arrived. `tolerate_close`: the daemon may exit the
  // moment it serves this request (max_requests reached), so a closed link
  // mid-ack is expected, not a failure.
  uint64_t echo_call(rpc::Node& node, const ServeProtocol& proto,
                     const char* span_name, bool tolerate_close) {
    const mtype::Ref blob = proto.g.at(proto.echo_invocation).children[0];
    std::optional<obs::Span> span;
    if (span_name != nullptr) span.emplace(span_name);
    const uint64_t trace_id =
        span_name != nullptr ? span->context().trace_id : 0;
    std::optional<Value> reply;
    uint64_t reply_port = node.open_port(
        &proto.g, blob, [&reply](const Value& v) { reply = v; },
        /*once=*/true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    try {
      node.send(kServeEchoPort, proto.g, proto.echo_invocation,
                Value::record({Value::record({Value::string("ping")}),
                               Value::port(reply_port)}));
      while (!reply && std::chrono::steady_clock::now() < deadline) {
        node.poll();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    } catch (const std::exception& e) {
      if (!tolerate_close) throw;
    }
    if (!tolerate_close) {
      EXPECT_TRUE(reply.has_value())
          << span_name << " echo reply never arrived";
    }
    return trace_id;
  }

  // The full scenario: daemon subprocess with --trace, N traced client
  // calls over a real unix socket (optionally lossy), both trace files
  // stitched, and the stitched trace checked for exactly one serve.request
  // child per client call.
  void run_stitched_scenario(const std::string& tag, double loss) {
    std::string sock, daemon_json;
    // One extra untraced call nudges the daemon over max_requests so the
    // traced calls never race its exit.
    const size_t kCalls = 3;
    pid_t pid = start_daemon(tag, kCalls + 1, &sock, &daemon_json);
    ASSERT_GT(pid, 0);

    ServeProtocol proto;
    rpc::ReliabilityOptions relopts;
    relopts.initial_backoff = 256;  // the client polls every ~200µs
    relopts.max_backoff = 4096;
    rpc::Node client(7, relopts);
    auto link = transport::polled_socket_link(dial_retry(sock));
    if (loss > 0) {
      transport::FaultOptions faults;
      faults.drop_probability = loss;
      faults.seed = 11;
      link = transport::make_lossy(std::move(link), faults);
    }
    client.connect(kServeNodeId, std::move(link));

    obs::Tracer::global().enable();
    std::vector<uint64_t> call_traces;
    for (size_t i = 0; i < kCalls; ++i) {
      call_traces.push_back(
          echo_call(client, proto, "rpc.call", /*tolerate_close=*/false));
    }
    obs::Tracer::global().disable();
    const std::string client_json = dir_ + "/" + tag + ".client.json";
    std::ofstream(client_json) << obs::Tracer::global().chrome_json();

    // The shutdown nudge; its reply may race the daemon's exit.
    echo_call(client, proto, nullptr, /*tolerate_close=*/true);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    daemons_.erase(std::find(daemons_.begin(), daemons_.end(), pid));
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon exit status " << status;

    // Stitch the two per-process files.
    const std::string merged = dir_ + "/" + tag + ".merged.json";
    std::ostringstream out, err;
    ASSERT_EQ(tool::run({"stats", "--stitch", client_json, daemon_json, "-o",
                         merged},
                        out, err),
              0)
        << err.str();

    std::vector<tool::TraceEvent> events;
    std::string perr;
    ASSERT_TRUE(tool::parse_chrome_trace(slurp(merged), &events, &perr))
        << perr;

    // Exactly one server child span per client call, under its trace id.
    for (uint64_t trace : call_traces) {
      ASSERT_NE(trace, 0u);
      size_t calls = 0, serves = 0, flows = 0;
      for (const tool::TraceEvent& ev : events) {
        if (ev.id_arg("trace_id") != trace) {
          if (ev.ph == "s" || ev.ph == "f") ++flows;
          continue;
        }
        if (ev.name == "rpc.call") ++calls;
        if (ev.name == "serve.request") ++serves;
      }
      EXPECT_EQ(calls, 1u) << std::hex << trace;
      EXPECT_EQ(serves, 1u)
          << "retransmits must not mint extra server spans, trace "
          << std::hex << trace;
      EXPECT_GE(flows, 2u) << "stitch should draw rpc flow arrows";
    }
    // All three calls were distinct traces.
    EXPECT_EQ(std::set<uint64_t>(call_traces.begin(), call_traces.end()).size(),
              call_traces.size());
  }

  // Dial with retries: the ready line means the daemon has bound, but a
  // loaded machine can still delay the filesystem view of the socket.
  static int dial_retry(const std::string& sock) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      try {
        return transport::dial_fd(sock);
      } catch (const std::exception&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  std::string dir_, header_, java_;
  std::vector<pid_t> daemons_;
};

// The stitch scenarios need the client's spans to actually open (they mint
// the trace ids the daemon's spans must echo); under MBIRD_OBS_OFF spans
// compile to no-ops and there is nothing to stitch.
#ifndef MBIRD_OBS_OFF
TEST_F(E2eObsTest, StitchedTraceOverRealUnixSocket) {
  run_stitched_scenario("clean", /*loss=*/0.0);
}

TEST_F(E2eObsTest, StitchedTraceSurvivesFivePercentLoss) {
  run_stitched_scenario("lossy", /*loss=*/0.05);
}
#endif  // MBIRD_OBS_OFF

// An idle daemon's loop waits without a timeout, so a stop signal must
// wake it: after serving one stream client and going quiet, `mbird serve
// --listen` ends its serve loop (its shutdown summary line) within 100 ms
// of SIGTERM.
TEST_F(E2eObsTest, IdleDaemonStopsPromptlyOnSigterm) {
  std::string sock, daemon_json;
  pid_t pid = start_daemon("idle", /*max_requests=*/0, &sock, &daemon_json);
  ASSERT_GT(pid, 0);
  const std::string out = dir_ + "/idle.ready";
  {
    ServeProtocol proto;
    rpc::Node client(5);
    client.connect(kServeNodeId, transport::polled_socket_link(dial_retry(sock)));
    echo_call(client, proto, nullptr, /*tolerate_close=*/false);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(slurp(out).find("\"served\""), std::string::npos);
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    while (slurp(out).find("\"served\"") == std::string::npos &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 100) << "serve loop took " << ms << " ms to see SIGTERM";
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  daemons_.erase(std::find(daemons_.begin(), daemons_.end(), pid));
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon exit status " << status;
}

// A daemon (in-process this time — the flight recorder under test is the
// global one) that takes a garbage DATA frame on the compile port must
// dump its flight recorder with the faulting request's trace context,
// even though --trace was never enabled.
TEST_F(E2eObsTest, MarshalFaultDumpsFlightRecorderWithoutTrace) {
  ASSERT_FALSE(obs::Tracer::global().enabled());
  const std::string sock = dir_ + "/fault.sock";
  const std::string dump = dir_ + "/fault.flightrec.json";
  std::remove(sock.c_str());
  std::remove(dump.c_str());

  DiagnosticEngine diags;
  std::vector<stype::Module> modules;
  modules.push_back(
      cfront::parse_c("struct Point { int x; int y; };\n", "a.h", diags));
  modules.push_back(javasrc::parse_java(
      "public class Point { int x; int y; }\n", "B.java", diags));
  ASSERT_FALSE(diags.has_errors()) << diags.summary();

  ServeListenOptions lopts;
  lopts.max_requests = 1;
  lopts.flightrec_path = dump;
  std::ostringstream sout, serr;
  std::thread daemon([&] {
    run_serve_listen(modules, "unix:" + sock, diags, lopts, sout, serr);
  });

  // Wait until the socket accepts connections.
  int fd = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fd < 0 && std::chrono::steady_clock::now() < deadline) {
    try {
      fd = transport::dial_fd(sock);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GE(fd, 0) << "daemon socket never came up: " << serr.str();

  ServeProtocol proto;
  rpc::ReliabilityOptions relopts;
  relopts.initial_backoff = 256;
  relopts.max_backoff = 4096;
  rpc::Node client(9, relopts);
  client.connect(kServeNodeId, transport::polled_socket_link(fd));

  {
    // The faulting request: garbage bytes that cannot decode as a compile
    // invocation, sent under a recognizable trace context. The frame
    // carries the context; the handler is never reached.
    obs::ContextGuard guard(
        obs::TraceContext{0xFEEDFACEull, 0x77ull, true});
    client.send_marshaled(kServeCompilePort,
                          {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
  }
  // One good request reaches --max-requests and stops the daemon.
  echo_call(client, proto, nullptr, /*tolerate_close=*/true);
  daemon.join();

  const std::string trace = slurp(dump);
  ASSERT_FALSE(trace.empty()) << "no flight-recorder dump at " << dump
                              << "; daemon stderr: " << serr.str();
  EXPECT_NE(trace.find("\"rpc.marshal_fault\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("00000000feedface"), std::string::npos)
      << "dump must pin the faulting request's trace id: " << trace;
  EXPECT_NE(trace.find("\"reason\":\"rpc.marshal_fault\""), std::string::npos)
      << trace;
  // The tracer was never part of this: always-on recorder only.
  EXPECT_FALSE(obs::Tracer::global().enabled());
}

}  // namespace
}  // namespace mbird::service
