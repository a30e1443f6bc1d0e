// Distributed trace-context propagation (DESIGN.md §4l): the wire-frame
// trace extension, ContextGuard adoption semantics, orphan detection keyed
// by (thread, trace), survival under loss/reordering, and the flight
// recorder the fault paths dump from.
//
// The load-bearing case is PropagatesAcrossLossyReorderingLink: with 10%
// drop + 10% reorder every retransmitted and chunked frame must carry the
// caller's exact trace ids (retransmits resend pre-packed bytes, so the
// extension survives verbatim), and the receiving handler must observe the
// caller's context — that is what makes a stitched multi-process trace
// share one trace_id end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "transport/link.hpp"
#include "wire/wire.hpp"

namespace mbird::rpc {
namespace {

using mtype::Graph;
using mtype::Ref;
using runtime::Value;

/// Link decorator keeping a copy of every frame that crosses it, so the
/// tests can unpack what was actually on the wire (including retransmits).
class FrameSpy : public transport::Link {
 public:
  FrameSpy(std::unique_ptr<transport::Link> inner,
           std::vector<std::vector<uint8_t>>* frames)
      : inner_(std::move(inner)), frames_(frames) {}
  void send(std::span<const uint8_t> head,
            std::span<const uint8_t> body) override {
    std::vector<uint8_t> frame(head.begin(), head.end());
    frame.insert(frame.end(), body.begin(), body.end());
    frames_->push_back(std::move(frame));
    inner_->send(head, body);
  }
  std::optional<std::vector<uint8_t>> poll() override {
    return inner_->poll();
  }
  bool reliable() const override { return inner_->reliable(); }
  size_t held_bytes() const override { return inner_->held_bytes(); }

 private:
  std::unique_ptr<transport::Link> inner_;
  std::vector<std::vector<uint8_t>>* frames_;
};

Value byte_list(size_t n, uint8_t mul = 1) {
  std::vector<Value> elems;
  elems.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elems.push_back(Value::integer(static_cast<uint8_t>(i * mul)));
  }
  return Value::list(std::move(elems));
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---- context adoption -------------------------------------------------------

TEST(TraceCtx, ContextGuardAdoptsAndRestores) {
  EXPECT_FALSE(obs::current_context().valid());
  {
    obs::ContextGuard outer(obs::TraceContext{11, 22, true});
    EXPECT_EQ(obs::current_context().trace_id, 11u);
    EXPECT_EQ(obs::current_context().span_id, 22u);
    {
      obs::ContextGuard inner(obs::TraceContext{33, 44, false});
      EXPECT_EQ(obs::current_context().trace_id, 33u);
    }
    EXPECT_EQ(obs::current_context().trace_id, 11u);
    {
      // An invalid context CLEARS the slot: handlers of untraced work
      // must not inherit an unrelated ambient trace.
      obs::ContextGuard clear(obs::TraceContext{});
      EXPECT_FALSE(obs::current_context().valid());
    }
    EXPECT_EQ(obs::current_context().trace_id, 11u);
  }
  EXPECT_FALSE(obs::current_context().valid());
}

// Span bodies compile to no-ops under MBIRD_OBS_OFF; the tests that need
// spans to actually open (inheritance, orphan keying, recorder feed) only
// make sense with the instrumentation present.
#ifndef MBIRD_OBS_OFF
TEST(TraceCtx, SpanInheritsAdoptedContextAndExportsIds) {
  obs::Tracer& tr = obs::Tracer::global();
  tr.enable();
  {
    obs::ContextGuard adopt(obs::TraceContext{0xAB, 0xCD, true});
    obs::Span s("tracectx.child");
    // The open span is now the innermost context, same trace as adopted.
    EXPECT_EQ(obs::current_context().trace_id, 0xABu);
    EXPECT_NE(obs::current_context().span_id, 0xCDu);
  }
  tr.disable();
  bool found = false;
  for (const auto& ev : tr.events()) {
    if (std::string(ev.name) != "tracectx.child") continue;
    found = true;
    EXPECT_EQ(ev.trace_id, 0xABu);
    EXPECT_EQ(ev.parent_span_id, 0xCDu);
    EXPECT_NE(ev.span_id, 0u);
  }
  EXPECT_TRUE(found);
  // Ids reach the chrome export as 16-hex-digit args.
  EXPECT_NE(tr.chrome_json().find("\"trace_id\":\"00000000000000ab\""),
            std::string::npos);
}
#endif  // MBIRD_OBS_OFF

TEST(TraceCtx, FreshTraceIdsAreUniqueAndNonZero) {
  uint64_t a = obs::fresh_trace_id();
  uint64_t b = obs::fresh_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

// ---- orphan detection keyed by (thread, trace) ------------------------------

#ifndef MBIRD_OBS_OFF
TEST(TraceCtx, InterleavedTracesOnOneThreadAreNotOrphans) {
  // A reactor thread legitimately interleaves spans of different peers'
  // traces on one stack: closing trace A's span while trace B's span is
  // still open above it is NOT a nesting bug. The orphan check must be
  // keyed by (thread, trace), not thread alone.
  obs::Tracer& tr = obs::Tracer::global();
  tr.enable();
  {
    auto guard_a =
        std::make_unique<obs::ContextGuard>(obs::TraceContext{100, 1, true});
    auto span_a = std::make_unique<obs::Span>("peer_a.request");
    auto guard_b =
        std::make_unique<obs::ContextGuard>(obs::TraceContext{200, 2, true});
    auto span_b = std::make_unique<obs::Span>("peer_b.request");
    span_a.reset();  // out of stack order, but a different trace
    span_b.reset();
    guard_b.reset();
    guard_a.reset();
  }
  EXPECT_EQ(tr.orphan_count(), 0u);

  // Same-trace out-of-order close is still an orphan: the parent closed
  // while its own child was open.
  {
    auto parent = std::make_unique<obs::Span>("parent");
    auto child = std::make_unique<obs::Span>("child");
    parent.reset();
    EXPECT_EQ(tr.orphan_count(), 1u);
    child.reset();
  }
  tr.disable();
}
#endif  // MBIRD_OBS_OFF

// ---- propagation across a faulty link ---------------------------------------

TEST(TraceCtx, PropagatesAcrossLossyReorderingLink) {
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));

  transport::FaultOptions faults;
  faults.drop_probability = 0.1;
  faults.reorder_probability = 0.1;
  faults.seed = 42;
  ReliabilityOptions ro;
  ro.max_frame_payload = 32;  // force the big send through the chunk path
  Node a(1, ro), b(2);
  auto [la, lb] = transport::make_inproc_pair(faults);
  std::vector<std::vector<uint8_t>> sent;
  a.connect(2, std::make_shared<FrameSpy>(std::move(la), &sent));
  b.connect(1, std::move(lb));

  std::vector<obs::TraceContext> seen;
  uint64_t p = b.open_port(&g, bytes, [&](const Value&) {
    seen.push_back(obs::current_context());
  });

  const obs::TraceContext ctx{0xABCDEF01u, 0x1234u, true};
  {
    obs::ContextGuard guard(ctx);
    a.send(p, g, bytes, byte_list(10));            // one DATA frame
    a.send(p, g, bytes, byte_list(900, 3));  // many CHUNK frames
  }
  pump({&a, &b});

  // Both messages delivered, each handler ran under the caller's context
  // (chunked delivery adopts the stream's stored context, not whatever the
  // final drain round happened to hold).
  ASSERT_EQ(seen.size(), 2u);
  for (const obs::TraceContext& c : seen) {
    EXPECT_EQ(c.trace_id, ctx.trace_id);
    EXPECT_EQ(c.span_id, ctx.span_id);
    EXPECT_TRUE(c.sampled);
  }

  // Every DATA/CHUNK frame that crossed the wire — originals and
  // retransmits — carried the identical extension.
  ASSERT_GT(a.stats().retransmits, 0u) << "seed must exercise loss";
  std::map<uint64_t, std::vector<uint8_t>> by_seq;
  size_t traced_frames = 0;
  for (const auto& raw : sent) {
    wire::Frame f = wire::unpack_frame(raw);
    if (f.kind == wire::FrameKind::Ack) continue;
    ++traced_frames;
    EXPECT_EQ(f.trace_id, ctx.trace_id);
    EXPECT_EQ(f.parent_span_id, ctx.span_id);
    EXPECT_TRUE(f.sampled);
    auto [it, inserted] = by_seq.emplace(f.seq, raw);
    if (!inserted) {
      // Retransmit: byte-identical to the original (pre-packed bytes are
      // resent verbatim; cum_ack included, since retransmit entries store
      // the full frame image).
      EXPECT_EQ(it->second, raw) << "retransmit of seq " << f.seq << " differs";
    }
  }
  EXPECT_GT(traced_frames, by_seq.size()) << "no retransmitted data frame";
  EXPECT_GT(b.stats().messages_reassembled, 0u);
}

TEST(TraceCtx, UncontextedSendCarriesNoExtension) {
  Graph g;
  Ref bytes = g.list_of(g.integer(0, 255));
  Node a(1), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  std::vector<std::vector<uint8_t>> sent;
  a.connect(2, std::make_shared<FrameSpy>(std::move(la), &sent));
  b.connect(1, std::move(lb));
  int hits = 0;
  uint64_t p = b.open_port(&g, bytes, [&](const Value&) { ++hits; });
  {
    // A clearing guard shields the send from any ambient context an
    // earlier (deliberately mis-nested) test left on this thread.
    obs::ContextGuard clear(obs::TraceContext{});
    a.send(p, g, bytes, byte_list(4));
  }
  pump({&a, &b});
  EXPECT_EQ(hits, 1);
  ASSERT_FALSE(sent.empty());
  wire::Frame f = wire::unpack_frame(sent[0]);
  EXPECT_EQ(f.trace_id, 0u);
  EXPECT_EQ(sent[0].size(), wire::kFrameHeaderSize + f.payload.size());
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRec, RecordsOverwritesAndCounts) {
  obs::FlightRecorder fr;
  fr.enable();
  for (uint64_t i = 0; i < 10; ++i) fr.record("ev", 1000 + i, 5, 7, i + 1, 0);
  EXPECT_EQ(fr.total_recorded(), 10u);
  EXPECT_EQ(fr.snapshot().size(), 10u);

  // Overflow: the ring holds the newest kRingSize, total keeps counting.
  const size_t extra = obs::FlightRecorder::kRingSize + 50;
  for (size_t i = 0; i < extra; ++i) {
    fr.record("more", 2000 + i, 1, 7, 100 + i, 0);
  }
  EXPECT_EQ(fr.total_recorded(), 10u + extra);
  EXPECT_EQ(fr.snapshot().size(), obs::FlightRecorder::kRingSize);
}

TEST(FlightRec, DisabledRecordIsDropped) {
  obs::FlightRecorder fr;
  fr.record("ev", 1, 1, 1, 1, 0);
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.snapshot().empty());
}

#ifndef MBIRD_OBS_OFF
TEST(FlightRec, SpanFeedsGlobalRecorderWithoutTracer) {
  // The recorder path must work with the tracer OFF — that is its whole
  // point: a daemon without --trace still has the recent past.
  ASSERT_FALSE(obs::Tracer::global().enabled());
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.enable();
  const uint64_t before = fr.total_recorded();
  {
    obs::ContextGuard adopt(obs::TraceContext{0x777, 0x888, true});
    obs::Span s("flightrec.probe");
  }
  fr.disable();
  EXPECT_GT(fr.total_recorded(), before);
  bool found = false;
  for (const auto& ev : fr.snapshot()) {
    if (std::string(ev.name) != "flightrec.probe") continue;
    found = true;
    EXPECT_EQ(ev.trace_id, 0x777u);
    EXPECT_EQ(ev.parent_span_id, 0x888u);
    EXPECT_NE(ev.span_id, 0u);
  }
  EXPECT_TRUE(found);
}
#endif  // MBIRD_OBS_OFF

TEST(FlightRec, FaultDumpsOnceWithReasonAndTraceIds) {
  const std::string path = testing::TempDir() + "flightrec_fault.json";
  std::remove(path.c_str());

  obs::FlightRecorder fr;
  fr.enable();
  fr.set_fault_path(path);
  fr.record("serve.request", 1000, 250, 0xfeedface, 0x42, 0x41);
  fr.fault("test.marshal_fault");
  EXPECT_EQ(fr.fault_count(), 1u);

  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << "fault dump not written";
  EXPECT_NE(dump.find("test.marshal_fault"), std::string::npos);
  EXPECT_NE(dump.find("serve.request"), std::string::npos);
  EXPECT_NE(dump.find("00000000feedface"), std::string::npos);

  // Storm protection: only the FIRST fault writes the file.
  std::remove(path.c_str());
  fr.fault("test.second");
  EXPECT_EQ(fr.fault_count(), 2u);
  EXPECT_TRUE(slurp(path).empty()) << "second fault must not rewrite";
}

TEST(FlightRec, FaultIsInertWithoutPathOrEnable) {
  obs::FlightRecorder fr;
  fr.fault("nope");  // disabled
  EXPECT_EQ(fr.fault_count(), 0u);
  fr.enable();
  fr.fault("nope");  // no path set
  EXPECT_EQ(fr.fault_count(), 0u);
}

TEST(FlightRec, ConcurrentRecordAndSnapshotIsSafe) {
  // Four writers hammer their rings while the main thread snapshots: the
  // seqlock stamps must yield consistent-or-skipped slots, never torn
  // reads (run under TSan in CI).
  obs::FlightRecorder fr;
  fr.enable();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&fr, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        fr.record("w", i, 1, static_cast<uint64_t>(t) + 1, i + 1, i);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    for (const auto& ev : fr.snapshot()) {
      // Every visible slot must be fully published.
      EXPECT_NE(ev.trace_id, 0u);
      EXPECT_NE(ev.span_id, 0u);
    }
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(fr.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(fr.snapshot().size(),
            std::min<size_t>(kThreads * kPerThread,
                             static_cast<size_t>(kThreads) *
                                 obs::FlightRecorder::kRingSize));
}

TEST(FlightRec, DecodeFaultRecordsFaultingTrace) {
  // A garbage payload to an open port must not kill the node; it counts a
  // decode fault and pins the faulting frame's trace id into the ring so
  // the dump is attributable — the induced-marshal-fault acceptance path.
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.enable();
  const uint64_t faults_before = fr.fault_count();

  Graph g;
  Ref rec = g.record({g.integer(0, 1000), g.integer(0, 1000)}, {"x", "y"});
  Node a(1), b(2);
  auto [la, lb] = transport::make_inproc_pair();
  a.connect(2, std::move(la));
  b.connect(1, std::move(lb));
  int hits = 0;
  uint64_t p = b.open_port(&g, rec, [&](const Value&) { ++hits; });

  const obs::TraceContext ctx{0xBADBEEF, 0x77, true};
  {
    obs::ContextGuard guard(ctx);
    a.send_marshaled(p, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
  }
  pump({&a, &b});
  fr.disable();

  EXPECT_EQ(hits, 0);
  EXPECT_EQ(b.stats().decode_faults, 1u);
  // fault() fired (no path set in this test, so it only counts when a
  // path is configured — the counter is gated on enable+path; the ring
  // record is what we assert here).
  (void)faults_before;
  bool found = false;
  for (const auto& ev : fr.snapshot()) {
    if (std::string(ev.name) != "rpc.marshal_fault") continue;
    if (ev.trace_id != 0xBADBEEFu) continue;
    found = true;
    EXPECT_EQ(ev.parent_span_id, 0x77u);
  }
  EXPECT_TRUE(found) << "faulting frame's trace id not pinned into the ring";
}

}  // namespace
}  // namespace mbird::rpc
