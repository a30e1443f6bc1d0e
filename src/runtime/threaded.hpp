// The PlanIR execution engine (DESIGN.md §4j): the one interpreter of
// verified programs, in all three modes. Compiled stubs
// (codegen::StubCache) are the only other executor, and they serve
// native-marshal programs only.
//
// Convert-mode programs run through the shared work-stack interpreter
// (exec::run_convert) and reproduce runtime::Converter exactly — same
// values, same typed errors. A marshal- or native-marshal-mode program is
// specialized at construction time into a flat, pre-decoded op stream:
//
//   * static structure is flattened away — record nesting and field-path
//     walks become ops with fused paths (no per-op work-stack traffic, no
//     EmitField indirection), destination wire ranges are pre-resolved
//     (no dst_graph lookups per integer), and native-marshal streams with
//     fully static output sizes get a single exact resize;
//   * each instruction is inlined a bounded number of times; past that it
//     becomes a shared segment, so the stream stays linear in the program
//     size and every verified program can be specialized;
//   * dynamic constructs (lists, choices, recursion back-edges) run on an
//     explicit frame stack, so conversion depth stays bounded by memory;
//   * each choice site gets an inline cache memoizing the last taken label
//     path (see exec::IcRecord for the validity argument);
//   * the native-marshal range prologue is vectorized: contiguous runs of
//     annotated byte-wide fields are checked 16 lanes at a time (SSE2 /
//     NEON); a failing run is re-run through the scalar path so the engine
//     throws the same error at the same field as the read-image path; and
//   * dispatch uses computed goto (GNU label values, which every compiler
//     that builds the repo provides — the code base needs GNU __int128).
//
// Output bytes and fault ordering equal the tree interpreter followed by
// wire::encode (shared helpers in exec_detail.hpp; the differential suites
// hold the engine to that oracle). Engines carry mutable per-site caches
// and are therefore NOT shareable across threads — each thread builds its
// own engine over the shared verified Program.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/value.hpp"

namespace mbird::runtime {

class NativeHeap;

namespace exec {
struct StreamCtl;
}

/// Total wire bytes a native-marshal program emits, when every op has a
/// static width (no LoadOpaque). The engine uses it for the single-resize
/// fast path; the compiled-stub cache for output buffer sizing.
/// std::nullopt for dynamic programs (or non-native modes). Linear in the
/// program size: shared sub-sequences are sized once.
[[nodiscard]] std::optional<size_t> static_native_wire_size(
    const planir::Program& prog);

class ThreadedEngine {
 public:
  struct Stats {
    uint64_t runs = 0;
    uint64_t ic_hits = 0;      // choice dispatches served from the cache
    uint64_t ic_misses = 0;    // full trie walks (cold or invalidated)
    uint64_t simd_blocks = 0;  // 16-lane range-check blocks executed
    uint64_t simd_rescans = 0; // runs re-run scalar after a lane failed
  };

  /// Verifies the program (planir::require_valid) and specializes it.
  /// Throws planir::IrError on malformed IR; accepts every valid program.
  explicit ThreadedEngine(std::shared_ptr<const planir::Program> prog,
                          PortAdapter port_adapter = {},
                          CustomRegistry custom = {});
  /// Non-owning variant: `prog` must outlive the engine.
  explicit ThreadedEngine(const planir::Program& prog,
                          PortAdapter port_adapter = {},
                          CustomRegistry custom = {});
  ~ThreadedEngine();
  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  /// Convert-mode execution. Throws ConversionError exactly like
  /// Converter::apply; throws planir::IrError unless the program is
  /// convert-mode.
  [[nodiscard]] Value apply(const Value& in) const;

  /// Marshal-mode execution: wire bytes for the converted value, without
  /// materializing it. Throws ConversionError/WireError as the unfused
  /// convert-then-encode pipeline would; throws planir::IrError unless the
  /// program is marshal-mode.
  [[nodiscard]] std::vector<uint8_t> marshal(const Value& in) const;
  /// Buffer-reusing variant: append the marshaled bytes to `out` (which the
  /// caller typically recycles through a wire::BufferPool). Nothing is
  /// appended if marshaling throws partway — the partial bytes are trimmed.
  void marshal_into(const Value& in, std::vector<uint8_t>& out) const;

  /// Native-marshal execution: wire bytes straight from the native image at
  /// `addr`, no Value construction. Before emitting anything it replays
  /// every read-time check over the image (annotated integer ranges, enum
  /// membership, in read order), so it throws on exactly the inputs the
  /// read-native → convert → encode pipeline throws on. Throws
  /// planir::IrError unless the program is native-marshal mode.
  [[nodiscard]] std::vector<uint8_t> marshal_native(const NativeHeap& heap,
                                                    uint64_t addr) const;
  /// Appending variant (same trim-on-throw contract as marshal_into).
  void marshal_native_into(const NativeHeap& heap, uint64_t addr,
                           std::vector<uint8_t>& out) const;

  /// Chunked (streaming) marshal: deliver the wire bytes as bounded pieces
  /// through `emit` (see PieceSink for the piece-size/last contract) with
  /// O(max_piece) resident buffering instead of staging the full message
  /// (the static-size exact resize fast path is bypassed in this mode).
  /// The concatenated pieces are byte-identical to marshal(). If marshaling
  /// throws after pieces were emitted, no final piece arrives — the caller
  /// aborts its stream.
  void marshal_chunked(const Value& in, size_t max_piece,
                       const PieceSink& emit) const;
  void marshal_native_chunked(const NativeHeap& heap, uint64_t addr,
                              size_t max_piece, const PieceSink& emit) const;

  [[nodiscard]] const planir::Program& program() const { return *prog_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] size_t op_count() const;
  /// The static output size baked in at build time (native mode only).
  [[nodiscard]] std::optional<size_t> static_size() const;

 private:
  struct Op;
  struct Ic;
  struct CheckItem;
  struct StreamBuild;

  void build_native_checks();
  void bind_labels();
  void run_checks(const NativeHeap& heap, uint64_t base) const;
  // With table_out set, returns the dispatch-label table instead of
  // executing (bind_labels fetches label addresses this way).
  void run_marshal_stream(const Value* in, std::vector<uint8_t>* out,
                          const void* const** table_out,
                          exec::StreamCtl* stream = nullptr) const;
  void run_native_stream(const NativeHeap* heap, uint64_t addr,
                         std::vector<uint8_t>* out,
                         const void* const** table_out,
                         exec::StreamCtl* stream = nullptr) const;

  std::shared_ptr<const planir::Program> prog_;
  PortAdapter adapter_;
  CustomRegistry customs_;
  std::vector<Op> ops_;
  std::vector<uint32_t> path_pool_;   // fused field paths
  std::vector<uint32_t> arm_pc_;      // global arm index -> segment pc
  std::vector<CheckItem> checks_;     // native range prologue plan
  std::vector<uint8_t> simd_lo_, simd_hi_;
  std::vector<uint32_t> check_nodes_;
  ptrdiff_t static_size_ = -1;        // native mode: exact bytes, or -1
  bool needs_image_ = false;          // native mode: any op reads the image
  mutable std::vector<Ic> ics_;       // per choice site
  mutable Stats stats_;
};

}  // namespace mbird::runtime
