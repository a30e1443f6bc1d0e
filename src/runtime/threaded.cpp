#include "runtime/threaded.hpp"

#include <cstring>
#include <deque>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/exec_detail.hpp"
#include "runtime/layout.hpp"
#include "support/error.hpp"
#include "wire/wire.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#define MBIRD_SIMD_SSE2 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define MBIRD_SIMD_NEON 1
#endif

namespace mbird::runtime {

using planir::IrError;
using planir::IrFault;
using planir::OpCode;
using planir::Program;

namespace {

// Registry instruments (DESIGN.md §4h); the `planvm.` prefix predates the
// engine being the only interpreter and is kept so dashboards and the
// repository benchmark keep reading the same names.
struct TeMetrics {
  obs::Counter& converts = obs::counter("planvm.converts");
  obs::Histogram& convert_ns = obs::histogram("planvm.convert_ns");
  obs::Counter& marshals = obs::counter("planvm.threaded.marshals");
  obs::Counter& marshals_native = obs::counter("planvm.threaded.marshals_native");
  obs::Histogram& marshal_ns = obs::histogram("planvm.threaded.marshal_ns");
  obs::Histogram& marshal_native_ns =
      obs::histogram("planvm.threaded.marshal_native_ns");
};
TeMetrics& te_metrics() {
  static TeMetrics m;
  return m;
}

// Pre-decoded opcodes. One enum covers both modes; each mode's dispatch
// table routes the other mode's entries to the corrupt-stream trap.
enum class TOp : uint16_t {
  Halt,
  // Marshal mode (fused paths; explicit frame stack for calls and lists).
  MUnit,
  MInt,
  MReal32,
  MReal64,
  MChar1,
  MChar4,
  MPort,
  MCustom,
  MOpaque,
  MRecordEnter,
  MRecordLeave,
  MCallSeg,
  MReturn,
  MListBegin,
  MChoice,
  // Native-marshal mode (raw image loads; shared segments via a return
  // stack).
  NIntU,
  NIntS,
  NBool,
  NEnum,
  NReal32,
  NReal64,
  NChar1,
  NChar4,
  NBlockCopy,
  NConstBytes,
  NOpaque,
  NCall,
  NReturn,
  kCount,
};
constexpr size_t kTOpCount = static_cast<size_t>(TOp::kCount);

// Little-endian image loads, mirroring NativeHeap::read_uint/read_int; the
// engine hoists the heap bounds check to one [base, base+layout.size) probe.
uint64_t le_load(const uint8_t* p, uint32_t bytes) {
  uint64_t v = 0;
  std::memcpy(&v, p, bytes);
  return v;
}
int64_t sext(uint64_t u, uint32_t bytes) {
  if (bytes < 8) {
    uint64_t sign = 1ULL << (bytes * 8 - 1);
    if (u & sign) u |= ~((sign << 1) - 1);
  }
  return static_cast<int64_t>(u);
}

// Append-only writer over the caller's vector: a watermark plus capacity
// growth decoupled from the logical size, so hot ops write through a raw
// pointer. commit() trims to the watermark; on throw the caller's
// trim-on-error contract (marshal_into) restores the original size.
struct OutBuf {
  std::vector<uint8_t>& v;
  size_t w;
  size_t mark;
  explicit OutBuf(std::vector<uint8_t>& out)
      : v(out), w(out.size()), mark(out.size()) {}
  uint8_t* need(size_t n) {
    if (v.size() - w < n) {
      // Grow in proportion to this run's output, not the caller's total
      // buffer: a reused append buffer must not pay a zero-fill of its
      // accumulated contents on every marshal.
      size_t run = w - mark;
      v.resize(std::max(w + run / 2 + 16, w + n));
    }
    return v.data() + w;
  }
  void be(unsigned __int128 x, uint32_t bytes) {
    uint8_t* p = need(bytes);
    for (uint32_t i = 0; i < bytes; ++i) {
      p[i] = static_cast<uint8_t>(x >> ((bytes - 1 - i) * 8));
    }
    w += bytes;
  }
  void byte(uint8_t b) {
    *need(1) = b;
    ++w;
  }
  void raw(const uint8_t* src, size_t n) {
    std::memcpy(need(n), src, n);
    w += n;
  }
  void commit() { v.resize(w); }
};

/// Append wire::encode(v) as dst_types[dst]: the tail of the custom and
/// opaque ops, whose encoded bytes come from the generic encoder.
void emit_encoded(OutBuf& o, const Program& prog, uint32_t dst,
                  const Value& v) {
  const std::vector<uint8_t> bytes =
      wire::encode(*prog.dst_graph, prog.dst_types[dst], v);
  o.raw(bytes.data(), bytes.size());
}

[[noreturn]] void range_fault(Int128 x, Int128 lo, Int128 hi) {
  throw ConversionError("integer " + to_string(x) + " outside target range [" +
                        to_string(lo) + ".." + to_string(hi) + "]");
}
[[noreturn]] void wire_fault(Int128 x) {
  throw WireError("integer outside wire range: " + to_string(x));
}

}  // namespace

struct ThreadedEngine::Op {
  const void* label = nullptr;  // computed-goto target
  TOp code = TOp::Halt;
  uint32_t plen = 0;            // fused path length
  uint32_t poff = 0;            // offset into path_pool_
  uint32_t a = 0, b = 0, c = 0, d = 0;
  Int128 lo = 0, hi = 0;        // plan range
  Int128 dlo = 0, dhi = 0;      // destination wire range
};

struct ThreadedEngine::Ic {
  static constexpr uint8_t kEmpty = 0xff;
  uint32_t labels[exec::IcRecord::kMaxDepth] = {};
  uint32_t arm = 0;
  uint8_t n = kEmpty;
};

struct ThreadedEngine::CheckItem {
  uint32_t node = 0;  // scalar item: the layout node to check
  uint32_t off = 0;   // run: image offset of the first byte
  uint32_t len = 0;   // run: byte/node count; 0 marks a scalar item
  uint32_t pool = 0;  // run: offset into simd_lo_/simd_hi_/check_nodes_
};

// ---- specialization ---------------------------------------------------------
//
// Flattens the instruction graph into a linear stream. In marshal mode,
// records and extracts inline with fused (concatenated) source paths —
// follow() composes, so follow(follow(v, p1), p2) walks, errs, and results
// exactly like the two-step field walk of run_convert. In native mode,
// NativeSeq children inline in order, which is the read order of the image.
// Each instruction may inline at most kInlineLimit times (and to a bounded
// C++ build depth); past that it becomes a shared segment invoked via
// MCallSeg / NCall, which keeps the stream linear in the program size and
// makes verified guarded cycles terminate at run time. Lists and choice
// arms always run as segments; one MReturn op serves segment calls and
// list-element iteration through a unified frame.
struct ThreadedEngine::StreamBuild {
  static constexpr uint32_t kInlineLimit = 4;
  static constexpr uint32_t kMaxDepth = 512;

  const Program& p;
  ThreadedEngine& e;
  size_t budget = 0;              // the stream's linear bound, see below
  std::vector<uint32_t> seg_of;   // instr -> queue position + 1 (0 = none)
  std::vector<uint32_t> pending;  // instrs that need a segment
  std::vector<uint32_t> seg_pc;   // parallel to pending, patched in run()
  std::vector<std::pair<size_t, uint32_t>> patches;      // op idx -> queue pos
  std::vector<std::pair<uint32_t, uint32_t>> arm_pcs;    // arm idx -> queue pos
  std::vector<uint32_t> inline_used;                     // per instr
  uint32_t ic_slots = 0;

  StreamBuild(const Program& prog, ThreadedEngine& eng)
      : p(prog), e(eng), seg_of(prog.code.size(), 0),
        inline_used(prog.code.size(), 0) {
    // Every instruction body is expanded at most kInlineLimit + 2 times
    // (its inlined copies, the entry, its own segment). Each expansion
    // emits one child per field, and each child costs at most two ops (a
    // leaf, a call, or a record's enter/leave pair). Segments add one
    // return op each, the stream one Halt.
    size_t fanout = 0;
    for (const planir::Instr& ins : p.code) {
      if (ins.op == OpCode::EmitRecord || ins.op == OpCode::NativeSeq) {
        fanout += p.records[ins.a].fields_len;
      } else if (ins.op == OpCode::EmitExtract) {
        fanout += 1;
      }
    }
    budget = 2 * ((kInlineLimit + 2) * fanout + p.code.size() + 1) +
             p.code.size() + 1;
  }

  Op& push(TOp code) {
    if (e.ops_.size() >= budget) {
      throw IrError(IrFault::OperandRange,
                    "threaded: flattened stream exceeds its linear bound");
    }
    e.ops_.emplace_back();
    Op& op = e.ops_.back();
    op.code = code;
    return op;
  }

  void set_path(Op& op, const std::vector<uint32_t>& path) {
    op.poff = static_cast<uint32_t>(e.path_pool_.size());
    op.plen = static_cast<uint32_t>(path.size());
    e.path_pool_.insert(e.path_pool_.end(), path.begin(), path.end());
  }

  uint32_t seg_ref(uint32_t instr) {
    uint32_t& slot = seg_of[instr];
    if (slot == 0) {
      pending.push_back(instr);
      seg_pc.push_back(0);
      slot = static_cast<uint32_t>(pending.size());
    }
    return slot - 1;
  }

  /// Whether `idx` inlines here; false means emit a call to its segment.
  bool inline_here(uint32_t idx, bool root, uint32_t depth) {
    return root || (++inline_used[idx] <= kInlineLimit && depth < kMaxDepth);
  }

  Op& call(TOp code, uint32_t idx) {
    Op& op = push(code);
    patches.emplace_back(e.ops_.size() - 1, seg_ref(idx));
    return op;
  }

  void emit(uint32_t idx, const std::vector<uint32_t>& prefix, bool root,
            uint32_t depth) {
    const planir::Instr& ins = p.code[idx];
    switch (ins.op) {
      case OpCode::EmitNothing:
        // run_convert still walks the field path before doing nothing;
        // keep the walk (and its possible error) with a path-only op.
        if (!prefix.empty()) set_path(push(TOp::MUnit), prefix);
        break;
      case OpCode::EmitInt: {
        const mtype::Node& dn = p.dst_graph->at(p.dst_types[ins.b]);
        Op& op = push(TOp::MInt);
        set_path(op, prefix);
        op.a = ins.a;  // wire width
        op.lo = ins.lo;
        op.hi = ins.hi;
        op.dlo = dn.lo;
        op.dhi = dn.hi;
        break;
      }
      case OpCode::EmitReal32:
        set_path(push(TOp::MReal32), prefix);
        break;
      case OpCode::EmitReal64:
        set_path(push(TOp::MReal64), prefix);
        break;
      case OpCode::EmitChar1:
        set_path(push(TOp::MChar1), prefix);
        break;
      case OpCode::EmitChar4:
        set_path(push(TOp::MChar4), prefix);
        break;
      case OpCode::EmitPort: {
        Op& op = push(TOp::MPort);
        set_path(op, prefix);
        op.a = ins.a;
        break;
      }
      case OpCode::EmitCustom: {
        Op& op = push(TOp::MCustom);
        set_path(op, prefix);
        op.a = ins.a;
        op.b = ins.b;
        break;
      }
      case OpCode::EmitOpaque: {
        Op& op = push(TOp::MOpaque);
        set_path(op, prefix);
        op.a = ins.a;
        op.b = ins.b;
        break;
      }
      case OpCode::EmitList:
        set_path(call(TOp::MListBegin, ins.a), prefix);
        break;
      case OpCode::EmitChoice: {
        Op& op = push(TOp::MChoice);
        set_path(op, prefix);
        op.a = ins.a;
        op.b = ic_slots++;
        const Program::ChoiceTab& ct = p.choices[ins.a];
        for (uint32_t g = ct.arms_off; g < ct.arms_off + ct.arms_len; ++g) {
          arm_pcs.emplace_back(g, seg_ref(p.arms[g].op));
        }
        break;
      }
      case OpCode::EmitRecord: {
        if (!inline_here(idx, root, depth)) {
          set_path(call(TOp::MCallSeg, idx), prefix);
          break;
        }
        bool descend = !prefix.empty();
        if (descend) set_path(push(TOp::MRecordEnter), prefix);
        const Program::RecordTab& rt = p.records[ins.a];
        std::vector<uint32_t> fpath;
        for (uint32_t k = 0; k < rt.fields_len; ++k) {
          const Program::Field& f = p.fields[rt.fields_off + k];
          fpath.assign(p.path_pool.begin() + f.src_off,
                       p.path_pool.begin() + f.src_off + f.src_len);
          emit(f.op, fpath, false, depth + 1);
        }
        if (descend) push(TOp::MRecordLeave);
        break;
      }
      case OpCode::EmitExtract: {
        if (!inline_here(idx, root, depth)) {
          set_path(call(TOp::MCallSeg, idx), prefix);
          break;
        }
        const Program::Field& f = p.fields[ins.a];
        std::vector<uint32_t> fused = prefix;
        fused.insert(fused.end(), p.path_pool.begin() + f.src_off,
                     p.path_pool.begin() + f.src_off + f.src_len);
        emit(f.op, fused, false, depth + 1);
        break;
      }
      default:
        throw IrError(IrFault::BadOpcode,
                      std::string("threaded marshal hit ") + to_string(ins.op));
    }
  }

  /// A native load op over slot `ins.a`: image offset, native width, and
  /// the plan/wire integer ranges where the op has them.
  Op& load(TOp code, const planir::Instr& ins) {
    const Program::NativeSlot& s = p.natives[ins.a];
    Op& op = push(code);
    op.a = s.src_off;
    op.b = s.width;
    op.c = s.aux;  // wire width (integer loads)
    op.lo = ins.lo;
    op.hi = ins.hi;
    e.needs_image_ = true;
    return op;
  }

  void emit_native(uint32_t idx, bool root, uint32_t depth) {
    const planir::Instr& ins = p.code[idx];
    auto wire_range = [&](Op& op) {
      const mtype::Node& dn = p.dst_graph->at(p.dst_types[ins.b]);
      op.dlo = dn.lo;
      op.dhi = dn.hi;
    };
    switch (ins.op) {
      case OpCode::EmitNothing: break;
      case OpCode::LoadInt: {
        const uint32_t flags = p.natives[ins.a].flags;
        wire_range(load((flags & Program::NativeSlot::kBool)     ? TOp::NBool
                        : (flags & Program::NativeSlot::kSigned) ? TOp::NIntS
                                                                 : TOp::NIntU,
                        ins));
        break;
      }
      case OpCode::LoadEnum: {
        Op& op = load(TOp::NEnum, ins);
        op.d = p.natives[ins.a].layout_node;
        wire_range(op);
        break;
      }
      case OpCode::LoadReal32: load(TOp::NReal32, ins); break;
      case OpCode::LoadReal64: load(TOp::NReal64, ins); break;
      case OpCode::LoadChar1: load(TOp::NChar1, ins); break;
      case OpCode::LoadChar4: load(TOp::NChar4, ins); break;
      case OpCode::BlockCopy: load(TOp::NBlockCopy, ins); break;
      case OpCode::ConstBytes: {
        Op& op = push(TOp::NConstBytes);
        op.a = ins.a;
        op.b = ins.b;
        break;
      }
      case OpCode::NativeSeq: {
        if (!inline_here(idx, root, depth)) {
          call(TOp::NCall, idx);
          break;
        }
        const Program::RecordTab& rt = p.records[ins.a];
        for (uint32_t k = 0; k < rt.fields_len; ++k) {
          emit_native(p.fields[rt.fields_off + k].op, false, depth + 1);
        }
        break;
      }
      case OpCode::LoadOpaque: {
        Op& op = push(TOp::NOpaque);
        op.a = ins.a;
        op.b = ins.b;
        break;
      }
      default:
        throw IrError(IrFault::BadOpcode,
                      std::string("threaded native hit ") + to_string(ins.op));
    }
  }

  void run() {
    const bool native = p.mode == Program::Mode::NativeMarshal;
    const std::vector<uint32_t> empty;
    auto emit_root = [&](uint32_t idx) {
      if (native) {
        emit_native(idx, true, 0);
      } else {
        emit(idx, empty, true, 0);
      }
    };
    emit_root(p.entry);
    push(TOp::Halt);
    for (size_t q = 0; q < pending.size(); ++q) {
      seg_pc[q] = static_cast<uint32_t>(e.ops_.size());
      emit_root(pending[q]);
      push(native ? TOp::NReturn : TOp::MReturn);
    }
    for (const auto& [op_idx, pos] : patches) e.ops_[op_idx].a = seg_pc[pos];
    e.arm_pc_.assign(p.arms.size(), 0);
    for (const auto& [arm, pos] : arm_pcs) e.arm_pc_[arm] = seg_pc[pos];
    e.ics_.assign(ic_slots, Ic{});
  }
};

// Lower check_image_ranges into a check plan: annotated/enum nodes stay
// scalar items, except maximal runs of >= 16 annotated byte-wide unsigned
// fields at consecutive offsets, which become 16-lane compare blocks over
// per-byte [lo, hi] pools. The lowering is order-preserving (pre-order),
// and a run whose block fails is re-run through the scalar path, so the
// first fault is always the same node with the same message as the scalar
// check_image_ranges that read_image runs.
void ThreadedEngine::build_native_checks() {
  constexpr uint32_t kMinRun = 16;
  const ImageLayout& il = *prog_->src_layout;

  std::vector<uint32_t> run;      // node indices of the open byte run
  uint64_t next_off = 0;          // expected offset of the next run member
  auto flush = [&] {
    if (run.size() >= kMinRun) {
      CheckItem item;
      item.off = il.nodes[run.front()].offset;
      item.len = static_cast<uint32_t>(run.size());
      item.pool = static_cast<uint32_t>(simd_lo_.size());
      for (uint32_t node : run) {
        const ImageLayout::Node& n = il.nodes[node];
        Int128 lo = n.has_lo ? n.lo : Int128{0};
        Int128 hi = n.has_hi ? n.hi : Int128{255};
        simd_lo_.push_back(static_cast<uint8_t>(lo < 0 ? 0 : lo));
        simd_hi_.push_back(static_cast<uint8_t>(hi > 255 ? 255 : hi));
        check_nodes_.push_back(node);
      }
      checks_.push_back(item);
    } else {
      for (uint32_t node : run) {
        CheckItem item;
        item.node = node;
        checks_.push_back(item);
      }
    }
    run.clear();
  };

  for (uint32_t i = 0; i < il.nodes.size(); ++i) {
    const ImageLayout::Node& n = il.nodes[i];
    bool scalar_checked =
        ((n.kind == ImageLayout::K::UInt || n.kind == ImageLayout::K::SInt) &&
         (n.has_lo || n.has_hi)) ||
        n.kind == ImageLayout::K::Enum;
    if (!scalar_checked) continue;  // check_image_range_node is a no-op
    // Lane-eligible: unsigned byte whose effective bounds fit in a byte
    // compare. Always-failing annotations (lo > 255, hi < 0) stay scalar so
    // they throw through the exact shared path.
    bool lane = n.kind == ImageLayout::K::UInt && n.width == 1 &&
                (n.has_lo || n.has_hi) && !(n.has_lo && n.lo > 255) &&
                !(n.has_hi && n.hi < 0);
    if (lane && !run.empty() && n.offset == next_off) {
      run.push_back(i);
      ++next_off;
      continue;
    }
    flush();
    if (lane) {
      run.push_back(i);
      next_off = n.offset + 1;
    } else {
      CheckItem item;
      item.node = i;
      checks_.push_back(item);
    }
  }
  flush();
}

void ThreadedEngine::run_checks(const NativeHeap& heap, uint64_t base) const {
  const ImageLayout& il = *prog_->src_layout;
  for (const CheckItem& c : checks_) {
    if (c.len == 0) {
      check_image_range_node(il, c.node, heap, base);
      continue;
    }
    const uint8_t* img = heap.at(base + c.off, c.len);
    const uint8_t* lo = simd_lo_.data() + c.pool;
    const uint8_t* hi = simd_hi_.data() + c.pool;
    uint32_t i = 0;
    bool bad = false;
#if defined(MBIRD_SIMD_SSE2)
    for (; i + 16 <= c.len && !bad; i += 16) {
      __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(img + i));
      __m128i l = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo + i));
      __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi + i));
      __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, l), v);  // v >= lo per lane
      __m128i le = _mm_cmpeq_epi8(_mm_min_epu8(v, h), v);  // v <= hi per lane
      if (_mm_movemask_epi8(_mm_and_si128(ge, le)) != 0xffff) bad = true;
      ++stats_.simd_blocks;
    }
#elif defined(MBIRD_SIMD_NEON)
    for (; i + 16 <= c.len && !bad; i += 16) {
      uint8x16_t v = vld1q_u8(img + i);
      uint8x16_t l = vld1q_u8(lo + i);
      uint8x16_t h = vld1q_u8(hi + i);
      uint8x16_t ok = vandq_u8(vcgeq_u8(v, l), vcleq_u8(v, h));
      if (vminvq_u8(ok) == 0) bad = true;
      ++stats_.simd_blocks;
    }
#endif
    if (bad) {
      // A lane failed somewhere in [i-16, i): re-run the whole run scalar
      // in pre-order so the throw is check_image_ranges', on its first node.
      ++stats_.simd_rescans;
      i = 0;
    }
    for (; i < c.len; ++i) {
      check_image_range_node(il, check_nodes_[c.pool + i], heap, base);
    }
  }
}

// ---- dispatch ---------------------------------------------------------------
//
// Computed goto (GNU label values): each op jumps straight to the next op's
// label, no central dispatch branch. Calling an executor with `table_out`
// set returns its label table instead of executing; the constructor binds
// ops_[i].label from it once. A computed goto leaves its scope without
// running destructors, so no op body may hold an object with one across
// TE_NEXT/TE_JUMP: temporaries die inside a full expression instead (see
// emit_encoded).

#define TE_OP(name) L_##name:
#define TE_NEXT     \
  do {              \
    ++pc;           \
    goto* ops[pc].label; \
  } while (0)
#define TE_JUMP goto* ops[pc].label
#define TE_BEGIN TE_JUMP;
#define TE_END \
  L_Bad:       \
  throw IrError(IrFault::BadOpcode, "threaded stream corrupt");

void ThreadedEngine::run_marshal_stream(const Value* in, std::vector<uint8_t>* out_p,
                                        const void* const** table_out) const {
  static const void* const table[kTOpCount] = {
      &&L_Halt,    &&L_MUnit,   &&L_MInt,     &&L_MReal32, &&L_MReal64,
      &&L_MChar1,  &&L_MChar4,  &&L_MPort,    &&L_MCustom, &&L_MOpaque,
      &&L_MRecordEnter, &&L_MRecordLeave, &&L_MCallSeg, &&L_MReturn,
      &&L_MListBegin, &&L_MChoice,
      // native ops never appear in a marshal stream
      &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad,
      &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad};
  if (table_out != nullptr) {
    *table_out = table;
    return;
  }
  const Program& prog = *prog_;
  const Op* ops = ops_.data();
  const uint32_t* paths = path_pool_.data();
  OutBuf o(*out_p);
  struct Frame {
    uint32_t ret_pc;
    uint32_t seg_pc;
    uint32_t idx;
    const std::vector<Value>* list;  // null for plain segment calls
  };
  std::vector<const Value*> vstack;
  vstack.reserve(16);
  vstack.push_back(in);
  std::vector<Frame> frames;
  std::deque<Value> chains;
  std::deque<std::vector<Value>> lists;
  uint32_t pc = 0;

  TE_BEGIN

  TE_OP(MUnit) {
    const Op& op = ops[pc];
    (void)exec::follow(*vstack.back(), paths + op.poff, op.plen);
    TE_NEXT;
  }
  TE_OP(MInt) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    Int128 x = v.as_int();
    if (x < op.lo || x > op.hi) range_fault(x, op.lo, op.hi);
    if (x < op.dlo || x > op.dhi) wire_fault(x);
    o.be(static_cast<unsigned __int128>(x - op.dlo), op.a);
    TE_NEXT;
  }
  TE_OP(MReal32) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    float f = static_cast<float>(v.as_real());
    uint32_t bits;
    std::memcpy(&bits, &f, 4);
    o.be(bits, 4);
    TE_NEXT;
  }
  TE_OP(MReal64) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    double d = v.as_real();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    o.be(bits, 8);
    TE_NEXT;
  }
  TE_OP(MChar1) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    uint32_t cp = v.as_char();
    if (cp > 0xff) throw WireError("code point exceeds repertoire");
    o.byte(static_cast<uint8_t>(cp));
    TE_NEXT;
  }
  TE_OP(MChar4) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    o.be(v.as_char(), 4);
    TE_NEXT;
  }
  TE_OP(MPort) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    uint64_t id = v.as_port();
    if (adapter_) id = adapter_(id, op.a);
    o.be(id, 8);
    TE_NEXT;
  }
  TE_OP(MCustom) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    emit_encoded(o, prog, op.b,
                 exec::find_custom(customs_, prog.custom_names[op.a])(v));
    TE_NEXT;
  }
  TE_OP(MOpaque) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    emit_encoded(
        o, prog, op.b,
        exec::run_convert(*prog.fallback, op.a, v, adapter_, customs_));
    TE_NEXT;
  }
  TE_OP(MRecordEnter) {
    const Op& op = ops[pc];
    vstack.push_back(&exec::follow(*vstack.back(), paths + op.poff, op.plen));
    TE_NEXT;
  }
  TE_OP(MRecordLeave) {
    vstack.pop_back();
    TE_NEXT;
  }
  TE_OP(MCallSeg) {
    const Op& op = ops[pc];
    vstack.push_back(&exec::follow(*vstack.back(), paths + op.poff, op.plen));
    frames.push_back(Frame{pc + 1, 0, 0, nullptr});
    pc = op.a;
    TE_JUMP;
  }
  TE_OP(MReturn) {
    Frame& f = frames.back();
    vstack.pop_back();
    if (f.list != nullptr && ++f.idx < f.list->size()) {
      vstack.push_back(&(*f.list)[f.idx]);
      pc = f.seg_pc;
    } else {
      pc = f.ret_pc;
      frames.pop_back();
    }
    TE_JUMP;
  }
  TE_OP(MListBegin) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    const std::vector<Value>& elems = exec::list_elems(v, lists);
    o.be(elems.size(), 4);
    if (!elems.empty()) {
      frames.push_back(Frame{pc + 1, op.a, 0, &elems});
      vstack.push_back(&elems[0]);
      pc = op.a;
      TE_JUMP;
    }
    TE_NEXT;
  }
  TE_OP(MChoice) {
    const Op& op = ops[pc];
    const Value& v = exec::follow(*vstack.back(), paths + op.poff, op.plen);
    Ic& ic = ics_[op.b];
    const Value* payload = nullptr;
    uint32_t arm_idx = 0;
    bool hit = false;
    if (ic.n != Ic::kEmpty) {
      // Replay the cached label path: the trie walk is a pure function of
      // the consumed labels, so matching Choice layers prove the same arm
      // and leave `cur` at the same payload the full walk would find.
      const Value* cur = &v;
      uint8_t k = 0;
      for (; k < ic.n; ++k) {
        if (cur->kind() != Value::Kind::Choice || cur->arm() != ic.labels[k]) {
          break;
        }
        cur = &cur->inner();
      }
      if (k == ic.n) {
        payload = cur;
        arm_idx = ic.arm;
        hit = true;
        ++stats_.ic_hits;
      }
    }
    if (!hit) {
      ++stats_.ic_misses;
      exec::IcRecord rec;
      arm_idx =
          exec::dispatch_choice(prog, prog.choices[op.a], v, &payload, chains, &rec);
      if (rec.pure) {
        ic.n = rec.n;
        ic.arm = arm_idx;
        for (uint8_t t = 0; t < rec.n; ++t) ic.labels[t] = rec.labels[t];
      }
    }
    const Program::Arm& arm = prog.arms[arm_idx];
    if (arm.prefix_len != 0) {
      o.raw(prog.byte_pool.data() + arm.prefix_off, arm.prefix_len);
    }
    frames.push_back(Frame{pc + 1, 0, 0, nullptr});
    vstack.push_back(payload);
    pc = arm_pc_[arm_idx];
    TE_JUMP;
  }
  TE_OP(Halt) {
    o.commit();
    return;
  }

  TE_END
}

void ThreadedEngine::run_native_stream(const NativeHeap* heap, uint64_t base,
                                       std::vector<uint8_t>* out_p,
                                       const void* const** table_out) const {
  static const void* const table[kTOpCount] = {
      &&L_Halt,
      // marshal ops never appear in a native stream
      &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad,
      &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad, &&L_Bad,
      &&L_NIntU, &&L_NIntS, &&L_NBool, &&L_NEnum, &&L_NReal32, &&L_NReal64,
      &&L_NChar1, &&L_NChar4, &&L_NBlockCopy, &&L_NConstBytes, &&L_NOpaque,
      &&L_NCall, &&L_NReturn};
  if (table_out != nullptr) {
    *table_out = table;
    return;
  }
  const Program& prog = *prog_;
  const ImageLayout& il = *prog.src_layout;
  run_checks(*heap, base);
  // The verifier bounds every slot access to [0, layout.size), so one probe
  // covers all loads; ops then read through the raw pointer.
  const uint8_t* img = needs_image_ ? heap->at(base, il.size) : nullptr;
  const Op* ops = ops_.data();
  OutBuf o(*out_p);
  // A fully static program's output fits one exact resize: need() never
  // grows the buffer.
  if (static_size_ >= 0) {
    out_p->resize(o.w + static_cast<size_t>(static_size_));
  }
  std::vector<uint32_t> rets;  // NCall return pcs
  uint32_t pc = 0;

  TE_BEGIN

  TE_OP(NIntU) {
    const Op& op = ops[pc];
    Int128 x{static_cast<__int128>(le_load(img + op.a, op.b))};
    if (x < op.lo || x > op.hi) range_fault(x, op.lo, op.hi);
    if (x < op.dlo || x > op.dhi) wire_fault(x);
    o.be(static_cast<unsigned __int128>(x - op.dlo), op.c);
    TE_NEXT;
  }
  TE_OP(NIntS) {
    const Op& op = ops[pc];
    Int128 x{sext(le_load(img + op.a, op.b), op.b)};
    if (x < op.lo || x > op.hi) range_fault(x, op.lo, op.hi);
    if (x < op.dlo || x > op.dhi) wire_fault(x);
    o.be(static_cast<unsigned __int128>(x - op.dlo), op.c);
    TE_NEXT;
  }
  TE_OP(NBool) {
    const Op& op = ops[pc];
    Int128 x = le_load(img + op.a, op.b) != 0 ? 1 : 0;
    if (x < op.lo || x > op.hi) range_fault(x, op.lo, op.hi);
    if (x < op.dlo || x > op.dhi) wire_fault(x);
    o.be(static_cast<unsigned __int128>(x - op.dlo), op.c);
    TE_NEXT;
  }
  TE_OP(NEnum) {
    const Op& op = ops[pc];
    const ImageLayout::Node& n = il.nodes[op.d];
    // Membership was proven by the prologue; rescan for the ordinal.
    int64_t raw = sext(le_load(img + op.a, op.b), op.b);
    Int128 x = 0;
    for (uint32_t k = 0; k < n.enum_len; ++k) {
      if (il.enum_pool[n.enum_off + k] == raw) {
        x = Int128{static_cast<int64_t>(k)};
        break;
      }
    }
    if (x < op.lo || x > op.hi) range_fault(x, op.lo, op.hi);
    if (x < op.dlo || x > op.dhi) wire_fault(x);
    o.be(static_cast<unsigned __int128>(x - op.dlo), op.c);
    TE_NEXT;
  }
  TE_OP(NReal32) {
    const Op& op = ops[pc];
    double d;
    if (op.b == 4) {
      float g;
      std::memcpy(&g, img + op.a, 4);
      d = g;
    } else {
      std::memcpy(&d, img + op.a, 8);
    }
    float f = static_cast<float>(d);
    uint32_t bits;
    std::memcpy(&bits, &f, 4);
    o.be(bits, 4);
    TE_NEXT;
  }
  TE_OP(NReal64) {
    const Op& op = ops[pc];
    double d;
    if (op.b == 4) {
      float g;
      std::memcpy(&g, img + op.a, 4);
      d = g;
    } else {
      std::memcpy(&d, img + op.a, 8);
    }
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    o.be(bits, 8);
    TE_NEXT;
  }
  TE_OP(NChar1) {
    const Op& op = ops[pc];
    uint64_t cp = le_load(img + op.a, op.b);
    if (cp > 0xff) throw WireError("code point exceeds repertoire");
    o.byte(static_cast<uint8_t>(cp));
    TE_NEXT;
  }
  TE_OP(NChar4) {
    const Op& op = ops[pc];
    o.be(le_load(img + op.a, op.b), 4);
    TE_NEXT;
  }
  TE_OP(NBlockCopy) {
    const Op& op = ops[pc];
    o.raw(img + op.a, op.b);
    TE_NEXT;
  }
  TE_OP(NConstBytes) {
    const Op& op = ops[pc];
    o.raw(prog.byte_pool.data() + op.a, op.b);
    TE_NEXT;
  }
  TE_OP(NOpaque) {
    const Op& op = ops[pc];
    const Program::NativeSlot& s = prog.natives[op.a];
    emit_encoded(o, prog, op.b,
                 exec::run_convert(*prog.fallback, s.aux,
                                   read_image(il, s.layout_node, *heap, base),
                                   adapter_, customs_));
    TE_NEXT;
  }
  TE_OP(NCall) {
    rets.push_back(pc + 1);
    pc = ops[pc].a;
    TE_JUMP;
  }
  TE_OP(NReturn) {
    pc = rets.back();
    rets.pop_back();
    TE_JUMP;
  }
  TE_OP(Halt) {
    o.commit();
    return;
  }

  TE_END
}

#undef TE_OP
#undef TE_NEXT
#undef TE_JUMP
#undef TE_BEGIN
#undef TE_END

// ---- public surface ---------------------------------------------------------

ThreadedEngine::ThreadedEngine(std::shared_ptr<const planir::Program> prog,
                               PortAdapter port_adapter, CustomRegistry custom)
    : prog_(std::move(prog)), adapter_(std::move(port_adapter)),
      customs_(std::move(custom)) {
  if (!prog_) {
    throw IrError(IrFault::BadEntry, "threaded engine needs a program");
  }
  planir::require_valid(*prog_);
  // Convert programs run through run_convert and need no stream.
  if (prog_->mode == Program::Mode::Convert) return;
  if (prog_->mode == Program::Mode::NativeMarshal) {
    build_native_checks();
    if (auto size = static_native_wire_size(*prog_)) {
      static_size_ = static_cast<ptrdiff_t>(*size);
    }
  }
  StreamBuild(*prog_, *this).run();
  bind_labels();
}

ThreadedEngine::ThreadedEngine(const planir::Program& prog,
                               PortAdapter port_adapter, CustomRegistry custom)
    : ThreadedEngine(
          std::shared_ptr<const planir::Program>(
              std::shared_ptr<const planir::Program>{}, &prog),
          std::move(port_adapter), std::move(custom)) {}

ThreadedEngine::~ThreadedEngine() = default;

void ThreadedEngine::bind_labels() {
  const void* const* table = nullptr;
  if (prog_->mode == Program::Mode::Marshal) {
    run_marshal_stream(nullptr, nullptr, &table);
  } else {
    run_native_stream(nullptr, 0, nullptr, &table);
  }
  for (Op& op : ops_) op.label = table[static_cast<uint16_t>(op.code)];
}

Value ThreadedEngine::apply(const Value& in) const {
  if (prog_->mode != Program::Mode::Convert) {
    throw IrError(IrFault::ModeMismatch, "apply() needs a convert program");
  }
  obs::ScopedTimer timer(te_metrics().convert_ns);
  if (obs::metrics_on()) te_metrics().converts.add();
  ++stats_.runs;
  return exec::run_convert(*prog_, prog_->entry, in, adapter_, customs_);
}

std::vector<uint8_t> ThreadedEngine::marshal(const Value& in) const {
  std::vector<uint8_t> out;
  marshal_into(in, out);
  return out;
}

void ThreadedEngine::marshal_into(const Value& in,
                                  std::vector<uint8_t>& out) const {
  if (prog_->mode != Program::Mode::Marshal) {
    throw IrError(IrFault::ModeMismatch, "marshal() needs a marshal program");
  }
  obs::ScopedTimer timer(te_metrics().marshal_ns);
  if (obs::metrics_on()) te_metrics().marshals.add();
  ++stats_.runs;
  size_t mark = out.size();
  try {
    run_marshal_stream(&in, &out, nullptr);
  } catch (...) {
    out.resize(mark);
    throw;
  }
}

std::vector<uint8_t> ThreadedEngine::marshal_native(const NativeHeap& heap,
                                                    uint64_t addr) const {
  std::vector<uint8_t> out;
  marshal_native_into(heap, addr, out);
  return out;
}

void ThreadedEngine::marshal_native_into(const NativeHeap& heap, uint64_t addr,
                                         std::vector<uint8_t>& out) const {
  if (prog_->mode != Program::Mode::NativeMarshal) {
    throw IrError(IrFault::ModeMismatch,
                  "marshal_native() needs a native-marshal program");
  }
  obs::ScopedTimer timer(te_metrics().marshal_native_ns);
  if (obs::metrics_on()) te_metrics().marshals_native.add();
  ++stats_.runs;
  size_t mark = out.size();
  try {
    run_native_stream(&heap, addr, &out, nullptr);
  } catch (...) {
    out.resize(mark);
    throw;
  }
}

size_t ThreadedEngine::op_count() const { return ops_.size(); }

std::optional<size_t> ThreadedEngine::static_size() const {
  if (static_size_ < 0) return std::nullopt;
  return static_cast<size_t>(static_size_);
}

std::optional<size_t> static_native_wire_size(const planir::Program& prog) {
  if (prog.mode != Program::Mode::NativeMarshal) return std::nullopt;
  // Sized bottom-up over the instruction DAG (a verified native program
  // has no cycles), so a sub-sequence shared by several parents is sized
  // once. kDynamic marks LoadOpaque and absorbs overflowing sums.
  constexpr size_t kDynamic = SIZE_MAX;
  std::vector<size_t> size(prog.code.size(), 0);
  std::vector<uint8_t> done(prog.code.size(), 0);
  std::vector<uint32_t> work{prog.entry};
  while (!work.empty()) {
    const uint32_t i = work.back();
    if (done[i]) {
      work.pop_back();
      continue;
    }
    const planir::Instr& ins = prog.code[i];
    size_t n = 0;
    switch (ins.op) {
      case OpCode::EmitNothing: break;
      case OpCode::LoadInt:
      case OpCode::LoadEnum: n = prog.natives[ins.a].aux; break;
      case OpCode::LoadReal32: n = 4; break;
      case OpCode::LoadReal64: n = 8; break;
      case OpCode::LoadChar1: n = 1; break;
      case OpCode::LoadChar4: n = 4; break;
      case OpCode::BlockCopy: n = prog.natives[ins.a].width; break;
      case OpCode::ConstBytes: n = ins.b; break;
      case OpCode::NativeSeq: {
        const Program::RecordTab& rt = prog.records[ins.a];
        bool ready = true;
        for (uint32_t k = 0; k < rt.fields_len; ++k) {
          const uint32_t kid = prog.fields[rt.fields_off + k].op;
          if (!done[kid]) {
            work.push_back(kid);
            ready = false;
          }
        }
        if (!ready) continue;  // revisit once every child is sized
        for (uint32_t k = 0; k < rt.fields_len; ++k) {
          const size_t m = size[prog.fields[rt.fields_off + k].op];
          n = m > kDynamic - n ? kDynamic : n + m;
        }
        break;
      }
      default: n = kDynamic; break;  // LoadOpaque
    }
    size[i] = n;
    done[i] = 1;
    work.pop_back();
  }
  if (size[prog.entry] == kDynamic) return std::nullopt;
  return size[prog.entry];
}

}  // namespace mbird::runtime
