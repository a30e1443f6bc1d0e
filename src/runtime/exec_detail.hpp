// Shared executor internals of the PlanIR runtime (exec_detail.cpp).
//
// The engine (threaded.cpp) must agree bit-for-bit with the tree
// interpreter (runtime::Converter) on results AND on typed error messages —
// the differential suites compare them verbatim. The helpers it needs in
// every mode (path walks, choice dispatch, list chain materialization,
// custom lookup) and the convert-mode interpreter (convert programs and the
// opaque fallbacks of both marshal modes) therefore live in one place.
//
// Everything here is an internal contract of the runtime; it is not part
// of the public runtime API.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/value.hpp"

namespace mbird::runtime::exec {

/// Identical to the tree interpreter's path walk (same error text).
[[nodiscard]] const Value& follow(const Value& v, const uint32_t* path,
                                  uint32_t len);

/// Filled by dispatch_choice when the caller wants to memoize the taken
/// label path (the threaded engine's choice inline caches). `pure` stays
/// true only when the walk unwrapped plain Choice layers — no canonical
/// list re-encode, depth within the cacheable bound — so a later value
/// whose leading labels equal `labels[0..n)` provably dispatches to the
/// same arm with the same payload position.
struct IcRecord {
  static constexpr uint32_t kMaxDepth = 8;
  uint32_t labels[kMaxDepth] = {};
  uint8_t n = 0;
  bool pure = true;
};

/// Trie walk over the source arm labels; mirrors Converter::eval_choice
/// exactly (shortest arm prefix, list re-encode via `chains`, identical
/// mismatch errors). Returns the global arm index; `*payload` is where the
/// arm's op reads.
uint32_t dispatch_choice(const planir::Program& prog,
                         const planir::Program::ChoiceTab& ct, const Value& in,
                         const Value** payload, std::deque<Value>& chains,
                         IcRecord* rec = nullptr);

/// Resolve a MapList/EmitList input to its element vector without copying
/// when it's already an element-form List; packed Lists and chains are
/// materialized into `lists`.
const std::vector<Value>& list_elems(const Value& v,
                                     std::deque<std::vector<Value>>& lists);

const std::function<Value(const Value&)>& find_custom(
    const CustomRegistry& customs, const std::string& name);

/// The convert-mode interpreter, runnable from any entry point: an
/// explicit work stack, so conversion depth is bounded by memory, not the
/// C++ stack. ThreadedEngine::apply runs convert programs through it, and
/// the opaque fallbacks (EmitOpaque / LoadOpaque) of both marshal modes
/// funnel through it too, so fallback subtrees convert exactly like the
/// convert mode by construction.
Value run_convert(const planir::Program& prog, uint32_t entry, const Value& in,
                  const PortAdapter& adapter, const CustomRegistry& customs);

}  // namespace mbird::runtime::exec
