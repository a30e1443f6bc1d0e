// Native function bridge: the server half of a local/network stub.
//
// Wraps a "native" C function (code operating on the simulated NativeHeap,
// standing in for real compiled C) as a Value -> Value handler suitable for
// rpc::serve_function. The bridge performs exactly what the paper's
// generated C stubs do around a call:
//   * writes each input argument from the invocation record into native
//     memory (lists become malloc'd buffers; absorbed length parameters are
//     recovered from the list lengths),
//   * allocates out-parameter and return buffers,
//   * invokes the native implementation with one 64-bit slot per declared
//     parameter (pointers are heap addresses, integers are values, floats
//     are IEEE bit patterns) plus a final slot for the return buffer when
//     the function returns non-void,
//   * reads outputs back and assembles the reply record.
#pragma once

#include <functional>
#include <vector>

#include "runtime/cside.hpp"
#include "runtime/value.hpp"
#include "stype/stype.hpp"

namespace mbird::bridge {

/// The "native code": receives the heap and one slot per parameter (plus
/// the return-buffer address last, for non-void functions).
using NativeImpl =
    std::function<void(runtime::NativeHeap&, const std::vector<uint64_t>&)>;

/// Wrap `fn` (a Kind::Function declaration in `module`) around `impl`.
/// The returned handler accepts the function's input record (as lowered by
/// lower_signature) and returns its output record. The declaration is read
/// here, when the function is wrapped, so annotations changed afterwards do
/// not reach the handler. Everything a call allocates in `heap` (argument
/// buffers, out-buffers, and what `impl` itself allocates) is released
/// once the reply has been read, or when the call throws. The heap and
/// module must outlive the handler.
[[nodiscard]] std::function<runtime::Value(const runtime::Value&)>
wrap_c_function(const stype::Module& module, stype::Stype* fn,
                runtime::NativeHeap& heap, NativeImpl impl);

}  // namespace mbird::bridge
