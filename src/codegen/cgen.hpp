// The Stub Generator (paper §4): "Currently, the stub compiler generates C
// code directly for the stubs."
//
// Given the coercion plan the Comparer produced for a pair of Mtypes, this
// module emits self-contained, compilable C:
//   * C type declarations for both shapes, following a documented
//     representation convention:
//       Record        -> struct with one member per child (labels when known)
//       Choice        -> struct { uint32_t tag; union { ... } u; }
//       canonical list-> struct { uint32_t len; elem *data; }
//       other Rec     -> named struct; back-references become pointers
//       Integer       -> the narrowest C integer type covering the range
//       Real/Char/Port-> float/double, uint8_t/uint32_t, uint64_t
//   * a converter function per plan node (`static` helpers + one entry
//     point) that reshapes a source-typed value into a target-typed value,
//     mallocing list storage; and
//   * optionally a wire marshaler/unmarshaler pair implementing the same
//     range-aware big-endian format as src/wire (so generated stubs and the
//     interpreted runtime interoperate byte-for-byte).
//
// Output is deterministic (snapshot-tested); an integration test compiles
// a generated stub with the system C compiler and runs it.
#pragma once

#include <string>

#include "mtype/mtype.hpp"
#include "plan/plan.hpp"

namespace mbird::planir {
struct Program;
}  // namespace mbird::planir

namespace mbird::codegen {

struct Options {
  bool emit_marshaler = false;  // also emit wire encode/decode for the target
};

struct CStub {
  std::string header;      // type declarations + prototypes
  std::string source;      // converter (+ marshaler) definitions
  std::string entry_name;  // the converter entry point function name
  std::string src_type;    // C type name of the source shape
  std::string dst_type;    // C type name of the target shape
};

/// Generate the C stub converting values shaped like `a` (in ga) into
/// values shaped like `b` (in gb), following `root` in `plans`.
/// `stub_name` prefixes every emitted identifier.
[[nodiscard]] CStub generate_c_stub(const mtype::Graph& ga, mtype::Ref a,
                                    const mtype::Graph& gb, mtype::Ref b,
                                    const plan::PlanGraph& plans,
                                    plan::PlanRef root,
                                    const std::string& stub_name,
                                    const Options& options = {});

/// The C spelling of an Mtype integer range (exposed for tests).
[[nodiscard]] std::string c_int_type(Int128 lo, Int128 hi);

/// Generate a self-contained C translation unit from a native-marshal
/// PlanIR program (planir::compile_native_marshal):
///
///   size_t <fn_name>(const uint8_t *img, uint8_t *buf);
///
/// `img` is the base of the source's native memory image; wire bytes are
/// written to `buf` and the byte count returned, or (size_t)-1 when a
/// read-time range / repertoire check fails — the C analogue of the engine's
/// typed throws, raised at the same field in the same order. BlockCopy
/// lowers to memcpy, scalar loads to bounded big-endian stores, ConstBytes
/// to static byte arrays. Programs containing LoadOpaque or LoadEnum need
/// the runtime fallback path and are rejected with MbError.
[[nodiscard]] std::string generate_native_marshaler(
    const planir::Program& prog, const std::string& fn_name);

}  // namespace mbird::codegen
