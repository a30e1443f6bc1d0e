// The coercion-plan interpreter: the executable form of a Mockingbird stub.
//
// The same plans also drive the C code generator (src/codegen); the
// interpreter is what tests and examples run in-process. It converts Values
// shaped like the source Mtype into Values shaped like the target Mtype,
// following the structural correspondences the Comparer discovered.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "plan/plan.hpp"
#include "runtime/value.hpp"
#include "support/error.hpp"

namespace mbird::runtime {

/// Hook used by PortMap plan nodes: given the source endpoint id and the
/// PortMap node itself (carrying the message-conversion plan `inner` and
/// the message Mtypes on both sides), return the endpoint id callers on
/// the target side should use. The rpc layer supplies an implementation
/// that spins up converting proxies; in purely local settings the identity
/// suffices.
using PortAdapter =
    std::function<uint64_t(uint64_t src_port, plan::PlanRef portmap_node)>;

/// Transparent string hashing so Custom dispatch can look converters up by
/// string_view / const char* without materializing a std::string key.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Hand-written conversions, by name, invoked by Custom plan ops
/// (paper §6: composing programmer-supplied semantic conversions with the
/// automated structural ones).
using CustomRegistry =
    std::unordered_map<std::string, std::function<Value(const Value&)>,
                       StringHash, std::equal_to<>>;

class Converter {
 public:
  explicit Converter(const plan::PlanGraph& plan, PortAdapter port_adapter = {},
                     CustomRegistry custom = {})
      : plan_(plan), port_adapter_(std::move(port_adapter)),
        custom_(std::move(custom)) {}

  /// Convert `in` using the plan rooted at `root`. Throws ConversionError
  /// on shape mismatches (bad input data) or range violations.
  [[nodiscard]] Value apply(plan::PlanRef root, const Value& in) const;

 private:
  Value eval(plan::PlanRef ref, const Value& in, int depth) const;
  Value eval_record(const plan::PlanNode& node, const Value& in, int depth) const;
  Value build_shape(const plan::RecShape& s, const plan::PlanNode& node,
                    const Value& in, int depth) const;
  Value eval_choice(const plan::PlanNode& node, const Value& in, int depth) const;

  const plan::PlanGraph& plan_;
  PortAdapter port_adapter_;
  CustomRegistry custom_;
};

}  // namespace mbird::runtime
