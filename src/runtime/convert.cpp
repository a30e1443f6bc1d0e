#include "runtime/convert.hpp"

namespace mbird::runtime {

using plan::PKind;
using plan::PlanNode;
using plan::PlanRef;
using plan::RecShape;

namespace {

constexpr int kMaxDepth = 100000;

const Value& follow(const Value& v, const mtype::Path& path) {
  const Value* cur = &v;
  for (uint32_t idx : path) {
    if (cur->kind() != Value::Kind::Record) {
      throw ConversionError("plan path descends into a non-record value: " +
                            cur->to_string());
    }
    cur = &cur->at(idx);
  }
  return *cur;
}

}  // namespace

Value Converter::apply(PlanRef root, const Value& in) const {
  return eval(root, in, 0);
}

Value Converter::eval_record(const PlanNode& node, const Value& in,
                             int depth) const {
  // Build the target record by walking the destination skeleton; each leaf
  // fetches its source sub-value by path and converts it.
  return build_shape(node.dst_shape, node, in, depth);
}

Value Converter::build_shape(const RecShape& s, const PlanNode& node,
                             const Value& in, int depth) const {
  switch (s.kind) {
    case RecShape::Kind::Unit: return Value::unit();
    case RecShape::Kind::Leaf: {
      const auto& move = node.fields.at(s.leaf_index);
      const Value& src = follow(in, move.src_path);
      return eval(move.op, src, depth + 1);
    }
    case RecShape::Kind::Record: {
      std::vector<Value> kids;
      kids.reserve(s.kids.size());
      for (const auto& k : s.kids) {
        kids.push_back(build_shape(k, node, in, depth));
      }
      return Value::record(std::move(kids));
    }
  }
  return Value::unit();
}

Value Converter::eval_choice(const PlanNode& node, const Value& in,
                             int depth) const {
  // Walk the (possibly nested) source choice, collecting the arm path until
  // it matches one of the plan's flattened source arms. List values met
  // here come from the generic recursion path: re-encode as a chain.
  mtype::Path path;
  Value chain_storage;
  const Value* cur = &in;
  for (;;) {
    for (const auto& arm : node.arms) {
      if (arm.src_path == path) {
        Value converted = eval(arm.op, *cur, depth + 1);
        // Wrap in the nested target choice structure, innermost-out.
        for (auto it = arm.dst_path.rbegin(); it != arm.dst_path.rend(); ++it) {
          converted = Value::choice(*it, std::move(converted));
        }
        return converted;
      }
    }
    if (cur->kind() == Value::Kind::List) {
      // nil = arm 0, cons = arm 1 in the canonical list encoding.
      chain_storage = Value::chain_from_list(*cur->as_list(), 0, 1);
      cur = &chain_storage;
      continue;
    }
    if (cur->kind() != Value::Kind::Choice) {
      throw ConversionError("no plan arm for value " + in.to_string());
    }
    path.push_back(cur->arm());
    cur = &cur->inner();
  }
}

Value Converter::eval(PlanRef ref, const Value& in, int depth) const {
  if (ref == plan::kNullPlan) throw ConversionError("null plan");
  if (depth > kMaxDepth) {
    throw ConversionError("conversion recursion limit exceeded (cyclic data?)");
  }
  const PlanNode& node = plan_.at(ref);
  switch (node.kind) {
    case PKind::UnitMake: return Value::unit();
    case PKind::IntCopy: {
      Int128 v = in.as_int();
      if (v < node.lo || v > node.hi) {
        throw ConversionError("integer " + to_string(v) +
                              " outside target range [" + to_string(node.lo) +
                              ".." + to_string(node.hi) + "]");
      }
      return in;
    }
    case PKind::RealCopy: return Value::real(in.as_real());
    case PKind::CharCopy: return Value::character(in.as_char());
    case PKind::RecordMap: return eval_record(node, in, depth);
    case PKind::ChoiceMap: return eval_choice(node, in, depth);
    case PKind::ListMap: {
      // Element-form List inputs convert straight from their children —
      // as_list() would deep-copy the whole element vector first. Packed
      // Lists and chains still materialize.
      const std::vector<Value>* src;
      std::optional<std::vector<Value>> chain;
      if (in.kind() == Value::Kind::List && !in.packed_chars()) {
        src = &in.children();
      } else {
        chain = in.as_list();
        if (!chain) {
          throw ConversionError("expected a list-shaped value, got " +
                                in.to_string());
        }
        src = &*chain;
      }
      std::vector<Value> out;
      out.reserve(src->size());
      for (const auto& e : *src) out.push_back(eval(node.inner, e, depth + 1));
      return Value::list(std::move(out));
    }
    case PKind::PortMap: {
      uint64_t id = in.as_port();
      if (port_adapter_) id = port_adapter_(id, ref);
      return Value::port(id);
    }
    case PKind::Alias: return eval(node.inner, in, depth + 1);
    case PKind::Extract: {
      const auto& move = node.fields.at(0);
      return eval(move.op, follow(in, move.src_path), depth + 1);
    }
    case PKind::Custom: {
      auto it = custom_.find(node.note);
      if (it == custom_.end()) {
        throw ConversionError("no hand-written converter registered for '" +
                              node.note + "'");
      }
      return it->second(in);
    }
  }
  throw ConversionError("unhandled plan node");
}

}  // namespace mbird::runtime
