#include "bridge/cbridge.hpp"

#include <cstring>

#include "runtime/layout.hpp"
#include "support/error.hpp"

namespace mbird::bridge {

using runtime::CReader;
using runtime::CWriter;
using runtime::LengthEnv;
using runtime::NativeHeap;
using runtime::Value;
using stype::Annotations;
using stype::Direction;
using stype::Kind;
using stype::LengthSpec;
using stype::Module;
using stype::Prim;
using stype::Stype;

namespace {

struct ParamInfo {
  Stype* type = nullptr;
  Annotations eff;       // resolved annotations (direction, length, ...)
  Stype* resolved = nullptr;
  Direction dir = Direction::In;
  bool absorbed = false;  // a length parameter recovered from a list
};

std::vector<ParamInfo> analyze(const Module& module, Stype* fn) {
  std::vector<ParamInfo> infos;
  infos.reserve(fn->params.size());
  for (auto& p : fn->params) {
    ParamInfo pi;
    pi.type = p.type;
    Stype* r = p.type;
    if (r->kind == Kind::Named || r->kind == Kind::Typedef) {
      r = module.resolve(r, &pi.eff);
    }
    pi.eff.fill_from(p.type->ann);
    pi.resolved = r;
    pi.dir = pi.eff.direction.value_or(Direction::In);
    infos.push_back(std::move(pi));
  }
  for (size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].eff.length &&
        infos[i].eff.length->kind == LengthSpec::Kind::ParamName) {
      for (size_t j = 0; j < infos.size(); ++j) {
        if (fn->params[j].name == infos[i].eff.length->name) {
          infos[j].absorbed = true;
        }
      }
    }
  }
  return infos;
}

/// Releases what a call allocated in the native heap, however the call ends.
class ReleaseToMark {
 public:
  explicit ReleaseToMark(NativeHeap& heap) : heap_(heap), mark_(heap.size()) {}
  ~ReleaseToMark() { heap_.release_to(mark_); }
  ReleaseToMark(const ReleaseToMark&) = delete;
  ReleaseToMark& operator=(const ReleaseToMark&) = delete;

 private:
  NativeHeap& heap_;
  uint64_t mark_;
};

uint64_t float_bits(double d, bool is_f32) {
  if (is_f32) {
    float f = static_cast<float>(d);
    uint32_t bits;
    std::memcpy(&bits, &f, 4);
    return bits;
  }
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}

}  // namespace

std::function<Value(const Value&)> wrap_c_function(const Module& module,
                                                   Stype* fn, NativeHeap& heap,
                                                   NativeImpl impl) {
  if (fn == nullptr || fn->kind != Kind::Function) {
    throw MbError("wrap_c_function: not a function declaration");
  }
  // Read once, when the function is wrapped: its parameters' annotations,
  // directions and absorbed lengths, and its return type.
  Stype* ret_resolved = fn->ret;
  if (ret_resolved != nullptr &&
      (ret_resolved->kind == Kind::Named || ret_resolved->kind == Kind::Typedef)) {
    ret_resolved = module.resolve(ret_resolved);
  }
  const bool has_return = ret_resolved != nullptr &&
                          !(ret_resolved->kind == Kind::Prim &&
                            ret_resolved->prim == Prim::Void);
  return [&module, fn, &heap, layout = runtime::LayoutEngine(module),
          infos = analyze(module, fn), ret_resolved, has_return,
          impl = std::move(impl)](const Value& args) {
    const ReleaseToMark release(heap);
    CWriter writer(layout, heap);
    CReader reader(layout, heap);

    std::vector<uint64_t> slots(fn->params.size(), 0);
    LengthEnv env;
    size_t arg_index = 0;
    struct OutSlot {
      size_t param;
      uint64_t addr;
      Stype* pointee;
    };
    std::vector<OutSlot> outs;

    // Inputs and out-buffers, in declaration order.
    for (size_t i = 0; i < infos.size(); ++i) {
      const ParamInfo& pi = infos[i];
      if (pi.absorbed) continue;  // filled after lists are written

      if (pi.dir == Direction::Out) {
        // Caller-allocated out buffer: pointer parameter to pointee.
        Stype* pointee = pi.resolved != nullptr &&
                                 (pi.resolved->kind == Kind::Pointer ||
                                  pi.resolved->kind == Kind::Reference)
                             ? pi.resolved->elem
                             : pi.type;
        Stype* resolved_pointee = pointee;
        if (resolved_pointee->kind == Kind::Named ||
            resolved_pointee->kind == Kind::Typedef) {
          resolved_pointee = module.resolve(resolved_pointee);
        }
        runtime::Layout pl = layout.layout_of(resolved_pointee);
        uint64_t addr = heap.alloc(pl.size, pl.align);
        slots[i] = addr;
        outs.push_back({i, addr, pointee});
        continue;
      }

      const Value& v = args.at(arg_index++);
      // Scalars pass in the slot directly; everything else passes by
      // address (arrays decay, aggregates pass by pointer in this ABI).
      if (pi.resolved != nullptr && pi.resolved->kind == Kind::Prim) {
        Prim p = pi.resolved->prim;
        if (p == Prim::F32 || p == Prim::F64) {
          slots[i] = float_bits(v.as_real(), p == Prim::F32);
        } else if (p == Prim::Char8 || p == Prim::Char16) {
          slots[i] = v.as_char();
        } else {
          slots[i] = static_cast<uint64_t>(v.as_int());
        }
        continue;
      }
      if (pi.resolved != nullptr &&
          (pi.resolved->kind == Kind::Pointer ||
           pi.resolved->kind == Kind::Array)) {
        // write_pointer needs a slot-sized home for the pointer itself.
        uint64_t cell = heap.alloc(8, 8);
        writer.write(pi.resolved, pi.eff, v, cell, &env);
        slots[i] = heap.read_ptr(cell);
        if (pi.dir == Direction::InOut) {
          outs.push_back({i, slots[i], pi.resolved->elem});
        }
        continue;
      }
      // Aggregates and enums: materialize and pass the address.
      slots[i] = writer.materialize(pi.type, pi.eff, v, &env);
    }

    // Absorbed length parameters take their value from the length env.
    for (size_t i = 0; i < infos.size(); ++i) {
      if (!infos[i].absorbed) continue;
      auto it = env.find(fn->params[i].name);
      if (it == env.end()) {
        throw MbError("bridge: no length recorded for absorbed parameter '" +
                      fn->params[i].name + "'");
      }
      slots[i] = it->second;
    }

    // Return buffer.
    uint64_t ret_addr = 0;
    if (has_return) {
      runtime::Layout rl = layout.layout_of(ret_resolved);
      ret_addr = heap.alloc(rl.size, rl.align);
      slots.push_back(ret_addr);
    }

    impl(heap, slots);

    // Assemble the reply record: return first, then out/inout params.
    std::vector<Value> out_children;
    if (has_return) {
      out_children.push_back(reader.read(fn->ret, {}, ret_addr, env));
    }
    for (const auto& o : outs) {
      out_children.push_back(reader.read(o.pointee, {}, o.addr, env));
    }
    return Value::record(std::move(out_children));
  };
}

}  // namespace mbird::bridge
