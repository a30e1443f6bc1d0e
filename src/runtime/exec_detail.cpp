#include "runtime/exec_detail.hpp"

#include <deque>
#include <iterator>

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace mbird::runtime {

using planir::IrError;
using planir::IrFault;
using planir::OpCode;
using planir::Program;

namespace {

// Registry instruments for the convert interpreter (DESIGN.md §4h), gated
// behind obs::metrics_on(): the disabled cost per run must stay at one
// relaxed load + branch (verified by bench/BENCH_obs.json). Per-run op
// counts accumulate in a local and publish once at scope exit — exception
// paths included.
struct OpTally {
  uint64_t ops = 0;
  ~OpTally() {
    if (!obs::metrics_on()) return;
    static obs::Counter& executed = obs::counter("planvm.ops_executed");
    static obs::Histogram& per_run = obs::histogram("planvm.ops_per_run");
    executed.add(ops);
    per_run.record(ops);
  }
};

}  // namespace

// One implementation of the helpers every execution path needs, so the
// engine's modes and its opaque fallbacks produce the same values, bytes
// and error messages as the tree interpreter.
namespace exec {

/// Identical to the tree interpreter's path walk (same error text — the
/// differential suite compares messages verbatim).
const Value& follow(const Value& v, const uint32_t* path, uint32_t len) {
  const Value* cur = &v;
  for (uint32_t k = 0; k < len; ++k) {
    if (cur->kind() != Value::Kind::Record) {
      throw ConversionError("plan path descends into a non-record value: " +
                            cur->to_string());
    }
    cur = &cur->at(path[k]);
  }
  return *cur;
}

/// Trie walk over the source arm labels. Mirrors Converter::eval_choice:
/// match the shortest arm prefix, re-encode List values as nil/cons chains
/// on the way, and on a dead end keep unwrapping the value (no arm can
/// match anymore) until a non-choice proves the mismatch — so the error
/// fires on exactly the same inputs with exactly the same message.
/// Returns the global arm index; `*payload` is where the arm's op reads.
uint32_t dispatch_choice(const Program& prog, const Program::ChoiceTab& ct,
                         const Value& in, const Value** payload,
                         std::deque<Value>& chains, IcRecord* rec) {
  const Value* cur = &in;
  const Program::TrieNode* node = &prog.trie[ct.trie_root];
  for (;;) {
    if (node && node->terminal >= 0) {
      *payload = cur;
      return ct.arms_off + static_cast<uint32_t>(node->terminal);
    }
    if (cur->kind() == Value::Kind::List) {
      // nil = arm 0, cons = arm 1 in the canonical list encoding.
      if (rec) rec->pure = false;
      chains.push_back(Value::chain_from_list(*cur->as_list(), 0, 1));
      cur = &chains.back();
      continue;
    }
    if (cur->kind() != Value::Kind::Choice) {
      throw ConversionError("no plan arm for value " + in.to_string());
    }
    if (node) {
      uint32_t label = cur->arm();
      if (rec) {
        if (rec->n < IcRecord::kMaxDepth) {
          rec->labels[rec->n++] = label;
        } else {
          rec->pure = false;
        }
      }
      const Program::TrieNode& tn = *node;
      node = nullptr;
      if (label < tn.kids_len) {
        int32_t kid = prog.trie_kids[tn.kids_off + label];
        if (kid >= 0) node = &prog.trie[static_cast<uint32_t>(kid)];
      }
    }
    cur = &cur->inner();
  }
}

/// Resolve a MapList/EmitList input to its element vector without copying
/// when it's already an element-form List; packed Lists and chains are
/// materialized into `lists` (a deque, so earlier element pointers stay
/// valid).
const std::vector<Value>& list_elems(const Value& v,
                                     std::deque<std::vector<Value>>& lists) {
  if (v.kind() == Value::Kind::List && !v.packed_chars()) return v.children();
  auto lst = v.as_list();
  if (!lst) {
    throw ConversionError("expected a list-shaped value, got " + v.to_string());
  }
  lists.push_back(std::move(*lst));
  return lists.back();
}

const std::function<Value(const Value&)>& find_custom(
    const CustomRegistry& customs, const std::string& name) {
  auto it = customs.find(name);
  if (it == customs.end()) {
    throw ConversionError("no hand-written converter registered for '" + name +
                          "'");
  }
  return it->second;
}

// All input pointers reference the caller's value tree or the scratch
// deques — never the result stack — so growing `vals` cannot invalidate
// pending work.
Value run_convert(const Program& prog, uint32_t entry, const Value& in,
                  const PortAdapter& adapter, const CustomRegistry& customs) {
  struct Work {
    enum class K : uint8_t { Eval, EvalField, FinishRecord, WrapChoice, FinishList };
    K k;
    uint32_t a = 0;
    uint32_t b = 0;
    const Value* in = nullptr;
  };
  std::vector<Work> work;
  std::vector<Value> vals;
  std::vector<Value> rpn;
  std::deque<Value> chains;
  std::deque<std::vector<Value>> lists;
  OpTally tally;
  work.push_back({Work::K::Eval, entry, 0, &in});
  while (!work.empty()) {
    Work w = work.back();
    work.pop_back();
    switch (w.k) {
      case Work::K::Eval: {
        const planir::Instr& ins = prog.code[w.a];
        const Value& v = *w.in;
        ++tally.ops;
        switch (ins.op) {
          case OpCode::MakeUnit: vals.push_back(Value::unit()); break;
          case OpCode::CopyInt: {
            Int128 x = v.as_int();
            if (x < ins.lo || x > ins.hi) {
              throw ConversionError("integer " + to_string(x) +
                                    " outside target range [" +
                                    to_string(ins.lo) + ".." +
                                    to_string(ins.hi) + "]");
            }
            vals.push_back(v);
            break;
          }
          case OpCode::CopyReal: vals.push_back(Value::real(v.as_real())); break;
          case OpCode::CopyChar:
            vals.push_back(Value::character(v.as_char()));
            break;
          case OpCode::CopyPort: {
            uint64_t id = v.as_port();
            if (adapter) id = adapter(id, ins.a);
            vals.push_back(Value::port(id));
            break;
          }
          case OpCode::BuildRecord: {
            const Program::RecordTab& rt = prog.records[ins.a];
            work.push_back(
                {Work::K::FinishRecord, ins.a,
                 static_cast<uint32_t>(vals.size()), nullptr});
            for (uint32_t k = rt.fields_len; k-- > 0;) {
              work.push_back({Work::K::EvalField, rt.fields_off + k, 0, w.in});
            }
            break;
          }
          case OpCode::MatchChoice: {
            const Value* payload = nullptr;
            uint32_t arm =
                dispatch_choice(prog, prog.choices[ins.a], v, &payload, chains);
            work.push_back({Work::K::WrapChoice, arm, 0, nullptr});
            work.push_back({Work::K::Eval, prog.arms[arm].op, 0, payload});
            break;
          }
          case OpCode::MapList: {
            const std::vector<Value>& elems = list_elems(v, lists);
            work.push_back({Work::K::FinishList,
                            static_cast<uint32_t>(elems.size()),
                            static_cast<uint32_t>(vals.size()), nullptr});
            for (size_t k = elems.size(); k-- > 0;) {
              work.push_back({Work::K::Eval, ins.a, 0, &elems[k]});
            }
            break;
          }
          case OpCode::ExtractField:
            work.push_back({Work::K::EvalField, ins.a, 0, w.in});
            break;
          case OpCode::CallCustom:
            vals.push_back(find_custom(customs, prog.custom_names[ins.a])(v));
            break;
          default:
            throw IrError(IrFault::BadOpcode,
                          std::string("convert hit ") + to_string(ins.op));
        }
        break;
      }
      case Work::K::EvalField: {
        const Program::Field& f = prog.fields[w.a];
        const Value& src =
            follow(*w.in, prog.path_pool.data() + f.src_off, f.src_len);
        work.push_back({Work::K::Eval, f.op, 0, &src});
        break;
      }
      case Work::K::FinishRecord: {
        // Reassemble the skeleton from the field results at vals[b..]:
        // leaf k is field k (verified invariant), so postfix evaluation
        // moves each result exactly once.
        const Program::RecordTab& rt = prog.records[w.a];
        if (rt.shape_len == rt.fields_len + 1 &&
            prog.shape_pool[rt.shape_off + rt.fields_len].kind ==
                Program::ShapeTok::K::Rec) {
          // Flat skeleton (every leaf in order under one record): build the
          // result straight from the field results, no postfix stack.
          std::vector<Value> kids;
          kids.reserve(rt.fields_len);
          kids.insert(kids.end(),
                      std::make_move_iterator(vals.begin() +
                                              static_cast<long>(w.b)),
                      std::make_move_iterator(vals.end()));
          vals.resize(w.b);
          vals.push_back(Value::record(std::move(kids)));
          break;
        }
        for (uint32_t k = 0; k < rt.shape_len; ++k) {
          const Program::ShapeTok& tok = prog.shape_pool[rt.shape_off + k];
          switch (tok.kind) {
            case Program::ShapeTok::K::Leaf:
              rpn.push_back(std::move(vals[w.b + tok.arg]));
              break;
            case Program::ShapeTok::K::Unit:
              rpn.push_back(Value::unit());
              break;
            case Program::ShapeTok::K::Rec: {
              std::vector<Value> kids;
              kids.reserve(tok.arg);
              kids.insert(kids.end(),
                          std::make_move_iterator(rpn.end() - tok.arg),
                          std::make_move_iterator(rpn.end()));
              rpn.resize(rpn.size() - tok.arg);
              rpn.push_back(Value::record(std::move(kids)));
              break;
            }
          }
        }
        vals.resize(w.b);
        vals.push_back(std::move(rpn.back()));
        rpn.clear();
        break;
      }
      case Work::K::WrapChoice: {
        // Wrap in the nested target choice structure, innermost-out.
        const Program::Arm& arm = prog.arms[w.a];
        Value v = std::move(vals.back());
        for (uint32_t k = arm.dst_len; k-- > 0;) {
          v = Value::choice(prog.path_pool[arm.dst_off + k], std::move(v));
        }
        vals.back() = std::move(v);
        break;
      }
      case Work::K::FinishList: {
        std::vector<Value> out;
        out.reserve(w.a);
        out.insert(out.end(), std::make_move_iterator(vals.begin() + w.b),
                   std::make_move_iterator(vals.end()));
        vals.resize(w.b);
        vals.push_back(Value::list(std::move(out)));
        break;
      }
    }
  }
  return std::move(vals.back());
}

}  // namespace exec

}  // namespace mbird::runtime
