#include "compare/crosscache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "store/cachestore.hpp"
#include "store/serial.hpp"

namespace mbird::compare {

namespace {
// Registry counters with no per-instance view (the per-instance verdict
// hits/misses/inserts are obs::Count members of CrossCache).
struct CacheMetrics {
  obs::Counter& prog_hits = obs::counter("crosscache.program.hits");
  obs::Counter& prog_misses = obs::counter("crosscache.program.misses");
  obs::Counter& hydrated = obs::counter("crosscache.store.hydrated");
  obs::Counter& persisted = obs::counter("crosscache.store.persisted");
};
CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

// A variant can go to disk iff it carries no process-local graph binding:
// negative verdicts (empty fragment) and port-free positive fragments.
bool persistable(const CrossCache::Variant& v) {
  return !v.ok || !v.frag.has_port;
}

// Hydration staging: record payloads read from the store land in a
// per-thread bump arena instead of one heap vector each. The arena and the
// view list warm up to their peak once and then every later hydration on
// the thread is allocation-free on this path. Views die at the next
// hydration (reset), which is fine — both call sites fully decode before
// returning.
struct HydrationScratch {
  store::BumpArena arena;
  std::vector<store::PayloadView> payloads;
};
HydrationScratch& hydration_scratch() {
  thread_local HydrationScratch s;
  return s;
}
}  // namespace

using mtype::CanonId;
using mtype::CanonOptions;
using plan::PKind;
using plan::PlanNode;
using plan::PlanRef;

CrossCache::CrossCache() : strict_(CanonOptions::strict()) {}

CrossCache::~CrossCache() = default;

std::shared_ptr<const std::vector<CanonId>> CrossCache::strict_ids(
    const mtype::Graph& g) {
  return strict_.ids_for(g);
}

std::shared_ptr<const std::vector<CanonId>> CrossCache::iso_ids(
    const mtype::Graph& g, const Options& options) {
  CanonOptions co;
  co.commutative = options.commutative;
  co.associative = options.associative;
  co.unit_elimination = options.unit_elimination;
  co.mu_transparent = true;
  // Read-mostly: after the first few comparisons every option set has its
  // index, so the scan runs under a shared lock and N workers don't
  // serialize here. CanonIndex pointers are stable (unique_ptr targets).
  mtype::CanonIndex* index = nullptr;
  {
    std::shared_lock lock(iso_mu_);
    for (auto& [opts, idx] : iso_) {
      if (opts == co) {
        index = idx.get();
        break;
      }
    }
  }
  if (index == nullptr) {
    std::unique_lock lock(iso_mu_);
    for (auto& [opts, idx] : iso_) {  // re-scan: a racer may have added it
      if (opts == co) {
        index = idx.get();
        break;
      }
    }
    if (index == nullptr) {
      iso_.emplace_back(co, std::make_unique<mtype::CanonIndex>(co));
      index = iso_.back().second.get();
    }
  }
  return index->ids_for(g);
}

uint8_t CrossCache::fingerprint(const Options& options) {
  return static_cast<uint8_t>(static_cast<uint8_t>(options.mode) |
                              (options.commutative ? 2 : 0) |
                              (options.associative ? 4 : 0) |
                              (options.unit_elimination ? 8 : 0));
}

bool CrossCache::compatible(const Variant& v, const void* lg, uint64_t lv,
                            const void* rg, uint64_t rv) {
  if (v.ok && v.frag.has_port) {
    return v.bind_left == lg && v.ver_left == lv && v.bind_right == rg &&
           v.ver_right == rv;
  }
  return true;
}

std::shared_ptr<const CrossCache::Variant> CrossCache::find(
    const Key& key, const void* lg, uint64_t lv, const void* rg, uint64_t rv) {
  Shard& s = shard_for(key);
  {
    std::shared_lock lock(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      for (const auto& v : it->second) {
        if (compatible(*v, lg, lv, rg, rv)) {
          hits_.add();
          return v;
        }
      }
    }
  }
  // In-memory miss: fall through to the durable store (outside any shard
  // lock — the store does its own locking and possibly I/O). Hydrated
  // variants are always portable, so any one of them satisfies the caller.
  if (store_ != nullptr) {
    if (auto v = load_variants_from_store(key)) {
      hits_.add();
      return v;
    }
  }
  misses_.add();
  return nullptr;
}

bool CrossCache::has(const Key& key, const void* lg, uint64_t lv,
                     const void* rg, uint64_t rv) {
  Shard& s = shard_for(key);
  std::shared_lock lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) return false;
  for (const auto& v : it->second) {
    if (compatible(*v, lg, lv, rg, rv)) return true;
  }
  return false;
}

bool CrossCache::insert_locked(Shard& s, const Key& key,
                               std::shared_ptr<const Variant> v, bool persist) {
  auto& list = s.map[key];
  for (const auto& existing : list) {
    // A compatible entry (same ok + same effective binding) already serves
    // this key; racing inserters lose quietly.
    if (existing->ok == v->ok &&
        compatible(*existing, v->bind_left, v->ver_left, v->bind_right,
                   v->ver_right)) {
      return false;
    }
  }
  const Variant* kept = v.get();
  list.push_back(std::move(v));
  inserts_.add();
  if (persist && store_ != nullptr && persistable(*kept)) {
    persist_variant(key, *kept);
  }
  return true;
}

void CrossCache::insert(const Key& key, std::shared_ptr<const Variant> v) {
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mu);
  insert_locked(s, key, std::move(v));
}

std::unique_ptr<CrossCache::Fragment> CrossCache::extract(
    const plan::PlanGraph& g, PlanRef root,
    const std::unordered_map<PlanRef, Key>* provenance) {
  auto frag = std::make_unique<Fragment>();
  // Discovery-order BFS assigning fragment-local indices.
  std::unordered_map<PlanRef, uint32_t> local;
  std::vector<PlanRef> order;
  auto visit = [&](PlanRef r) -> bool {
    if (r == plan::kNullPlan) return false;
    if (local.emplace(r, static_cast<uint32_t>(order.size())).second) {
      order.push_back(r);
    }
    return true;
  };
  if (!visit(root)) return nullptr;
  for (size_t i = 0; i < order.size(); ++i) {
    const PlanNode& n = g.at(order[i]);
    switch (n.kind) {
      case PKind::ListMap:
      case PKind::PortMap:
      case PKind::Alias:
        // inner == kNullPlan means the knot is still being tied (we are
        // inside the recursive descent that will attach it): not a
        // self-contained proof, so refuse to cache.
        if (!visit(n.inner)) return nullptr;
        if (n.kind == PKind::PortMap) frag->has_port = true;
        break;
      case PKind::RecordMap:
      case PKind::Extract:
        for (const auto& f : n.fields) {
          if (!visit(f.op)) return nullptr;
        }
        break;
      case PKind::ChoiceMap:
        for (const auto& a : n.arms) {
          if (!visit(a.op)) return nullptr;
        }
        break;
      default: break;
    }
  }
  frag->nodes.reserve(order.size());
  for (PlanRef r : order) {
    PlanNode n = g.at(r);  // copy, then rewrite refs to local indices
    switch (n.kind) {
      case PKind::ListMap:
      case PKind::PortMap:
      case PKind::Alias: n.inner = local.at(n.inner); break;
      case PKind::RecordMap:
      case PKind::Extract:
        for (auto& f : n.fields) f.op = local.at(f.op);
        break;
      case PKind::ChoiceMap:
        for (auto& a : n.arms) a.op = local.at(a.op);
        break;
      default: break;
    }
    frag->nodes.push_back(std::move(n));
  }
  frag->root = 0;  // root discovered first
  if (provenance != nullptr) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (auto it = provenance->find(order[i]); it != provenance->end()) {
        frag->keyed.emplace_back(static_cast<uint32_t>(i), it->second);
      }
    }
  }
  return frag;
}

PlanRef CrossCache::splice(
    plan::PlanGraph& g, const Fragment& f,
    const std::unordered_map<Key, PlanRef, KeyHash>* known,
    std::vector<std::pair<Key, PlanRef>>* learned) {
  const auto n = static_cast<uint32_t>(f.nodes.size());
  // Fragment-local nodes whose strict-key proof already lives in g: wire
  // the existing ref in rather than copying the region again.
  std::unordered_map<uint32_t, PlanRef> present;
  std::unordered_map<uint32_t, const Key*> key_at;
  if (!f.keyed.empty()) {
    for (const auto& [idx, key] : f.keyed) {
      key_at.emplace(idx, &key);
      if (known != nullptr) {
        if (auto it = known->find(key); it != known->end()) {
          present.emplace(idx, it->second);
        }
      }
    }
  }
  if (auto it = present.find(f.root); it != present.end()) return it->second;

  // Copy only what the root still needs: reachability that stops at
  // already-present nodes (their subtrees stay shared, not re-copied).
  std::vector<char> need(n, 0);
  std::vector<uint32_t> stack{f.root};
  need[f.root] = 1;
  auto push = [&](uint32_t c) {
    if (need[c] != 0 || present.count(c) != 0) return;
    need[c] = 1;
    stack.push_back(c);
  };
  while (!stack.empty()) {
    const PlanNode& nd = f.nodes[stack.back()];
    stack.pop_back();
    switch (nd.kind) {
      case PKind::ListMap:
      case PKind::PortMap:
      case PKind::Alias: push(nd.inner); break;
      case PKind::RecordMap:
      case PKind::Extract:
        for (const auto& fm : nd.fields) push(fm.op);
        break;
      case PKind::ChoiceMap:
        for (const auto& a : nd.arms) push(a.op);
        break;
      default: break;
    }
  }

  // Two passes: refs are assigned up front because fragments may contain
  // back-edges (cyclic plans).
  std::vector<PlanRef> map(n, plan::kNullPlan);
  for (const auto& [idx, ref] : present) map[idx] = ref;
  auto next = static_cast<PlanRef>(g.size());
  for (uint32_t i = 0; i < n; ++i) {
    if (need[i] != 0) map[i] = next++;
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (need[i] == 0) continue;
    PlanNode nd = f.nodes[i];
    switch (nd.kind) {
      case PKind::ListMap:
      case PKind::PortMap:
      case PKind::Alias: nd.inner = map[nd.inner]; break;
      case PKind::RecordMap:
      case PKind::Extract:
        for (auto& fm : nd.fields) fm.op = map[fm.op];
        break;
      case PKind::ChoiceMap:
        for (auto& a : nd.arms) a.op = map[a.op];
        break;
      default: break;
    }
    g.add(std::move(nd));
    if (learned != nullptr) {
      if (auto it = key_at.find(i); it != key_at.end()) {
        learned->emplace_back(*it->second, map[i]);
      }
    }
  }
  return map[f.root];
}

std::shared_ptr<const planir::Program> CrossCache::find_program(
    const Key& key) {
  std::shared_ptr<const planir::Program> prog;
  {
    std::shared_lock lock(prog_mu_);
    auto it = programs_.find(key);
    if (it != programs_.end()) prog = it->second;
  }
  if (prog == nullptr && store_ != nullptr) {
    // Store fall-through: decode, re-verify (a corrupted-but-crc-valid or
    // codec-drifted record must degrade to a miss, never to executing an
    // unchecked program), then publish for later lookups.
    mtype::StableId sl, sr;
    if (stable_key(key, &sl, &sr)) {
      HydrationScratch& hs = hydration_scratch();
      hs.arena.reset();
      if (store_->get({sl, sr, key.fp}, store::CacheStore::kProgram,
                      &hs.arena, &hs.payloads)) {
        for (const auto& p : hs.payloads) {
          store::ByteReader r(p.data, p.len);
          auto decoded = std::make_shared<planir::Program>();
          if (!store::decode_program(r, decoded.get())) continue;
          if (!planir::verify(*decoded).empty()) continue;
          prog = std::move(decoded);
          cache_metrics().hydrated.add();
          std::unique_lock lock(prog_mu_);
          programs_.emplace(key, prog);
          break;
        }
      }
    }
  }
  (prog == nullptr ? cache_metrics().prog_misses : cache_metrics().prog_hits)
      .add();
  return prog;
}

void CrossCache::insert_program(const Key& key,
                                std::shared_ptr<const planir::Program> prog) {
  const planir::Program* kept = prog.get();
  bool inserted;
  {
    std::unique_lock lock(prog_mu_);
    inserted = programs_.emplace(key, std::move(prog)).second;
  }
  if (inserted && store_ != nullptr) persist_program(key, *kept);
}

// ---- WriteBuffer ------------------------------------------------------------

std::shared_ptr<const CrossCache::Variant> CrossCache::WriteBuffer::find(
    const Key& key, const void* lg, uint64_t lv, const void* rg, uint64_t rv) {
  // Pending entries first: a worker must observe its own unflushed writes
  // (the memo replay in tool::compile_pair depends on read-your-writes).
  for (const auto& [k, v] : pending_) {
    if (k == key && compatible(*v, lg, lv, rg, rv)) {
      return v;
    }
  }
  return owner_.find(key, lg, lv, rg, rv);
}

std::shared_ptr<const planir::Program> CrossCache::WriteBuffer::find_program(
    const Key& key) {
  for (const auto& [k, p] : pending_progs_) {
    if (k == key) return p;
  }
  return owner_.find_program(key);
}

void CrossCache::WriteBuffer::insert(const Key& key,
                                     std::shared_ptr<const Variant> v) {
  pending_.emplace_back(key, std::move(v));
  if (pending_.size() + pending_progs_.size() >= kAutoFlush) flush();
}

void CrossCache::WriteBuffer::insert_program(
    const Key& key, std::shared_ptr<const planir::Program> prog) {
  pending_progs_.emplace_back(key, std::move(prog));
  if (pending_.size() + pending_progs_.size() >= kAutoFlush) flush();
}

void CrossCache::WriteBuffer::flush() {
  if (!pending_.empty()) {
    // Group by shard so each touched shard is locked exactly once.
    std::array<std::vector<size_t>, kShards> by_shard;
    for (size_t i = 0; i < pending_.size(); ++i) {
      by_shard[shard_index(pending_[i].first)].push_back(i);
    }
    for (size_t si = 0; si < kShards; ++si) {
      if (by_shard[si].empty()) continue;
      Shard& s = owner_.shards_[si];
      std::unique_lock lock(s.mu);
      for (size_t i : by_shard[si]) {
        owner_.insert_locked(s, pending_[i].first,
                             std::move(pending_[i].second));
      }
    }
    pending_.clear();
  }
  if (!pending_progs_.empty()) {
    // Track which entries actually landed; only those write through to the
    // store (a losing racer's program is already persisted by the winner).
    std::vector<const planir::Program*> landed(pending_progs_.size(), nullptr);
    {
      std::unique_lock lock(owner_.prog_mu_);
      for (size_t i = 0; i < pending_progs_.size(); ++i) {
        auto& [k, p] = pending_progs_[i];
        const planir::Program* raw = p.get();
        if (owner_.programs_.emplace(k, std::move(p)).second) landed[i] = raw;
      }
    }
    if (owner_.store_ != nullptr) {
      for (size_t i = 0; i < pending_progs_.size(); ++i) {
        if (landed[i] != nullptr) {
          owner_.persist_program(pending_progs_[i].first, *landed[i]);
        }
      }
    }
    pending_progs_.clear();
  }
}

// ---- durable store plumbing -------------------------------------------------
//
// On-disk variant payload:
//   u8  ok
//   u32 root
//   u32 n_keyed, then per entry: u32 local index, 16B+16B stable ids, u8 fp
//   plan-node vector (store/serial.hpp codec; empty for negative verdicts)
//
// Keyed sub-proof entries are translated CanonId<->StableId at the
// boundary. On hydration, an entry whose stable ids have no CanonId in
// this process yet is dropped from the keyed list — the fragment stays
// fully valid, it merely loses DAG-sharing hints for classes this process
// has not interned.

void CrossCache::attach_store(store::CacheStore* s) { store_ = s; }

uint32_t CrossCache::store_payload_version() {
  return store::kPayloadCodecVersion;
}

bool CrossCache::stable_key(const Key& key, mtype::StableId* left,
                            mtype::StableId* right) {
  *left = strict_.stable_id(key.left);
  *right = strict_.stable_id(key.right);
  return !left->is_null() && !right->is_null();
}

void CrossCache::persist_variant(const Key& key, const Variant& v) {
  mtype::StableId sl, sr;
  if (!stable_key(key, &sl, &sr)) return;
  store::ByteWriter w;
  w.u8(v.ok ? 1 : 0);
  w.u32(v.frag.root);
  // Count translatable keyed entries first (degenerate-keyed sub-proofs
  // cannot exist, but belt-and-braces: skip untranslatable ones).
  std::vector<std::tuple<uint32_t, mtype::StableId, mtype::StableId, uint8_t>>
      keyed;
  keyed.reserve(v.frag.keyed.size());
  for (const auto& [idx, k] : v.frag.keyed) {
    mtype::StableId kl = strict_.stable_id(k.left);
    mtype::StableId kr = strict_.stable_id(k.right);
    if (kl.is_null() || kr.is_null()) continue;
    keyed.emplace_back(idx, kl, kr, k.fp);
  }
  w.u32(static_cast<uint32_t>(keyed.size()));
  for (const auto& [idx, kl, kr, fp] : keyed) {
    w.u32(idx);
    w.u64(kl.hi);
    w.u64(kl.lo);
    w.u64(kr.hi);
    w.u64(kr.lo);
    w.u8(fp);
  }
  store::encode_plan_nodes(w, v.ok ? v.frag.nodes
                                   : std::vector<plan::PlanNode>{});
  store_->put({sl, sr, key.fp}, store::CacheStore::kVerdict, w.data().data(),
              w.data().size());
  cache_metrics().persisted.add();
}

void CrossCache::persist_program(const Key& key, const planir::Program& prog) {
  if (prog.mode != planir::Program::Mode::Convert) return;
  mtype::StableId sl, sr;
  if (!stable_key(key, &sl, &sr)) return;
  store::ByteWriter w;
  if (!store::encode_program(w, prog)) return;
  store_->put({sl, sr, key.fp}, store::CacheStore::kProgram, w.data().data(),
              w.data().size());
  cache_metrics().persisted.add();
}

std::shared_ptr<const CrossCache::Variant> CrossCache::load_variants_from_store(
    const Key& key) {
  mtype::StableId sl, sr;
  if (!stable_key(key, &sl, &sr)) return nullptr;
  HydrationScratch& hs = hydration_scratch();
  hs.arena.reset();
  if (!store_->get({sl, sr, key.fp}, store::CacheStore::kVerdict, &hs.arena,
                   &hs.payloads)) {
    return nullptr;
  }
  std::shared_ptr<const Variant> first;
  for (const auto& p : hs.payloads) {
    store::ByteReader r(p.data, p.len);
    auto v = std::make_shared<Variant>();
    v->ok = r.u8() != 0;
    v->frag.root = r.u32();
    uint32_t nk = r.len_capped(r.u32(), 37);
    v->frag.keyed.reserve(nk);
    for (uint32_t i = 0; i < nk && r.ok(); ++i) {
      uint32_t idx = r.u32();
      mtype::StableId kl{r.u64(), r.u64()};
      mtype::StableId kr{r.u64(), r.u64()};
      uint8_t fp = r.u8();
      mtype::CanonId cl = strict_.canon_of(kl);
      mtype::CanonId cr = strict_.canon_of(kr);
      if (cl == mtype::kNoCanon || cr == mtype::kNoCanon) continue;
      v->frag.keyed.emplace_back(idx, Key{cl, cr, fp});
    }
    if (!r.ok() || !store::decode_plan_nodes(r, &v->frag.nodes)) continue;
    if (v->ok && (v->frag.nodes.empty() || v->frag.root >= v->frag.nodes.size())) {
      continue;
    }
    // Keyed indices must address fragment nodes; drop stragglers.
    std::erase_if(v->frag.keyed, [&](const auto& e) {
      return e.first >= v->frag.nodes.size();
    });
    cache_metrics().hydrated.add();
    std::shared_ptr<const Variant> cv = std::move(v);
    if (first == nullptr) first = cv;
    Shard& s = shard_for(key);
    std::unique_lock lock(s.mu);
    insert_locked(s, key, std::move(cv), /*persist=*/false);
  }
  return first;
}

CrossCache::Stats CrossCache::stats() const {
  Stats st;
  st.hits = hits_;
  st.misses = misses_;
  st.inserts = inserts_;
  for (Shard& s : shards_) {
    std::shared_lock lock(s.mu);
    st.entries += s.map.size();
    for (const auto& [key, variants] : s.map) {
      for (const auto& v : variants) st.fragment_nodes += v->frag.nodes.size();
    }
  }
  {
    std::shared_lock lock(prog_mu_);
    st.programs = programs_.size();
  }
  st.strict_classes = strict_.classes();
  st.interned_nodes = strict_.interned_nodes();
  return st;
}

}  // namespace mbird::compare
