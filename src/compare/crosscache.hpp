// Cross-pair compare/plan cache (compile-side speedup layer 2).
//
// A CrossCache is a sharded, thread-safe memo shared by independent
// compare()/Session instances. It persists, across a whole batch of
// comparisons:
//
//   * canonical-id indexes (mtype::CanonIndex) — one strict index keying
//     the memo, plus per-option iso indexes the Comparer uses to order
//     record/choice candidates;
//   * pair verdicts and emitted plan fragments, keyed on
//     (strict canonical id left, strict canonical id right, Options
//     fingerprint). Strict ids identify types up to concrete layout, so a
//     fragment built for one pair converts values of every other pair in
//     the same key — a batch of N related pairs pays for each shared
//     subproof once globally, not once per session;
//   * compiled convert-mode PlanIR programs for top-level pairs (the
//     batch driver's per-pair compile step).
//
// Soundness notes (the sharp edges live here, not in the data structure):
//   * Fragments containing PortMap nodes embed mtype::Refs into the two
//     compared graphs, so such entries carry a (graph pointer, version)
//     binding and only hit for comparisons over the same graph pair in
//     the same orientation. Port-free fragments are portable.
//   * Negative entries are recorded only for runs that never tripped the
//     step budget (a budget failure is not a structural verdict).
//   * The fingerprint covers mode + the three isomorphism toggles;
//     use_hash_prune and max_steps never change verdicts (budget aside)
//     and are deliberately excluded so differently-tuned sessions share
//     entries.
//
// Synchronization design: the pair memo is split over kShards shards,
// each guarded by its own shared_mutex (keys hash to a shard). Lookups —
// the entirety of a warm batch's traffic — take shared locks, so N
// workers replaying memo hits never serialize on a shard; only inserts
// take a shard exclusively. Canonical-id interning is serialized inside
// CanonIndex behind a sharded read-mostly memo (see canon.hpp), so
// steady-state operation is short shared-lock critical sections — no
// global lock anywhere on the warm path. Counters are relaxed atomics.
//
// For write-heavy phases (a cold batch filling the cache), WriteBuffer
// gives each worker a local staging area whose flush() applies entries
// grouped by shard — one exclusive lock per touched shard per flush
// instead of one per insert. Deferred visibility is sound by
// construction: a racing worker that misses simply recomputes and
// inserts the same deterministic entry, and duplicate inserts are
// dropped.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "compare/compare.hpp"
#include "mtype/canon.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "planir/planir.hpp"

namespace mbird::store {
class CacheStore;
}  // namespace mbird::store

namespace mbird::compare {

class CrossCache {
 public:
  CrossCache();
  ~CrossCache();
  CrossCache(const CrossCache&) = delete;
  CrossCache& operator=(const CrossCache&) = delete;

  // ---- canonical-id access -------------------------------------------------

  /// Strict (layout-exact) ids for `g`, memoized per graph version.
  [[nodiscard]] std::shared_ptr<const std::vector<mtype::CanonId>> strict_ids(
      const mtype::Graph& g);
  /// Iso ids for `g` under the comparison's rule toggles.
  [[nodiscard]] std::shared_ptr<const std::vector<mtype::CanonId>> iso_ids(
      const mtype::Graph& g, const Options& options);

  /// Options fingerprint used in memo keys.
  [[nodiscard]] static uint8_t fingerprint(const Options& options);

  // ---- pair memo -----------------------------------------------------------

  struct Key {
    mtype::CanonId left = mtype::kNoCanon;
    mtype::CanonId right = mtype::kNoCanon;
    uint8_t fp = 0;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (static_cast<uint64_t>(k.left) << 32) ^
                   (static_cast<uint64_t>(k.right) << 8) ^ k.fp;
      h *= 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };

  /// A reusable coercion-plan subgraph. Node refs are fragment-local
  /// (index into `nodes`); splice() rebases them into a target PlanGraph.
  ///
  /// `keyed` records interior provenance: fragment-local nodes that are
  /// themselves complete proofs of a strict-key pair. splice() uses it to
  /// reuse sub-proofs the consumer plan already contains instead of
  /// copying them again — without this, sibling splices of overlapping
  /// fragments lose all DAG sharing and fragment sizes grow
  /// superpolynomially on densely inter-linked declaration sets (the
  /// chain-of-classes workload makes s(k) = s(k-1) + s(k/2) + O(1)).
  struct Fragment {
    std::vector<plan::PlanNode> nodes;
    uint32_t root = 0;
    bool has_port = false;
    std::vector<std::pair<uint32_t, Key>> keyed;
  };

  struct Variant {
    bool ok = false;
    Fragment frag;  // valid when ok
    // Graph binding for port-bearing fragments; null/0 when portable.
    const void* bind_left = nullptr;
    const void* bind_right = nullptr;
    uint64_t ver_left = 0;
    uint64_t ver_right = 0;
  };

  /// Look up a pair verdict compatible with the given graph binding.
  /// Returns nullptr on miss. Counts a hit or miss.
  [[nodiscard]] std::shared_ptr<const Variant> find(const Key& key,
                                                    const void* left_graph,
                                                    uint64_t left_version,
                                                    const void* right_graph,
                                                    uint64_t right_version);

  /// True if a compatible entry already exists (no counter updates).
  [[nodiscard]] bool has(const Key& key, const void* left_graph,
                         uint64_t left_version, const void* right_graph,
                         uint64_t right_version);

  /// Record a verdict. Duplicate-compatible inserts are dropped.
  void insert(const Key& key, std::shared_ptr<const Variant> v);

  /// Extract the plan subgraph rooted at `root` as a portable fragment.
  /// Returns nullptr if the subgraph is mid-construction (a knot-tying
  /// Alias/ListMap whose body is not yet attached) and must not be cached.
  /// `provenance`, when given, maps plan refs to the strict-key pair they
  /// prove (the extracting Comparer's bookkeeping); matching interior
  /// nodes are recorded in the fragment's `keyed` list.
  [[nodiscard]] static std::unique_ptr<Fragment> extract(
      const plan::PlanGraph& g, plan::PlanRef root,
      const std::unordered_map<plan::PlanRef, Key>* provenance = nullptr);

  /// Splice a fragment into `g`, rebasing fragment-local refs. Returns the
  /// new root. Appended nodes participate in g's checkpoint/rollback.
  /// `known`, when given, maps strict keys to sub-proofs already present
  /// in `g`: fragment regions rooted at a known key are not copied — the
  /// existing ref is wired in instead (this is what preserves DAG sharing
  /// across sibling splices). Newly appended keyed nodes are reported via
  /// `learned` so the caller can extend its maps (rollback-aware).
  static plan::PlanRef splice(
      plan::PlanGraph& g, const Fragment& f,
      const std::unordered_map<Key, plan::PlanRef, KeyHash>* known = nullptr,
      std::vector<std::pair<Key, plan::PlanRef>>* learned = nullptr);

  // ---- compiled-program memo ----------------------------------------------

  [[nodiscard]] std::shared_ptr<const planir::Program> find_program(
      const Key& key);
  void insert_program(const Key& key,
                      std::shared_ptr<const planir::Program> prog);

  // ---- durable backing store ----------------------------------------------

  /// Attach a durable backing store (non-owning; must outlive this cache or
  /// be detached with nullptr). Once attached:
  ///   * find()/find_program() fall through to the store on an in-memory
  ///     miss, hydrating matching records into the shards (records are
  ///     keyed by cross-process StableIds, translated to this process's
  ///     CanonId space; untranslatable records stay dormant — sound, just
  ///     cold);
  ///   * inserts of PERSISTABLE entries (negative verdicts, port-free
  ///     fragments, convert-mode programs) write through to the store.
  /// Port-bearing variants and marshal-mode programs bind process-local
  /// graph pointers and never touch disk. Hydrated programs are re-verified
  /// (planir::verify) before use; failures degrade to a miss.
  void attach_store(store::CacheStore* s);
  [[nodiscard]] store::CacheStore* attached_store() const { return store_; }
  /// Payload codec version baked into store files (bump on encoding
  /// changes; part of the file format version, so old files invalidate).
  [[nodiscard]] static uint32_t store_payload_version();

  // ---- per-worker write buffer --------------------------------------------

  /// Local staging area for one worker's inserts. Verdict and program
  /// entries accumulate here and reach the shared shards only on flush()
  /// (automatic past kAutoFlush pending entries, and at destruction),
  /// grouped so each touched shard is locked exactly once per flush.
  /// find()/find_program() consult the pending entries first, then fall
  /// through to the owner (a worker always sees its own writes).
  /// Not thread-safe: one WriteBuffer per worker/chunk.
  class WriteBuffer {
   public:
    static constexpr size_t kAutoFlush = 64;

    explicit WriteBuffer(CrossCache& owner) : owner_(owner) {}
    /// Flushes pending entries even when destroyed by stack unwinding, so
    /// an exception mid-chunk in the batch driver cannot silently drop a
    /// worker's buffered inserts. A flush failure during unwinding (e.g.
    /// bad_alloc) is swallowed — losing memo entries is benign; a second
    /// exception mid-unwind would terminate the process.
    ~WriteBuffer() {
      try {
        flush();
      } catch (...) {
      }
    }
    WriteBuffer(const WriteBuffer&) = delete;
    WriteBuffer& operator=(const WriteBuffer&) = delete;

    [[nodiscard]] std::shared_ptr<const Variant> find(
        const Key& key, const void* left_graph, uint64_t left_version,
        const void* right_graph, uint64_t right_version);
    [[nodiscard]] std::shared_ptr<const planir::Program> find_program(
        const Key& key);
    void insert(const Key& key, std::shared_ptr<const Variant> v);
    void insert_program(const Key& key,
                        std::shared_ptr<const planir::Program> prog);
    /// Publish all pending entries to the owner's shards in bulk.
    void flush();

   private:
    CrossCache& owner_;
    std::vector<std::pair<Key, std::shared_ptr<const Variant>>> pending_;
    std::vector<std::pair<Key, std::shared_ptr<const planir::Program>>>
        pending_progs_;
  };

  // ---- stats ---------------------------------------------------------------

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t inserts = 0;
    size_t entries = 0;
    size_t fragment_nodes = 0;  // summed stored-fragment sizes
    size_t programs = 0;
    size_t strict_classes = 0;
    size_t interned_nodes = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  static constexpr size_t kShards = 16;

  struct Shard {
    std::shared_mutex mu;
    std::unordered_map<Key, std::vector<std::shared_ptr<const Variant>>,
                       KeyHash>
        map;
  };

  [[nodiscard]] static size_t shard_index(const Key& key) {
    return KeyHash{}(key) % kShards;
  }
  [[nodiscard]] Shard& shard_for(const Key& key) {
    return shards_[shard_index(key)];
  }
  [[nodiscard]] static bool compatible(const Variant& v, const void* lg,
                                       uint64_t lv, const void* rg,
                                       uint64_t rv);
  /// Insert into an already-exclusively-locked shard (shared by insert()
  /// and WriteBuffer::flush()). Returns true if the entry was kept.
  /// `persist` gates store write-through — hydration re-inserts pass false.
  bool insert_locked(Shard& s, const Key& key,
                     std::shared_ptr<const Variant> v, bool persist = true);
  /// Store fall-through on an in-memory miss: load, decode, and shard-insert
  /// every record for `key`; returns one hydrated variant or nullptr.
  [[nodiscard]] std::shared_ptr<const Variant> load_variants_from_store(
      const Key& key);
  void persist_variant(const Key& key, const Variant& v);
  void persist_program(const Key& key, const planir::Program& prog);
  /// Stable-id pair for a memo key (null components when degenerate).
  [[nodiscard]] bool stable_key(const Key& key, mtype::StableId* left,
                                mtype::StableId* right);

  mtype::CanonIndex strict_;
  std::shared_mutex iso_mu_;
  std::vector<std::pair<mtype::CanonOptions, std::unique_ptr<mtype::CanonIndex>>>
      iso_;
  mutable std::array<Shard, kShards> shards_;
  mutable std::shared_mutex prog_mu_;
  std::unordered_map<Key, std::shared_ptr<const planir::Program>, KeyHash>
      programs_;
  obs::Count hits_{"crosscache.verdict.hits"};
  obs::Count misses_{"crosscache.verdict.misses"};
  obs::Count inserts_{"crosscache.verdict.inserts"};
  store::CacheStore* store_ = nullptr;
};

}  // namespace mbird::compare
