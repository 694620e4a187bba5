#ifndef XMLUP_PATTERN_PATTERN_STORE_H_
#define XMLUP_PATTERN_PATTERN_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>  // concurrency-ok: std::once_flag latches only; locking goes through common/mutex.h
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern.h"

namespace xmlup {

class Tree;
class Dtd;
struct TypeSummary;

/// A handle to a pattern interned in a PatternStore: a trivially-copyable
/// 32-bit id. Two refs from the same store are equal iff the interned
/// patterns are canonically equal (equal up to sibling reordering, and —
/// for minimizing stores, the default — up to equivalence-preserving
/// minimization, so `a[b][b]` and `a[b]` intern to the same ref). Equality
/// and hashing are therefore integer operations; the string-keyed
/// comparisons happen once, at intern time.
///
/// A ref is only meaningful relative to the store that minted it; resolving
/// it through another store is a bug (caught by a bounds DCHECK at best).
class PatternRef {
 public:
  /// Default-constructed refs are invalid (no pattern).
  constexpr PatternRef() = default;

  constexpr bool valid() const { return id_ != kInvalidId; }
  constexpr uint32_t id() const { return id_; }

  friend constexpr bool operator==(PatternRef a, PatternRef b) {
    return a.id_ == b.id_;
  }
  friend constexpr bool operator!=(PatternRef a, PatternRef b) {
    return a.id_ != b.id_;
  }
  friend constexpr bool operator<(PatternRef a, PatternRef b) {
    return a.id_ < b.id_;
  }

 private:
  friend class PatternStore;
  static constexpr uint32_t kInvalidId = 0xFFFFFFFFu;
  explicit constexpr PatternRef(uint32_t id) : id_(id) {}

  uint32_t id_ = kInvalidId;
};

inline constexpr PatternRef kInvalidPatternRef{};

struct PatternRefHash {
  size_t operator()(PatternRef ref) const {
    return std::hash<uint32_t>()(ref.id());
  }
};

struct PatternStoreOptions {
  /// Canonicalize through MinimizePattern before storing, so equivalent
  /// patterns share one ref. Sound (minimization is equivalence-
  /// preserving); costs one minimization per distinct input pattern.
  bool minimize = true;
};

/// Interns patterns into immutable, address-stable storage and hands out
/// integer PatternRefs. Interning computes the canonical string code (and,
/// by default, the minimized form) exactly once per distinct input pattern;
/// every later lookup of the same pattern is one code build plus one hash
/// probe, and everything downstream of the ref — batch dedup keys, pair
/// loops, equality tests — is integer-only.
///
/// All patterns in one store must share one SymbolTable: labels are only
/// comparable within a table, and the stored minimized forms are handed to
/// detectors that compare label ids directly. The table is bound at
/// construction (or by the first Intern) and Intern CHECK-fails on a
/// pattern from a different table.
///
/// Thread safety: all methods are safe to call concurrently (the batch
/// engine interns phase-1 inputs on its pool). Minimization of distinct
/// patterns proceeds in parallel; a race interning the *same* pattern twice
/// resolves to one entry. References returned by pattern() /
/// canonical_code() stay valid for the store's lifetime (entries live in
/// chunked, address-stable storage and are never erased). Resolving a ref
/// — pattern(), linear(), compiled(), type_summary(), size() — never takes
/// the store mutex: entries are published with release/acquire ordering,
/// so the per-pair detection hot path stays lock-free.
///
/// Observability: every store reports `pattern_store.hits`,
/// `pattern_store.misses` (== distinct patterns interned) and
/// `pattern_store.bytes` (storage estimate of what it built) into
/// obs::MetricsRegistry::Default(). The counters sum over all stores,
/// short-lived ones included — the value-facade Detect interns into a
/// call-local store — so the bytes counters are totals built, not what is
/// still retained.
class PatternStore {
 public:
  /// `symbols` may be null: the table then binds on the first Intern.
  explicit PatternStore(std::shared_ptr<SymbolTable> symbols = nullptr,
                        PatternStoreOptions options = {});
  /// Out-of-line: Entry's type-summary slot holds the header-incomplete
  /// TypeSummary.
  ~PatternStore();

  PatternStore(const PatternStore&) = delete;
  PatternStore& operator=(const PatternStore&) = delete;

  /// Interns `p`, returning the ref of its canonical form. CHECK-fails if
  /// `p` was built against a different SymbolTable than this store's.
  PatternRef Intern(const Pattern& p);

  /// The stored (canonical, pre-minimized) pattern. The reference stays
  /// valid for the store's lifetime.
  const Pattern& pattern(PatternRef ref) const;

  /// CanonicalPatternCode of the stored pattern. Refs are equal iff these
  /// strings are equal; the strings exist for diagnostics and persistence,
  /// not for comparison.
  const std::string& canonical_code(PatternRef ref) const;

  /// Cached Pattern::IsLinear() of the stored pattern (the detector
  /// dispatch bit, precomputed at intern time).
  bool linear(PatternRef ref) const;

  /// The compiled form of the stored pattern (its mainline chain with the
  /// per-node classes and axes the matcher reads — see
  /// pattern/compiled_pattern.h), built lazily on first request and
  /// retained for the store's lifetime. The reference stays valid for the
  /// store's lifetime.
  ///
  /// Thread-safe: a once-per-entry latch guarantees exactly one build per
  /// entry even under concurrent callers; construction runs outside the
  /// store mutex so distinct entries compile in parallel. Reports
  /// `store.nfa.hits` (compiled form already present), `store.nfa.misses`
  /// (== entries compiled, at most one per ref) and `store.nfa.bytes`
  /// (compiled-form estimate) into obs::MetricsRegistry::Default(),
  /// summed over all stores as above.
  const CompiledPattern& compiled(PatternRef ref) const;

  /// Binds `dtd` as the one schema this store serves footprints under
  /// (Stage 0 — see DetectorOptions::dtd). The first call binds, and the
  /// store keeps that schema alive for its lifetime, as it keeps its
  /// SymbolTable; a later call with any other schema returns
  /// InvalidArgument, so no pattern's footprints are ever served under a
  /// schema they were not computed for. Lock-free once bound: one atomic
  /// load and a pointer compare. `dtd` must be non-null; the caller checks
  /// that it is on the store's SymbolTable.
  Status BindSchema(const std::shared_ptr<const Dtd>& dtd) const;

  /// The schema-type summary of the stored pattern under the bound schema
  /// (the Stage 0 footprints — see dtd/type_summary.h), built lazily on
  /// first request and retained for the store's lifetime, with the same
  /// once-per-entry latch as compiled(). Reports `store.types.hits` /
  /// `store.types.misses` (== summaries built) / `store.types.bytes` into
  /// obs::MetricsRegistry::Default(). CHECK-fails before BindSchema.
  const TypeSummary& type_summary(PatternRef ref) const;

  /// Interns the canonical code of a content tree (insert payloads),
  /// returning a dense integer id with the same exact-equality guarantee —
  /// the content leg of the batch engine's integer dedup key. Ids share the
  /// hits/misses counters with pattern interning.
  uint32_t InternContentCode(const Tree& content);

  /// Number of distinct patterns stored.
  size_t size() const;

  /// The bound symbol table; null until the first Intern if none was given
  /// at construction.
  std::shared_ptr<SymbolTable> symbols() const;

  const PatternStoreOptions& options() const { return options_; }

 private:
  /// Latch + lazily-built per-entry value (the compiled form, the type
  /// summary). Held behind a unique_ptr so Entry stays movable
  /// (std::once_flag is not) and so call_once's non-const access works
  /// through the const Entry& that entry() hands out. TypeSummary stays
  /// incomplete here, which keeps the pattern layer's headers from
  /// including the dtd layer's; the slot is only built and destroyed in
  /// the .cc.
  template <typename T>
  struct LazySlot {
    std::once_flag once;
    std::unique_ptr<const T> value;
  };

  struct Entry {
    Pattern stored;
    std::string code;
    bool is_linear = false;
    std::unique_ptr<LazySlot<CompiledPattern>> compiled_slot;
    std::unique_ptr<LazySlot<TypeSummary>> types_slot;
  };

  /// Append-only entry storage readable without locks: a fixed top-level
  /// array of atomically-published chunks of geometrically doubling size,
  /// so entry addresses never move. Writers (serialized by the store
  /// mutex) placement-construct the next entry and release-publish the new
  /// count; readers acquire-load the count and reach any published entry
  /// with pure arithmetic — this keeps entry resolution off the mutex on
  /// the per-pair detection hot path (Stage 0 summary probes, compiled-
  /// form fetches).
  class EntryTable {
   public:
    /// Power of two; chunk c holds (kFirstChunkSize << c) entries, so 26
    /// chunks cover ~8.6e9 entries — effectively unbounded.
    static constexpr size_t kFirstChunkSize = 256;
    static constexpr size_t kNumChunks = 26;

    EntryTable() = default;
    ~EntryTable();
    EntryTable(const EntryTable&) = delete;
    EntryTable& operator=(const EntryTable&) = delete;

    /// Published entry count. Acquire: every entry below the returned
    /// count is fully constructed and visible to this thread.
    size_t size() const { return size_.load(std::memory_order_acquire); }

    /// `id` must be below a size() this thread has observed.
    Entry& at(size_t id) const;

    /// Writer side; callers serialize through the store mutex.
    Entry& Append(Entry entry);

   private:
    std::atomic<size_t> size_{0};
    std::array<std::atomic<Entry*>, kNumChunks> chunks_{};
  };

  const Entry& entry(PatternRef ref) const;

  const PatternStoreOptions options_;
  /// The store's one writer-side lock: guards the intern index maps and
  /// the symbol-table and schema bindings. Deliberately NOT held on the
  /// resolution hot path — entries_ publishes lock-free (see EntryTable)
  /// and the per-entry latches are std::once_flag. Leaf lock: nothing in
  /// this class takes another lock while holding it (minimization and
  /// summary construction run outside it by design).
  mutable Mutex mu_;
  std::shared_ptr<SymbolTable> symbols_ XMLUP_GUARDED_BY(mu_);
  /// Not GUARDED_BY(mu_): readers resolve entries lock-free through the
  /// table's acquire-published size; only Append (serialized by mu_)
  /// writes.
  EntryTable entries_;
  /// Canonical input code → entry id. Contains every *input* code seen
  /// (aliases) plus every stored code, so equivalent inputs that minimize
  /// to one entry each pay minimization only once.
  std::unordered_map<std::string, uint32_t> by_code_ XMLUP_GUARDED_BY(mu_);
  std::unordered_map<std::string, uint32_t> content_ids_ XMLUP_GUARDED_BY(mu_);
  /// The bound schema (BindSchema): its owner under mu_, and its address
  /// published for the lock-free check and for type_summary(). Owning it
  /// is what makes the address compare sound: no other Dtd can occupy a
  /// live schema's address.
  mutable std::shared_ptr<const Dtd> schema_ XMLUP_GUARDED_BY(mu_);
  mutable std::atomic<const Dtd*> bound_schema_{nullptr};
};

}  // namespace xmlup

template <>
struct std::hash<xmlup::PatternRef> {
  size_t operator()(xmlup::PatternRef ref) const {
    return std::hash<uint32_t>()(ref.id());
  }
};

#endif  // XMLUP_PATTERN_PATTERN_STORE_H_
