#include "pattern/pattern_store.h"

#include <bit>
#include <new>
#include <utility>

#include "common/check.h"
// The interner canonicalizes through the conflict layer's minimizer; this is
// the one place the pattern module reaches upward, so every layer above gets
// pre-minimized forms for free.
#include "conflict/minimize.h"
// Type summaries (the Stage 0 footprints) are cached per entry the same way
// compiled forms are; like the minimizer include above, this is the
// pattern module reaching upward so every consumer of the store shares one
// summary per pattern under the store's one schema.
#include "dtd/type_summary.h"
#include "obs/metrics.h"
#include "pattern/pattern_ops.h"
#include "xml/isomorphism.h"

namespace xmlup {
namespace {

/// Hit/miss/bytes counters under one name prefix, aggregated across every
/// store in the process (the same convention as the batch.* counters):
///   - pattern_store.*: interning; misses == distinct patterns interned;
///   - store.nfa.*: compiled forms (the names predate the DP matcher and
///     stay for the benchmarks that read them);
///   - store.types.*: type summaries, the Stage 0 footprints.
/// For the two per-entry latches, misses counts values built (at most one
/// per entry) and hits counts requests served by a value already built.
struct StoreCounters {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& bytes;

  static StoreCounters Named(const std::string& prefix) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return {reg.GetCounter(prefix + ".hits"),
            reg.GetCounter(prefix + ".misses"),
            reg.GetCounter(prefix + ".bytes")};
  }
};

const StoreCounters& InternCounters() {
  static const StoreCounters counters = StoreCounters::Named("pattern_store");
  return counters;
}

/// The once-per-entry latch behind compiled() and type_summary(): the
/// first caller builds outside the store mutex, so distinct entries build
/// in parallel and a build never blocks Intern; every other caller waits
/// on the latch and gets the same value.
template <typename T, typename Build>
const T& BuildOnce(std::once_flag& once, std::unique_ptr<const T>& value,
                   const StoreCounters& counters, const Build& build) {
  bool built = false;
  std::call_once(once, [&] {
    value = build();
    counters.bytes.Increment(value->bytes());
    built = true;
  });
  (built ? counters.misses : counters.hits).Increment();
  return *value;
}

/// Retained-storage estimate for the bytes counter: the pattern's node
/// array plus the canonical code and map-key strings.
uint64_t EntryBytes(const Pattern& stored, const std::string& code) {
  return stored.size() * 24  /* Pattern::Node */ + 2 * code.size() +
         sizeof(std::string);
}

}  // namespace

/// Chunk index for the geometric layout: chunk c starts at entry id
/// kFirstChunkSize * (2^c - 1), so id + kFirstChunkSize lands in
/// [kFirstChunkSize << c, kFirstChunkSize << (c + 1)).
static constexpr size_t ChunkOf(size_t adjusted, size_t first_chunk_size) {
  return static_cast<size_t>(std::bit_width(adjusted)) -
         static_cast<size_t>(std::bit_width(first_chunk_size));
}

PatternStore::EntryTable::~EntryTable() {
  // ordering: relaxed — destruction is single-threaded by contract (no
  // reader or writer may overlap the store's destructor).
  const size_t n = size_.load(std::memory_order_relaxed);
  for (size_t id = 0; id < n; ++id) at(id).~Entry();
  for (std::atomic<Entry*>& slot : chunks_) {
    // ordering: relaxed — same single-threaded destructor context.
    Entry* chunk = slot.load(std::memory_order_relaxed);
    if (chunk != nullptr) ::operator delete(static_cast<void*>(chunk));
  }
}

PatternStore::Entry& PatternStore::EntryTable::at(size_t id) const {
  const size_t adjusted = id + kFirstChunkSize;
  const size_t c = ChunkOf(adjusted, kFirstChunkSize);
  // ordering: relaxed — the publication edge is size_, not the chunk
  // pointer. The caller observed a size() covering `id`; that acquire
  // synchronizes with the writer's release store of size_, which is
  // sequenced after both the chunk-pointer store and the entry's
  // placement-construction (writers are serialized by the store mutex, so
  // the edge holds across writer threads too). This load therefore cannot
  // observe a null or stale chunk for a published id. Audited for the
  // concurrency layer — see DESIGN "Concurrency model".
  Entry* chunk = chunks_[c].load(std::memory_order_relaxed);
  return chunk[adjusted - (kFirstChunkSize << c)];
}

PatternStore::Entry& PatternStore::EntryTable::Append(Entry entry) {
  // ordering: relaxed — writers are serialized by the store mutex, so the
  // previous Append's size_ store happens-before this load via the mutex.
  const size_t id = size_.load(std::memory_order_relaxed);
  const size_t adjusted = id + kFirstChunkSize;
  const size_t c = ChunkOf(adjusted, kFirstChunkSize);
  XMLUP_CHECK_STREAM(c < kNumChunks) << "PatternStore entry table is full";
  // ordering: relaxed — same mutex-serialized writer context as above.
  Entry* chunk = chunks_[c].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = static_cast<Entry*>(
        ::operator new((kFirstChunkSize << c) * sizeof(Entry)));
    // Release is redundant with the release on size_ below (the real
    // publication edge) but kept so the chunk pointer is independently
    // safe to audit.
    chunks_[c].store(chunk, std::memory_order_release);
  }
  Entry* slot =
      new (&chunk[adjusted - (kFirstChunkSize << c)]) Entry(std::move(entry));
  // The publication point: release makes the chunk pointer and the fully
  // constructed entry visible to every reader that acquire-loads a size
  // covering `id` (EntryTable::size()).
  size_.store(id + 1, std::memory_order_release);
  return *slot;
}

PatternStore::PatternStore(std::shared_ptr<SymbolTable> symbols,
                           PatternStoreOptions options)
    : options_(options), symbols_(std::move(symbols)) {}

PatternStore::~PatternStore() = default;

PatternRef PatternStore::Intern(const Pattern& p) {
  XMLUP_CHECK_STREAM(p.has_root()) << "PatternStore::Intern: empty pattern";
  {
    MutexLock lock(mu_);
    if (symbols_ == nullptr) {
      symbols_ = p.symbols();
    } else {
      XMLUP_CHECK_STREAM(SameSymbolTable(symbols_, p.symbols()))
          << "PatternStore::Intern: pattern was built against a different "
             "SymbolTable than this store's. Labels are only comparable "
             "within one table; all patterns sharing a store (or a batch "
             "engine) must share one SymbolTable.";
    }
  }
  const StoreCounters& metrics = InternCounters();
  std::string code = CanonicalPatternCode(p);
  {
    MutexLock lock(mu_);
    auto it = by_code_.find(code);
    if (it != by_code_.end()) {
      metrics.hits.Increment();
      return PatternRef(it->second);
    }
  }
  // Miss: canonicalize outside the lock so distinct patterns minimize in
  // parallel, then re-check (another thread may have won the race).
  Pattern stored = options_.minimize ? MinimizePattern(p) : p;
  std::string stored_code =
      options_.minimize ? CanonicalPatternCode(stored) : code;
  MutexLock lock(mu_);
  if (auto it = by_code_.find(code); it != by_code_.end()) {
    metrics.hits.Increment();
    return PatternRef(it->second);
  }
  metrics.misses.Increment();
  uint32_t id;
  if (auto it = by_code_.find(stored_code); it != by_code_.end()) {
    // A different spelling of an already-stored canonical form.
    id = it->second;
  } else {
    id = static_cast<uint32_t>(entries_.size());
    const bool is_linear = stored.IsLinear();
    metrics.bytes.Increment(EntryBytes(stored, stored_code));
    entries_.Append(Entry{std::move(stored), stored_code, is_linear,
                          std::make_unique<LazySlot<CompiledPattern>>(),
                          std::make_unique<LazySlot<TypeSummary>>()});
    by_code_.emplace(std::move(stored_code), id);
  }
  if (code != entries_.at(id).code) by_code_.emplace(std::move(code), id);
  return PatternRef(id);
}

const PatternStore::Entry& PatternStore::entry(PatternRef ref) const {
  // Lock-free: the table's acquire-published size covers every resolvable
  // ref, and entry addresses never move.
  XMLUP_CHECK_STREAM(ref.valid() && ref.id() < entries_.size())
      << "PatternRef does not belong to this store";
  return entries_.at(ref.id());
}

const Pattern& PatternStore::pattern(PatternRef ref) const {
  return entry(ref).stored;
}

const std::string& PatternStore::canonical_code(PatternRef ref) const {
  return entry(ref).code;
}

bool PatternStore::linear(PatternRef ref) const {
  return entry(ref).is_linear;
}

const CompiledPattern& PatternStore::compiled(PatternRef ref) const {
  static const StoreCounters counters = StoreCounters::Named("store.nfa");
  const Entry& e = entry(ref);
  return BuildOnce(e.compiled_slot->once, e.compiled_slot->value, counters,
                   [&] {
                     return std::make_unique<const CompiledPattern>(e.stored);
                   });
}

Status PatternStore::BindSchema(const std::shared_ptr<const Dtd>& dtd) const {
  XMLUP_CHECK(dtd != nullptr);
  // ordering: acquire — pairs with the release below, so a thread that
  // sees the address also sees the bound schema; the Dtd itself is
  // immutable.
  const Dtd* bound = bound_schema_.load(std::memory_order_acquire);
  if (bound == nullptr) {
    MutexLock lock(mu_);
    if (schema_ == nullptr) {
      schema_ = dtd;
      bound_schema_.store(dtd.get(), std::memory_order_release);
    }
    bound = schema_.get();
  }
  // The store owns the bound schema, so no other Dtd can live at its
  // address: the pointer compare is an identity test.
  if (bound == dtd.get()) return Status::OK();
  return Status::InvalidArgument(
      "DetectorOptions::dtd is not the schema this PatternStore is bound "
      "to; a store serves one schema's type footprints");
}

const TypeSummary& PatternStore::type_summary(PatternRef ref) const {
  static const StoreCounters counters = StoreCounters::Named("store.types");
  const Entry& e = entry(ref);
  // ordering: acquire — see BindSchema.
  const Dtd* dtd = bound_schema_.load(std::memory_order_acquire);
  XMLUP_CHECK_STREAM(dtd != nullptr)
      << "PatternStore::type_summary called before BindSchema";
  return BuildOnce(e.types_slot->once, e.types_slot->value, counters,
                   [&] {
                     return std::make_unique<const TypeSummary>(
                         ComputeTypeSummary(e.stored, *dtd));
                   });
}

uint32_t PatternStore::InternContentCode(const Tree& content) {
  const StoreCounters& metrics = InternCounters();
  std::string code = CanonicalCode(content);
  MutexLock lock(mu_);
  auto [it, inserted] =
      content_ids_.emplace(std::move(code),
                           static_cast<uint32_t>(content_ids_.size()));
  if (inserted) {
    metrics.misses.Increment();
    metrics.bytes.Increment(it->first.size() + sizeof(std::string));
  } else {
    metrics.hits.Increment();
  }
  return it->second;
}

size_t PatternStore::size() const { return entries_.size(); }

std::shared_ptr<SymbolTable> PatternStore::symbols() const {
  MutexLock lock(mu_);
  return symbols_;
}

}  // namespace xmlup
