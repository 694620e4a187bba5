#ifndef XMLUP_XML_SYMBOL_TABLE_H_
#define XMLUP_XML_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace xmlup {

/// An interned element label. The paper's alphabet Σ is infinite; labels are
/// minted on demand from a SymbolTable. Label values are dense indices and
/// only meaningful relative to the table that produced them.
using Label = uint32_t;

inline constexpr Label kInvalidLabel = 0xFFFFFFFFu;

/// Interns label strings to dense Label ids. Trees and patterns that are
/// compared or combined must share a SymbolTable (enforced with DCHECKs at
/// the comparison sites).
///
/// The table also supports minting *fresh* symbols — symbols guaranteed not
/// to have been interned before — which the paper's constructions rely on
/// ("a label α not used in R, I or X", Definition 10; the α/β/γ/δ labels of
/// the reductions in Section 5).
///
/// Thread safety: all methods are safe to call concurrently. The batch
/// conflict engine runs detectors (which mint fresh symbols) on a thread
/// pool over patterns sharing one table. References returned by Name()
/// stay valid for the table's lifetime (names are stored in a deque).
class SymbolTable {
 public:
  SymbolTable() = default;

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the Label for `name`, interning it if new.
  Label Intern(std::string_view name);

  /// Returns the Label for `name`, or kInvalidLabel if never interned.
  Label Lookup(std::string_view name) const;

  /// Returns the string for a label minted by this table.
  const std::string& Name(Label label) const;

  /// Mints a label whose name (`<prefix>$<n>`) has never been interned.
  Label Fresh(std::string_view prefix);

  /// The first `count` labels of this table's reserved pool that are not
  /// in `taken`: labels fresh with respect to a construction whose inputs
  /// use `taken`. The pool's i-th label is minted by Fresh("alpha") the
  /// first time it is needed and is the same label on every later call, so
  /// repeated constructions (the bounded searches' α, the witness
  /// builders' fillers) draw their symbols here instead of growing the
  /// table per call. A reserved label may have been interned since it was
  /// minted; `taken` skips the ones a construction's inputs use.
  std::vector<Label> ReservedOutside(const std::set<Label>& taken,
                                     size_t count);

  /// Number of distinct labels interned so far.
  size_t size() const;

  /// Convenience: a process-local table for examples and tests that do not
  /// need isolation.
  static const std::shared_ptr<SymbolTable>& Shared();

 private:
  Label FreshLocked(std::string_view prefix) XMLUP_REQUIRES(mu_);

  /// Guards every field; all methods are lock-then-touch. Leaf lock:
  /// nothing is called out to while it is held.
  mutable Mutex mu_;
  std::unordered_map<std::string, Label> index_ XMLUP_GUARDED_BY(mu_);
  /// Deque, not vector: growth never relocates stored strings, so Name()
  /// references stay valid after the lock is dropped.
  std::deque<std::string> names_ XMLUP_GUARDED_BY(mu_);
  uint64_t fresh_counter_ XMLUP_GUARDED_BY(mu_) = 0;
  /// ReservedOutside() pool, in minting order.
  std::vector<Label> reserved_ XMLUP_GUARDED_BY(mu_);
};

/// True iff `a` and `b` are the same table, i.e. their Labels are mutually
/// comparable. Labels have no cross-table meaning, so this is deliberately
/// an identity check, not a structural one — two tables that happened to
/// intern the same names in the same order are still different tables.
/// Used by the comparison/interning sites (PatternStore::Intern rejects
/// patterns whose table is not the store's with this predicate).
inline bool SameSymbolTable(const SymbolTable* a, const SymbolTable* b) {
  return a == b;
}
inline bool SameSymbolTable(const std::shared_ptr<SymbolTable>& a,
                            const std::shared_ptr<SymbolTable>& b) {
  return a.get() == b.get();
}

}  // namespace xmlup

#endif  // XMLUP_XML_SYMBOL_TABLE_H_
