#ifndef XMLUP_CONFLICT_UPDATE_OP_H_
#define XMLUP_CONFLICT_UPDATE_OP_H_

#include <memory>
#include <variant>

#include "common/result.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"
#include "xml/tree.h"

namespace xmlup {

/// The one root-delete guard (paper §2.2: DELETE_p requires
/// O(p) != ROOT(p) — deleting the root leaves no tree). Every layer that
/// accepts a delete pattern validates through this — the MakeDelete
/// factories, the linear read-delete core, and the Detect() pipeline — so
/// no call path can smuggle a root-selecting delete past the check. The
/// check is stable under minimization: a minimized root output is still
/// the root.
Status ValidateDeletePattern(const Pattern& pattern);

/// A single update operation — the paper's INSERT_{p,X} or DELETE_p — as a
/// value type shared by the unified detector facade (conflict/detector.h),
/// the batch engine, commutativity analysis and the dependence analyzer.
///
/// Internally a std::variant over the two descriptions, so adding an
/// update kind extends one alternative (and the compiler flags every
/// switch that must learn about it) instead of widening a Kind/nullable-
/// field bundle. Inserted content is a shared_ptr so UpdateOp stays
/// cheaply copyable.
class UpdateOp {
 public:
  enum class Kind { kInsert, kDelete };

  /// INSERT_{p,X}: grafts a fresh copy of `content` under every node
  /// selected by `pattern`.
  struct InsertDesc {
    Pattern pattern;
    std::shared_ptr<const Tree> content;
  };

  /// DELETE_p: removes the subtree rooted at every selected node. The
  /// pattern must not select the root (O(p) != ROOT(p)).
  struct DeleteDesc {
    Pattern pattern;
  };

  static UpdateOp MakeInsert(Pattern pattern,
                             std::shared_ptr<const Tree> content);
  /// Fails if the delete pattern selects the root.
  static Result<UpdateOp> MakeDelete(Pattern pattern);

  /// Ref-based factories: the op's pattern is `store->pattern(pattern)`
  /// (the interned canonical form) and the op carries the ref, so layers
  /// that memoize on pattern identity (batch engine, pair loops) use the
  /// integer id instead of re-canonicalizing. `store` must be non-null and
  /// `pattern` minted by it.
  static UpdateOp MakeInsert(std::shared_ptr<const PatternStore> store,
                             PatternRef pattern,
                             std::shared_ptr<const Tree> content);
  static Result<UpdateOp> MakeDelete(std::shared_ptr<const PatternStore> store,
                                     PatternRef pattern);

  /// A copy of this op bound to `store`: its pattern interned (minimized)
  /// and the ref recorded. Amortizes canonicalization across pair loops
  /// (update_independence, transactions, batch). Equivalence-preserving:
  /// the bound op selects the same nodes on every tree.
  UpdateOp Bind(const std::shared_ptr<PatternStore>& store) const;

  /// The interning ref, or an invalid ref for ops built from raw Patterns.
  PatternRef pattern_ref() const { return pattern_ref_; }
  /// The store `pattern_ref()` belongs to; null for ops built from raw
  /// Patterns.
  const PatternStore* pattern_store() const { return store_.get(); }

  Kind kind() const {
    return std::holds_alternative<InsertDesc>(op_) ? Kind::kInsert
                                                   : Kind::kDelete;
  }

  const Pattern& pattern() const;
  /// Insert-only; checks.
  const Tree& content() const;
  const std::shared_ptr<const Tree>& shared_content() const;

  /// Visitor access to the underlying variant, e.g.
  ///   op.Visit([](const UpdateOp::InsertDesc& i) {...},
  ///            [](const UpdateOp::DeleteDesc& d) {...});
  template <typename... Fns>
  decltype(auto) Visit(Fns&&... fns) const {
    struct Overloaded : std::decay_t<Fns>... {
      using std::decay_t<Fns>::operator()...;
    };
    return std::visit(Overloaded{std::forward<Fns>(fns)...}, op_);
  }

  /// Applies this update in place (reference semantics: evaluate first,
  /// then mutate).
  void ApplyInPlace(Tree* t) const;

 private:
  explicit UpdateOp(std::variant<InsertDesc, DeleteDesc> op);

  std::variant<InsertDesc, DeleteDesc> op_;
  /// Set only by the ref-based factories / Bind(); keeps the op cheaply
  /// copyable (shared_ptr + 32-bit id).
  std::shared_ptr<const PatternStore> store_;
  PatternRef pattern_ref_;
};

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_UPDATE_OP_H_
