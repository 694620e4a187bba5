#include "conflict/bounded_search.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "common/mutex.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// NP-path accounting: how many searches ran, how many shapes they covered
/// and how many of those the SAT filter rejected unmaterialized, how often
/// the budget (shape cap / max_nodes) stopped them before the space was
/// covered, and how many tables the shared cache built. Counters are
/// bumped once per search or build (bulk adds), never inside the per-shape
/// loop.
struct SearchMetrics {
  obs::Counter& searches;
  obs::Counter& trees_checked;
  obs::Counter& shapes_pruned;
  obs::Counter& witnesses_found;
  obs::Counter& truncations;
  obs::Counter& budget_exhausted;
  obs::Counter& table_builds;
  obs::Histogram& latency_us;

  static const SearchMetrics& Get() {
    static const SearchMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new SearchMetrics{
          reg.GetCounter("bounded_search.searches"),
          reg.GetCounter("bounded_search.trees_checked"),
          reg.GetCounter("bounded_search.shapes_pruned"),
          reg.GetCounter("bounded_search.witnesses_found"),
          reg.GetCounter("bounded_search.truncations"),
          reg.GetCounter("bounded_search.budget_exhausted"),
          reg.GetCounter("bounded_search.table_builds"),
          reg.GetHistogram("bounded_search.latency_us"),
      };
    }();
    return *metrics;
  }
};

/// Most shapes the Shared() cache keeps (about 16 bytes each plus their
/// child ids): two tables at the default max_trees cap.
constexpr uint64_t kCachedShapeBudget = 4'000'000;

}  // namespace

ShapeTable ShapeTable::Build(size_t alphabet_size, size_t max_nodes,
                             uint64_t max_shapes) {
  // Shape ids are 32-bit; no enumerable space comes near the limit.
  max_shapes = std::min<uint64_t>(max_shapes,
                                  std::numeric_limits<uint32_t>::max());
  ShapeTable table;
  std::vector<uint32_t> children;
  for (uint32_t size = 1; size <= max_nodes && !table.truncated_; ++size) {
    // Only shapes strictly smaller than `size` exist at this point; all of
    // them are candidates for children.
    const uint32_t max_id = table.count();
    for (uint32_t label = 0; label < alphabet_size && !table.truncated_;
         ++label) {
      table.EmitWithChildren(label, size - 1, max_id, &children, size,
                             max_shapes);
    }
  }
  return table;
}

/// Emits every shape with the given root label and a canonical multiset of
/// children whose sizes sum to `size_budget`, drawn from shape ids
/// < max_id, in non-increasing id order.
void ShapeTable::EmitWithChildren(uint32_t label, uint32_t size_budget,
                                  uint32_t max_id,
                                  std::vector<uint32_t>* children,
                                  uint32_t total_size, uint64_t max_shapes) {
  if (size_budget == 0) {
    if (count() >= max_shapes) {
      truncated_ = true;
      return;
    }
    labels_.push_back(label);
    sizes_.push_back(total_size);
    children_.insert(children_.end(), children->begin(), children->end());
    child_begin_.push_back(static_cast<uint32_t>(children_.size()));
    return;
  }
  const uint32_t start =
      children->empty() ? max_id : children->back() + 1;  // ids < start
  for (uint32_t id = start; id-- > 0;) {
    if (sizes_[id] > size_budget) continue;
    children->push_back(id);
    EmitWithChildren(label, size_budget - sizes_[id], max_id, children,
                     total_size, max_shapes);
    children->pop_back();
    if (truncated_) return;
  }
}

std::shared_ptr<const ShapeTable> ShapeTable::Shared(size_t alphabet_size,
                                                     size_t max_nodes,
                                                     uint64_t max_shapes) {
  struct Cache {
    Mutex mu;
    std::map<std::tuple<size_t, size_t, uint64_t>,
             std::shared_ptr<const ShapeTable>>
        tables XMLUP_GUARDED_BY(mu);
    uint64_t shapes XMLUP_GUARDED_BY(mu) = 0;
  };
  static Cache* const cache = new Cache();
  // Fetched before locking: the first fetch registers the metrics under the
  // registry's lock, and the cache lock stays a leaf.
  const SearchMetrics& metrics = SearchMetrics::Get();
  const auto key = std::make_tuple(alphabet_size, max_nodes, max_shapes);
  // Building under the lock is what makes one build per key: a concurrent
  // first use of the same key waits for it instead of building its own.
  MutexLock lock(cache->mu);
  if (auto it = cache->tables.find(key); it != cache->tables.end()) {
    return it->second;
  }
  auto table = std::make_shared<const ShapeTable>(
      Build(alphabet_size, max_nodes, max_shapes));
  metrics.table_builds.Increment();
  if (cache->shapes + table->count() > kCachedShapeBudget) {
    cache->tables.clear();
    cache->shapes = 0;
  }
  cache->shapes += table->count();
  cache->tables.emplace(key, table);
  return table;
}

void ShapeTable::Materialize(uint32_t id, const std::vector<Label>& alphabet,
                             Tree* tree, NodeId parent) const {
  const Label label = alphabet[labels_[id]];
  const NodeId node = parent == kNullNode ? tree->CreateRoot(label)
                                          : tree->AddChild(parent, label);
  for (uint32_t child : children(id)) {
    Materialize(child, alphabet, tree, node);
  }
}

TreeEnumerator::TreeEnumerator(std::shared_ptr<SymbolTable> symbols,
                               std::vector<Label> alphabet, size_t max_nodes,
                               uint64_t max_shapes)
    : symbols_(std::move(symbols)), alphabet_(std::move(alphabet)) {
  XMLUP_CHECK(!alphabet_.empty());
  table_ = ShapeTable::Shared(alphabet_.size(), max_nodes, max_shapes);
}

bool TreeEnumerator::Enumerate(
    const std::function<bool(const Tree&)>& visit) const {
  for (uint32_t id = 0; id < table_->count(); ++id) {
    Tree tree(symbols_);
    table_->Materialize(id, alphabet_, &tree);
    if (!visit(tree)) return false;
  }
  return true;
}

std::vector<Label> SearchAlphabet(SymbolTable& symbols,
                                  const std::set<Label>& labels,
                                  const std::set<Label>& avoid,
                                  size_t extra_labels) {
  std::vector<Label> alphabet(labels.begin(), labels.end());
  // An empty alphabet has no trees; it gets one α even when none is asked.
  const size_t wanted = labels.empty() ? std::max<size_t>(extra_labels, 1)
                                       : extra_labels;
  for (size_t i = 0, taken = 0; taken < wanted; ++i) {
    const Label alpha = symbols.Reserved(i);
    if (labels.count(alpha) != 0 || avoid.count(alpha) != 0) continue;
    alphabet.push_back(alpha);
    ++taken;
  }
  return alphabet;
}

namespace {

/// The evaluator's bottom-up satisfaction pass (eval/evaluator.cc), run
/// over shapes instead of tree nodes. The patterns of one search sit side
/// by side as one forest: node k of pattern i is bit offset_i + k. For a
/// shape s, sat(s) holds the forest nodes q whose subpattern embeds with
/// q ↦ root(s), and below(s) = sat(s) ∪ dsat(s) those that embed at root(s)
/// or some node under it. Both are computed from s's children:
///   cs = ∪ sat(child), cb = ∪ below(child),
///   q ∈ sat(s) iff label(q) matches, every child-axis child of q is in cs
///   and every descendant-axis child of q is in cb,
///   below(s) = sat(s) ∪ cb.
/// Rows are kept only for shapes small enough to be a child.
class ShapeSat {
 public:
  ShapeSat(const std::vector<const Pattern*>& patterns,
           const std::vector<Label>& alphabet, const ShapeTable& table)
      : table_(table) {
    size_t nodes = 0;
    for (const Pattern* p : patterns) nodes += p->size();
    words_ = (nodes + 63) / 64;
    label_mask_.assign(alphabet.size() * words_, 0);
    leaf_mask_.assign(words_, 0);
    size_t offset = 0;
    for (const Pattern* p : patterns) {
      roots_.push_back(offset + p->root());
      for (PatternNodeId q = 0; q < p->size(); ++q) {
        const size_t bit = offset + q;
        for (size_t a = 0; a < alphabet.size(); ++a) {
          if (p->is_wildcard(q) || p->label(q) == alphabet[a]) {
            Set(&label_mask_[a * words_], bit);
          }
        }
        if (p->first_child(q) == kNullPatternNode) {
          Set(leaf_mask_.data(), bit);
          continue;
        }
        inner_.push_back(bit);
        const size_t at = child_mask_.size();
        child_mask_.resize(at + words_, 0);
        desc_mask_.resize(at + words_, 0);
        for (PatternNodeId c = p->first_child(q); c != kNullPatternNode;
             c = p->next_sibling(c)) {
          uint64_t* mask = p->axis(c) == Axis::kChild ? &child_mask_[at]
                                                      : &desc_mask_[at];
          Set(mask, offset + c);
        }
      }
      offset += p->size();
    }
    // Shapes of the table's largest size are never children.
    const uint32_t count = table.count();
    const uint32_t top = count == 0 ? 0 : table.size(count - 1);
    uint32_t rows = count;
    while (rows > 0 && table.size(rows - 1) == top) --rows;
    sat_.assign(static_cast<size_t>(rows) * words_, 0);
    below_.assign(static_cast<size_t>(rows) * words_, 0);
    scratch_.assign(3 * words_, 0);
    rows_ = rows;
  }

  /// Computes shape `id`'s bits; every child's must be computed already.
  /// Returns its sat(s) (valid until the next call).
  const uint64_t* Compute(uint32_t id) {
    uint64_t* const cs = scratch_.data();
    uint64_t* const cb = cs + words_;
    std::fill(cs, cs + 2 * words_, 0);
    const std::span<const uint32_t> children = table_.children(id);
    for (uint32_t child : children) {
      const uint64_t* child_sat = &sat_[child * words_];
      const uint64_t* child_below = &below_[child * words_];
      for (size_t w = 0; w < words_; ++w) {
        cs[w] |= child_sat[w];
        cb[w] |= child_below[w];
      }
    }
    uint64_t* const sat = id < rows_ ? &sat_[id * words_] : cb + words_;
    const uint64_t* labels = &label_mask_[table_.label(id) * words_];
    for (size_t w = 0; w < words_; ++w) sat[w] = labels[w] & leaf_mask_[w];
    if (!children.empty()) {
      for (size_t i = 0; i < inner_.size(); ++i) {
        const size_t bit = inner_[i];
        if (!Test(labels, bit)) continue;
        const uint64_t* child_mask = &child_mask_[i * words_];
        const uint64_t* desc_mask = &desc_mask_[i * words_];
        bool ok = true;
        for (size_t w = 0; ok && w < words_; ++w) {
          ok = (child_mask[w] & ~cs[w]) == 0 && (desc_mask[w] & ~cb[w]) == 0;
        }
        if (ok) Set(sat, bit);
      }
    }
    if (id < rows_) {
      uint64_t* const below = &below_[id * words_];
      for (size_t w = 0; w < words_; ++w) below[w] = sat[w] | cb[w];
    }
    return sat;
  }

  /// True iff pattern `i` embeds at the root of a shape with bits `sat`.
  bool RootEmbeds(const uint64_t* sat, size_t i) const {
    return Test(sat, roots_[i]);
  }

 private:
  static void Set(uint64_t* bits, size_t bit) {
    bits[bit / 64] |= uint64_t{1} << (bit % 64);
  }
  static bool Test(const uint64_t* bits, size_t bit) {
    return (bits[bit / 64] >> (bit % 64)) & 1;
  }

  const ShapeTable& table_;
  size_t words_ = 0;
  std::vector<size_t> roots_;
  /// [alphabet index][word]: forest nodes whose label matches.
  std::vector<uint64_t> label_mask_;
  std::vector<uint64_t> leaf_mask_;
  /// Forest nodes with children, and per such node [word] masks of its
  /// child-axis and descendant-axis children.
  std::vector<size_t> inner_;
  std::vector<uint64_t> child_mask_;
  std::vector<uint64_t> desc_mask_;
  uint32_t rows_ = 0;
  std::vector<uint64_t> sat_;
  std::vector<uint64_t> below_;
  /// cs, cb, and sat(s) for shapes without a row.
  std::vector<uint64_t> scratch_;
};

}  // namespace

BruteForceResult SearchShapes(const std::shared_ptr<SymbolTable>& symbols,
                              const ShapeSearch& search,
                              const BoundedSearchOptions& options) {
  const SearchMetrics& metrics = SearchMetrics::Get();
  metrics.searches.Increment();
  obs::ScopedTimer timer(&metrics.latency_us);
  obs::TraceSpan span("BruteForceSearch");
  const std::vector<Label> alphabet = SearchAlphabet(
      *symbols, search.labels, search.avoid, options.extra_labels);
  const std::shared_ptr<const ShapeTable> table =
      ShapeTable::Shared(alphabet.size(), options.max_nodes,
                         options.max_trees);
  ShapeSat sat(search.patterns, alphabet, *table);
  BruteForceResult result;
  result.truncated = table->truncated();
  uint64_t pruned = 0;
  for (uint32_t id = 0; id < table->count(); ++id) {
    const uint64_t* bits = sat.Compute(id);
    // All patterns must embed: the first that does not rejects the shape.
    // With any_pattern, the first that does accepts it.
    bool survives = !search.any_pattern;
    for (size_t i = 0; i < search.patterns.size(); ++i) {
      if (sat.RootEmbeds(bits, i) == search.any_pattern) {
        survives = search.any_pattern;
        break;
      }
    }
    if (!survives) {
      ++pruned;
      continue;
    }
    Tree candidate(symbols);
    table->Materialize(id, alphabet, &candidate);
    if (search.is_witness(candidate)) {
      result.outcome = SearchOutcome::kWitnessFound;
      result.witness = std::move(candidate);
      result.trees_checked = id + 1;
      break;
    }
  }
  if (result.outcome != SearchOutcome::kWitnessFound) {
    result.trees_checked = table->count();
    result.outcome = result.truncated ? SearchOutcome::kBudgetExceeded
                                      : SearchOutcome::kExhaustedNoWitness;
  }
  metrics.trees_checked.Increment(result.trees_checked);
  metrics.shapes_pruned.Increment(pruned);
  if (result.truncated) metrics.truncations.Increment();
  if (result.outcome == SearchOutcome::kWitnessFound) {
    metrics.witnesses_found.Increment();
  } else if (result.outcome == SearchOutcome::kBudgetExceeded) {
    metrics.budget_exhausted.Increment();
  }
  return result;
}

namespace {

std::set<Label> PatternLabels(const Pattern& read, const Pattern& update) {
  std::set<Label> labels;
  for (Label l : read.DistinctLabels()) labels.insert(l);
  for (Label l : update.DistinctLabels()) labels.insert(l);
  return labels;
}

std::set<Label> TreeLabels(const Tree& tree) {
  std::set<Label> labels;
  for (NodeId n : tree.PreOrder()) labels.insert(tree.label(n));
  return labels;
}

}  // namespace

ShapeSearch ReadInsertSearch(const Pattern& read,
                             const Pattern& insert_pattern,
                             const Tree& inserted,
                             ConflictSemantics semantics) {
  ShapeSearch search;
  search.labels = PatternLabels(read, insert_pattern);
  search.avoid = TreeLabels(inserted);
  search.patterns = {&insert_pattern};
  search.is_witness = [&read, &insert_pattern, &inserted,
                       semantics](const Tree& candidate) {
    return IsReadInsertWitness(read, insert_pattern, inserted, candidate,
                               semantics);
  };
  return search;
}

ShapeSearch ReadDeleteSearch(const Pattern& read,
                             const Pattern& delete_pattern,
                             ConflictSemantics semantics) {
  ShapeSearch search;
  search.labels = PatternLabels(read, delete_pattern);
  search.patterns = {&delete_pattern, &read};
  search.is_witness = [&read, &delete_pattern,
                       semantics](const Tree& candidate) {
    return IsReadDeleteWitness(read, delete_pattern, candidate, semantics);
  };
  return search;
}

BruteForceResult BruteForceReadInsertSearch(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, const BoundedSearchOptions& options) {
  return SearchShapes(
      read.symbols(),
      ReadInsertSearch(read, insert_pattern, inserted, semantics), options);
}

BruteForceResult BruteForceReadDeleteSearch(
    const Pattern& read, const Pattern& delete_pattern,
    ConflictSemantics semantics, const BoundedSearchOptions& options) {
  return SearchShapes(read.symbols(),
                      ReadDeleteSearch(read, delete_pattern, semantics),
                      options);
}

size_t PaperWitnessBound(const Pattern& read, const Pattern& update) {
  return read.size() * update.size() * (StarLength(read) + 1);
}

}  // namespace xmlup
