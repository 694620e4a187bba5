#include "conflict/bounded_search.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "common/mutex.h"
#include "eval/evaluator.h"
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
  std::set<Label> taken = labels;
  taken.insert(avoid.begin(), avoid.end());
  for (Label alpha : symbols.ReservedOutside(taken, wanted)) {
    alphabet.push_back(alpha);
  }
  return alphabet;
}

namespace {

/// The evaluator's sat/below recurrence (PatternMasks::Step) run over
/// shapes instead of tree nodes: a shape's subtree is its children's
/// shapes, so cs and cb are the unions of its children's rows. The
/// patterns of one search are compiled as one forest; each alphabet index
/// keeps its label row. Rows are kept only for shapes small enough to be a
/// child.
class ShapeSat {
 public:
  ShapeSat(const std::vector<const Pattern*>& patterns,
           const std::vector<Label>& alphabet, const ShapeTable& table)
      : table_(table), masks_(patterns), words_(masks_.words()) {
    for (Label label : alphabet) label_rows_.push_back(masks_.LabelRow(label));
    for (size_t i = 0; i < patterns.size(); ++i) {
      roots_.push_back(masks_.Bit(i, patterns[i]->root()));
    }
    // Shapes of the table's largest size are never children.
    const uint32_t count = table.count();
    const uint32_t top = count == 0 ? 0 : table.size(count - 1);
    rows_ = count;
    while (rows_ > 0 && table.size(rows_ - 1) == top) --rows_;
    sat_.assign(static_cast<size_t>(rows_) * words_, 0);
    below_.assign(static_cast<size_t>(rows_) * words_, 0);
    scratch_.assign(3 * words_, 0);
  }

  /// Computes shape `id`'s rows; every child's must be computed already.
  /// Returns its sat row (valid until the next call).
  const uint64_t* Compute(uint32_t id) {
    uint64_t* const cs = scratch_.data();
    uint64_t* const cb = cs + words_;
    std::fill(cs, cs + 2 * words_, 0);
    for (uint32_t child : table_.children(id)) {
      const uint64_t* child_sat = &sat_[child * words_];
      const uint64_t* child_below = &below_[child * words_];
      for (size_t w = 0; w < words_; ++w) {
        cs[w] |= child_sat[w];
        cb[w] |= child_below[w];
      }
    }
    const bool kept = id < rows_;
    uint64_t* const sat = kept ? &sat_[id * words_] : cb + words_;
    masks_.Step(label_rows_[table_.label(id)], cs, cb, sat,
                kept ? &below_[id * words_] : cb);
    return sat;
  }

  /// True iff pattern `i` embeds at the root of a shape with sat row `sat`.
  bool RootEmbeds(const uint64_t* sat, size_t i) const {
    return PatternMasks::Test(sat, roots_[i]);
  }

 private:
  const ShapeTable& table_;
  const PatternMasks masks_;
  const size_t words_;
  std::vector<const uint64_t*> label_rows_;
  std::vector<size_t> roots_;
  uint32_t rows_ = 0;
  std::vector<uint64_t> sat_;
  std::vector<uint64_t> below_;
  /// cs, cb, and the sat row of a shape without one.
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
