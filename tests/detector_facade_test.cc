// The Detect() facade's two entry points must agree: the ref overload
// (interned PatternRef resolved through a PatternStore) and the value
// overload must produce the same report on verdict, method, trees_checked
// and detail (witnesses are compared by presence). Since the store hands the
// detector the *minimized* read, this doubles as an end-to-end check that
// minimization is conflict-preserving. Also covers metric side effects: a
// Detect call bumps the dispatch and verdict counters in the default
// registry.

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "conflict/detector.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

void ExpectSameReport(const Result<ConflictReport>& by_value,
                      const Result<ConflictReport>& by_ref,
                      const std::string& label) {
  ASSERT_EQ(by_value.ok(), by_ref.ok()) << label;
  if (!by_value.ok()) {
    EXPECT_EQ(by_value.status().code(), by_ref.status().code()) << label;
    return;
  }
  EXPECT_EQ(by_value->verdict, by_ref->verdict) << label;
  EXPECT_EQ(by_value->method, by_ref->method) << label;
  EXPECT_EQ(by_value->trees_checked, by_ref->trees_checked) << label;
  EXPECT_EQ(by_value->detail, by_ref->detail) << label;
  EXPECT_EQ(by_value->witness.has_value(), by_ref->witness.has_value())
      << label;
}

TEST(DetectorFacadeTest, RefOverloadMatchesValueOverloadForInserts) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const Tree x = Xml("<C/>", symbols);
  struct Case {
    const char* read;
    const char* insert;
  };
  for (const Case& c : {Case{"x//C", "x/B"}, Case{"x//D", "x/B"},
                        Case{"a[q]//C", "a/B"}, Case{"a/*/C", "a/B"}}) {
    const Pattern read = Xp(c.read, symbols);
    const Pattern ins = Xp(c.insert, symbols);
    auto content = std::make_shared<const Tree>(CopyTree(x));
    Result<ConflictReport> by_value =
        Detect(read, UpdateOp::MakeInsert(ins, content));
    Result<ConflictReport> by_ref =
        Detect(*store, store->Intern(read),
               UpdateOp::MakeInsert(store, store->Intern(ins), content));
    ExpectSameReport(by_value, by_ref,
                     std::string(c.read) + " vs insert " + c.insert);
  }
}

TEST(DetectorFacadeTest, RefOverloadMatchesValueOverloadForDeletes) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  struct Case {
    const char* read;
    const char* del;
  };
  for (const Case& c : {Case{"a//b", "a//c"}, Case{"a/b", "a/c"},
                        Case{"a[q]//b", "a//c"}, Case{"a/b", "a"}}) {
    const Pattern read = Xp(c.read, symbols);
    const Pattern del = Xp(c.del, symbols);
    Result<UpdateOp> by_value_op = UpdateOp::MakeDelete(del);
    Result<UpdateOp> by_ref_op =
        UpdateOp::MakeDelete(store, store->Intern(del));
    // Root-selecting delete: both factories must reject it (the root check
    // is stable under minimization — a minimized root output is still the
    // root).
    ASSERT_EQ(by_value_op.ok(), by_ref_op.ok()) << c.del;
    if (!by_value_op.ok()) continue;
    Result<ConflictReport> by_value = Detect(read, *by_value_op);
    Result<ConflictReport> by_ref =
        Detect(*store, store->Intern(read), *by_ref_op);
    ExpectSameReport(by_value, by_ref,
                     std::string(c.read) + " vs delete " + c.del);
  }
}

TEST(DetectorFacadeTest, RandomizedSweepAgrees) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  Rng rng(424242);
  PatternGenOptions options;
  options.size = 3;
  options.branch_prob = 0.4;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b"),
                      symbols->Intern("c")};
  RandomPatternGenerator gen(symbols, options);
  DetectorOptions detector_options;
  detector_options.search.max_nodes = 4;

  for (int iter = 0; iter < 30; ++iter) {
    const bool linear_read = iter % 2 == 0;
    const Pattern read =
        linear_read ? gen.GenerateLinear(&rng) : gen.GenerateBranching(&rng);
    const Pattern update = gen.GenerateLinear(&rng);
    Tree x(symbols);
    x.CreateRoot(options.alphabet[rng.NextBounded(3)]);
    auto content = std::make_shared<const Tree>(CopyTree(x));
    UpdateOp op = UpdateOp::MakeInsert(update, content);
    Result<ConflictReport> by_value = Detect(read, op, detector_options);
    Result<ConflictReport> by_ref = Detect(*store, store->Intern(read),
                                           op.Bind(store), detector_options);
    if (linear_read) {
      // Linear patterns are fixpoints of minimization (their only leaf is
      // the output), so the two paths run the identical algorithm.
      ExpectSameReport(by_value, by_ref, "iter " + std::to_string(iter));
      continue;
    }
    // Branching reads may *shrink* under minimization — e.g. to a linear
    // pattern, upgrading the ref path from the budgeted bounded search to
    // the complete PTIME algorithm. The ref verdict may therefore be
    // strictly more precise, but definitive verdicts must never disagree.
    ASSERT_EQ(by_value.ok(), by_ref.ok()) << "iter " << iter;
    if (!by_value.ok()) continue;
    if (by_value->verdict != ConflictVerdict::kUnknown &&
        by_ref->verdict != ConflictVerdict::kUnknown) {
      EXPECT_EQ(by_value->verdict, by_ref->verdict) << "iter " << iter;
    }
  }
}

TEST(DetectorFacadeTest, BindPreservesOpSemantics) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  UpdateOp op = UpdateOp::MakeInsert(
      Xp("a//b", symbols),
      std::make_shared<const Tree>(Xml("<c/>", symbols)));
  UpdateOp bound = op.Bind(store);
  EXPECT_TRUE(bound.pattern_ref().valid());
  EXPECT_EQ(bound.pattern_store(), store.get());
  EXPECT_EQ(bound.kind(), UpdateOp::Kind::kInsert);
  EXPECT_EQ(bound.shared_content().get(), op.shared_content().get());
  // Binding again onto the same store reuses the ref.
  EXPECT_EQ(bound.Bind(store).pattern_ref(), bound.pattern_ref());
  // Unbound ops report no store and an invalid ref.
  EXPECT_EQ(op.pattern_store(), nullptr);
  EXPECT_FALSE(op.pattern_ref().valid());
}

TEST(DetectorFacadeTest, RebindingOntoItsOwnStoreTouchesNoStore) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const UpdateOp bound =
      UpdateOp::MakeDelete(Xp("a/b[c]", symbols)).value().Bind(store);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t hits_before = reg.GetCounter("pattern_store.hits").value();
  const uint64_t misses_before =
      reg.GetCounter("pattern_store.misses").value();
  const UpdateOp again = bound.Bind(store);
  EXPECT_EQ(again.pattern_ref(), bound.pattern_ref());
  EXPECT_EQ(again.pattern_store(), store.get());
  EXPECT_EQ(reg.GetCounter("pattern_store.hits").value(), hits_before);
  EXPECT_EQ(reg.GetCounter("pattern_store.misses").value(), misses_before);
  // Another store still interns the pattern.
  auto other = std::make_shared<PatternStore>(symbols);
  EXPECT_EQ(bound.Bind(other).pattern_store(), other.get());
  EXPECT_EQ(reg.GetCounter("pattern_store.misses").value(),
            misses_before + 1);
}

TEST(DetectorFacadeTest, DetectReportsVerdictAndMethodCounters) {
  auto symbols = NewSymbols();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t calls_before = reg.GetCounter("detector.calls").value();
  const uint64_t linear_before =
      reg.GetCounter("detector.dispatch.linear").value();
  const uint64_t conflict_before =
      reg.GetCounter("detector.verdict.conflict").value();

  Result<ConflictReport> r = Detect(
      Xp("x//C", symbols),
      UpdateOp::MakeInsert(Xp("x/B", symbols),
                           std::make_shared<const Tree>(Xml("<C/>", symbols))));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->verdict, ConflictVerdict::kConflict);

  EXPECT_EQ(reg.GetCounter("detector.calls").value(), calls_before + 1);
  EXPECT_EQ(reg.GetCounter("detector.dispatch.linear").value(),
            linear_before + 1);
  EXPECT_EQ(reg.GetCounter("detector.verdict.conflict").value(),
            conflict_before + 1);
}

}  // namespace
}  // namespace xmlup
