#include "conflict/detector.h"

#include <set>

#include "common/random.h"
#include "conflict/update_independence.h"
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

/// Facade helpers: build the UpdateOp inline so each test reads like the
/// old two-entry-point API.
Result<ConflictReport> DetectInsert(const Pattern& read,
                                    const Pattern& insert_pattern,
                                    const Tree& inserted,
                                    const DetectorOptions& options = {}) {
  return Detect(read,
                UpdateOp::MakeInsert(
                    insert_pattern,
                    std::make_shared<const Tree>(CopyTree(inserted))),
                options);
}

Result<ConflictReport> DetectDelete(const Pattern& read,
                                    const Pattern& delete_pattern,
                                    const DetectorOptions& options = {}) {
  XMLUP_ASSIGN_OR_RETURN(UpdateOp update, UpdateOp::MakeDelete(delete_pattern));
  return Detect(read, update, options);
}

class DetectorTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(DetectorTest, VerdictNames) {
  EXPECT_EQ(ConflictVerdictName(ConflictVerdict::kConflict), "conflict");
  EXPECT_EQ(ConflictVerdictName(ConflictVerdict::kNoConflict), "no-conflict");
  EXPECT_EQ(ConflictVerdictName(ConflictVerdict::kUnknown), "unknown");
}

TEST_F(DetectorTest, MethodNames) {
  EXPECT_EQ(DetectorMethodName(DetectorMethod::kLinearPtime), "linear-ptime");
  EXPECT_EQ(DetectorMethodName(DetectorMethod::kMainlineHeuristic),
            "mainline-heuristic");
  EXPECT_EQ(DetectorMethodName(DetectorMethod::kBoundedSearch),
            "bounded-search");
  EXPECT_EQ(DetectorMethodName(DetectorMethod::kLeafPathCertificate),
            "leaf-path-certificate");
  EXPECT_EQ(DetectorMethodName(DetectorMethod::kLeafPathWitness),
            "leaf-path-witness");
}

TEST_F(DetectorTest, LinearReadUsesPtimePath) {
  Tree x = Xml("<C/>", symbols_);
  Result<ConflictReport> r =
      DetectInsert(Xp("x//C", symbols_), Xp("x/B", symbols_), x);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ConflictVerdict::kConflict);
  EXPECT_EQ(r->trees_checked, 0u);
  EXPECT_EQ(r->method, DetectorMethod::kLinearPtime);
  ASSERT_TRUE(r->witness.has_value());
}

TEST_F(DetectorTest, LinearReadNoConflictIsDefinitive) {
  Tree x = Xml("<C/>", symbols_);
  Result<ConflictReport> r =
      DetectInsert(Xp("x//D", symbols_), Xp("x/B", symbols_), x);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ConflictVerdict::kNoConflict);
}

TEST_F(DetectorTest, BranchingReadFallsBackToSearch) {
  // read a[.//c] against a delete of a/b[c] — branching (output at root
  // with a predicate). The leaf path a//c conflicts, but its witness
  // carries the delete's branch model [c] under every node, a included,
  // so a keeps a c after the delete and no extension of it witnesses the
  // full read. Only the search finds <a><b><c/></b></a>.
  DetectorOptions options;
  options.search.max_nodes = 3;
  Result<ConflictReport> r =
      DetectDelete(Xp("a[.//c]", symbols_), Xp("a/b[c]", symbols_), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ConflictVerdict::kConflict);
  EXPECT_EQ(r->method, DetectorMethod::kBoundedSearch);
  EXPECT_GT(r->trees_checked, 0u);
}

TEST_F(DetectorTest, BranchingReadWitnessBuiltFromItsConflictingLeafPath) {
  // read a[c] against an insert of <c/> at a: the mainline a never loses
  // or gains a result, but the leaf path a/c gains one, and its witness,
  // checked against the full read, shows a becoming a result.
  const Pattern read = Xp("a[c]", symbols_);
  const Pattern insert = Xp("a", symbols_);
  Tree x = Xml("<c/>", symbols_);
  for (bool build_witness : {true, false}) {
    DetectorOptions options;
    options.build_witness = build_witness;
    Result<ConflictReport> r = DetectInsert(read, insert, x, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, ConflictVerdict::kConflict);
    EXPECT_EQ(r->method, DetectorMethod::kLeafPathWitness);
    EXPECT_EQ(r->trees_checked, 0u);
    // Like the heuristic's, the stage's report carries the tree it
    // verified whatever build_witness says.
    ASSERT_TRUE(r->witness.has_value());
    EXPECT_TRUE(IsReadInsertWitness(read, insert, x, *r->witness,
                                    ConflictSemantics::kNode));
  }
}

/// Every Detect call lands in one outcome counter, and every leaf-path
/// witness in the stage's method counter.
TEST_F(DetectorTest, LeafPathWitnessIsCounted) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto counter = [&](const char* name) {
    return reg.GetCounter(name).value();
  };
  const char* const names[] = {
      "detector.calls", "detector.verdict.conflict",
      "detector.verdict.no_conflict", "detector.verdict.unknown",
      "detector.errors", "detector.method.leaf_path_witness"};
  uint64_t before[6];
  for (size_t i = 0; i < 6; ++i) before[i] = counter(names[i]);
  DetectorOptions options;
  options.search.max_nodes = 3;
  size_t witnessed = 0;
  for (const char* read : {"a[b]", "a[c]/b", "a[.//c]", "a[b][c]", "a//b"}) {
    for (const char* del : {"a/b", "a/b[c]", "a//c"}) {
      Result<ConflictReport> r =
          DetectDelete(Xp(read, symbols_), Xp(del, symbols_), options);
      ASSERT_TRUE(r.ok()) << r.status();
      witnessed += r->method == DetectorMethod::kLeafPathWitness;
    }
  }
  uint64_t delta[6];
  for (size_t i = 0; i < 6; ++i) delta[i] = counter(names[i]) - before[i];
  EXPECT_GT(witnessed, 0u);
  EXPECT_EQ(delta[5], witnessed);
  EXPECT_EQ(delta[0], 15u);
  EXPECT_EQ(delta[0], delta[1] + delta[2] + delta[3] + delta[4]);
}

/// A branching pair only the bounded search can settle: read a[b]/c
/// against an insert of <b/> at a[b]. The leaf path a/b conflicts with
/// the insert (a new b child), so the leaf-path certificate cannot apply,
/// yet the read never changes — the insert fires only where the predicate
/// [b] already holds. Paper bound |R|·|I|·(k+1) = 3·2·1 = 6. Checks that
/// the search decides the pair, as `verdict`, under all three semantics.
void ExpectSearchDecides(const std::shared_ptr<SymbolTable>& symbols,
                         const BoundedSearchOptions& search,
                         ConflictVerdict verdict) {
  for (ConflictSemantics semantics :
       {ConflictSemantics::kNode, ConflictSemantics::kTree,
        ConflictSemantics::kValue}) {
    DetectorOptions options;
    options.semantics = semantics;
    options.search = search;
    Result<ConflictReport> r =
        DetectInsert(Xp("a[b]/c", symbols), Xp("a[b]", symbols),
                     Xml("<b/>", symbols), options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->method, DetectorMethod::kBoundedSearch)
        << ConflictSemanticsName(semantics);
    EXPECT_EQ(r->verdict, verdict) << ConflictSemanticsName(semantics);
  }
}

TEST_F(DetectorTest, BranchingReadUnknownWhenBudgetTooSmall) {
  // A conflict-free branching instance whose paper bound (6) exceeds the
  // searched size: the detector must say Unknown, not NoConflict.
  ExpectSearchDecides(symbols_, {.max_nodes = 5}, ConflictVerdict::kUnknown);
}

TEST_F(DetectorTest, BranchingReadNoConflictWhenPaperBoundCovered) {
  // The same instance with max_nodes = 6, the paper bound: the exhaustive
  // search is complete and proves no-conflict.
  ExpectSearchDecides(symbols_, {.max_nodes = 6},
                      ConflictVerdict::kNoConflict);
}

TEST_F(DetectorTest, TruncatedSearchNeverReportsNoConflict) {
  // Regression (soundness audit): when the enumerator's shape cap stops
  // generation (TreeEnumerator::truncated()) and no witness was found,
  // the verdict must be kUnknown — a partial enumeration proves nothing,
  // even when max_nodes covers the paper bound. Same conflict-free
  // instance as BranchingReadNoConflictWhenPaperBoundCovered, but with a
  // max_trees cap tiny enough to force truncation.
  ExpectSearchDecides(symbols_, {.max_nodes = 6, .max_trees = 3},
                      ConflictVerdict::kUnknown);
}

TEST_F(DetectorTest, MainlineHeuristicFindsBranchingConflicts) {
  // read a[q]//b — branching, but its mainline a//b conflicts with the
  // delete, and grafting a q-model satisfies the predicate: the heuristic
  // should answer without entering the exponential search.
  Pattern read = Xp("a[q]//b", symbols_);
  ASSERT_FALSE(read.IsLinear());
  Result<ConflictReport> r =
      DetectDelete(read, Xp("a//c", symbols_));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ConflictVerdict::kConflict);
  EXPECT_EQ(r->method, DetectorMethod::kMainlineHeuristic);
  EXPECT_EQ(r->trees_checked, 0u);
  ASSERT_TRUE(r->witness.has_value());
  EXPECT_TRUE(IsReadDeleteWitness(read, Xp("a//c", symbols_), *r->witness,
                                  ConflictSemantics::kNode));
}

TEST_F(DetectorTest, MainlineHeuristicForInsert) {
  Pattern read = Xp("x[p]//C", symbols_);
  Tree content = Xml("<C/>", symbols_);
  Result<ConflictReport> r =
      DetectInsert(read, Xp("x/B", symbols_), content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ConflictVerdict::kConflict);
  EXPECT_EQ(r->method, DetectorMethod::kMainlineHeuristic);
  ASSERT_TRUE(r->witness.has_value());
  EXPECT_TRUE(IsReadInsertWitness(read, Xp("x/B", symbols_), content,
                                  *r->witness, ConflictSemantics::kNode));
}

TEST_F(DetectorTest, ReadDeleteDispatch) {
  Result<ConflictReport> conflict =
      DetectDelete(Xp("a//b", symbols_), Xp("a//c", symbols_));
  ASSERT_TRUE(conflict.ok());
  EXPECT_EQ(conflict->verdict, ConflictVerdict::kConflict);
  ASSERT_TRUE(conflict->witness.has_value());
  EXPECT_TRUE(IsReadDeleteWitness(Xp("a//b", symbols_), Xp("a//c", symbols_),
                                  *conflict->witness,
                                  ConflictSemantics::kNode));

  Result<ConflictReport> clean =
      DetectDelete(Xp("a/b", symbols_), Xp("a/c", symbols_));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->verdict, ConflictVerdict::kNoConflict);
}

TEST_F(DetectorTest, ReadDeleteRejectsRootDeletion) {
  EXPECT_FALSE(
      DetectDelete(Xp("a/b", symbols_), Xp("a", symbols_)).ok());
}

TEST_F(DetectorTest, SemanticsFlowThrough) {
  DetectorOptions options;
  options.semantics = ConflictSemantics::kTree;
  Result<ConflictReport> r =
      DetectDelete(Xp("a/b", symbols_), Xp("a/b/c", symbols_), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, ConflictVerdict::kConflict);
  // Node semantics: no conflict for the same pair.
  Result<ConflictReport> node =
      DetectDelete(Xp("a/b", symbols_), Xp("a/b/c", symbols_));
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->verdict, ConflictVerdict::kNoConflict);
}

/// The value facade interns its operands into a call-local store, so it
/// rejects what a store cannot hold — an empty pattern, operands from
/// different SymbolTables — as counted InvalidArgument errors instead of
/// aborting (or, across tables, comparing unrelated label ids).
TEST_F(DetectorTest, ValueFacadeRejectsInvalidOperands) {
  obs::Counter& errors =
      obs::MetricsRegistry::Default().GetCounter("detector.errors");
  auto other = NewSymbols();
  auto content = std::make_shared<const Tree>(Xml("<b/>", symbols_));
  auto foreign_content = std::make_shared<const Tree>(Xml("<b/>", other));
  const Pattern read = Xp("a//b", symbols_);
  const Pattern empty(symbols_);
  const UpdateOp insert = UpdateOp::MakeInsert(Xp("a", symbols_), content);

  struct Case {
    const char* what;
    Pattern read;
    UpdateOp update;
  };
  const Case cases[] = {
      {"empty read", empty, insert},
      {"empty update pattern", read, UpdateOp::MakeInsert(empty, content)},
      {"read from another table", Xp("a//b", other), insert},
      {"insert pattern from another table", read,
       UpdateOp::MakeInsert(Xp("a", other), content)},
      {"delete pattern from another table", read,
       UpdateOp::MakeDelete(Xp("a/b", other)).value()},
      {"insert content from another table", read,
       UpdateOp::MakeInsert(Xp("a", symbols_), foreign_content)},
  };
  for (const Case& c : cases) {
    const uint64_t errors_before = errors.value();
    Result<ConflictReport> report = Detect(c.read, c.update);
    ASSERT_FALSE(report.ok()) << c.what;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_EQ(errors.value() - errors_before, 1u) << c.what;
  }
  // Valid operands still detect.
  Result<ConflictReport> ok = Detect(read, insert);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->verdict, ConflictVerdict::kConflict);
}

/// Soundness sweep for the branching-read dispatch (heuristic + bounded
/// search): a Conflict verdict always carries a verifiable witness, and a
/// NoConflict verdict is never contradicted by the exhaustive oracle.
class DetectorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DetectorPropertyTest, BranchingReadDispatchIsSound) {
  auto symbols = NewSymbols();
  Rng rng(80000 + GetParam());
  PatternGenOptions options;
  options.size = 3;
  options.branch_prob = 0.7;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);

  DetectorOptions detector_options;
  detector_options.search.max_nodes = 4;

  for (int iter = 0; iter < 8; ++iter) {
    const Pattern read = gen.GenerateBranching(&rng);
    const Pattern ins = gen.GenerateLinear(&rng);
    Tree x(symbols);
    x.CreateRoot(options.alphabet[rng.NextBounded(2)]);

    Result<ConflictReport> report =
        DetectInsert(read, ins, x, detector_options);
    ASSERT_TRUE(report.ok()) << report.status();
    if (report->verdict == ConflictVerdict::kConflict) {
      ASSERT_TRUE(report->witness.has_value());
      EXPECT_TRUE(IsReadInsertWitness(read, ins, x, *report->witness,
                                      ConflictSemantics::kNode))
          << "seed=" << GetParam() << " iter=" << iter
          << " method=" << DetectorMethodName(report->method);
    } else {
      // The oracle over the same (or smaller) space must agree.
      BoundedSearchOptions search;
      search.max_nodes = 4;
      const BruteForceResult brute = BruteForceReadInsertSearch(
          read, ins, x, ConflictSemantics::kNode, search);
      EXPECT_NE(brute.outcome, SearchOutcome::kWitnessFound)
          << "detector said " << ConflictVerdictName(report->verdict)
          << " but a small witness exists; seed=" << GetParam()
          << " iter=" << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DetectorPropertyTest, ::testing::Range(0, 8));

/// Witness constructions take their labels from the table's reserved pool:
/// after one pass over every witness-building path (linear read-insert and
/// read-delete witnesses with their Lemma 2 fallbacks, the mainline
/// heuristic, the leaf-path witness, the bounded search, commutativity
/// certificates; value and interned reads alike), repeating the pass leaves
/// the table as it is.
TEST_F(DetectorTest, RepeatedWitnessBuildsLeaveTheSymbolTableFlat) {
  auto store = std::make_shared<PatternStore>(symbols_);
  std::vector<Pattern> reads;
  // a[.//c] against the delete a/b[c] is a conflict only the bounded
  // search witnesses (BranchingReadFallsBackToSearch).
  for (const char* x : {"a/b", "a//b", "a/*/c", "a//b/c", "*//*", "a/b/*",
                        "a[c]/b", "a[.//c]//b", "a/b[c]", "a[b][c]",
                        "a[.//c]"}) {
    reads.push_back(Xp(x, symbols_));
  }
  std::vector<UpdateOp> updates;
  // "a/*[b]" with <b/> under value semantics reaches the Lemma 2 fallback
  // of the read-insert cut-edge witness (for the read a//b).
  for (const char* x : {"a/b", "a//b", "a/*", "a", "a/*[b]"}) {
    for (const char* content : {"<b><c/></b>", "<c/>", "<b/>"}) {
      updates.push_back(UpdateOp::MakeInsert(
          Xp(x, symbols_),
          std::make_shared<const Tree>(Xml(content, symbols_))));
    }
  }
  for (const char* x : {"a/b", "a//c", "a/b[c]", "a/*", "*/*//b"}) {
    updates.push_back(UpdateOp::MakeDelete(Xp(x, symbols_)).value());
  }
  std::set<DetectorMethod> witnessed;
  size_t certified = 0;
  const auto pass = [&] {
    for (ConflictSemantics semantics :
         {ConflictSemantics::kNode, ConflictSemantics::kTree,
          ConflictSemantics::kValue}) {
      DetectorOptions options;
      options.semantics = semantics;
      options.search.max_nodes = 4;
      for (const Pattern& read : reads) {
        const PatternRef ref = store->Intern(read);
        for (const UpdateOp& update : updates) {
          for (const Result<ConflictReport>& report :
               {Detect(read, update, options),
                Detect(*store, ref, update.Bind(store), options)}) {
            ASSERT_TRUE(report.ok()) << report.status();
            if (report->witness.has_value()) witnessed.insert(report->method);
          }
        }
      }
      for (const UpdateOp& a : updates) {
        for (const UpdateOp& b : updates) {
          Result<IndependenceReport> report =
              CertifyUpdatesCommute(a, b, options);
          ASSERT_TRUE(report.ok()) << report.status();
          certified +=
              report->certificate == CommutativityCertificate::kCertified;
        }
      }
    }
  };
  pass();
  const size_t size = symbols_->size();
  pass();
  pass();
  EXPECT_EQ(symbols_->size(), size);
  EXPECT_EQ(witnessed, (std::set<DetectorMethod>{
                           DetectorMethod::kLinearPtime,
                           DetectorMethod::kMainlineHeuristic,
                           DetectorMethod::kBoundedSearch,
                           DetectorMethod::kLeafPathWitness}));
  EXPECT_GT(certified, 0u);
}

}  // namespace
}  // namespace xmlup
