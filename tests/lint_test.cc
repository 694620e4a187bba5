#include "analysis/lint.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/program_parser.h"
#include "common/random.h"
#include "conflict/detector.h"
#include "dtd/dtd.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "workload/program_generator.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class LintTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  std::shared_ptr<const Tree> Content(const char* xml) {
    return std::make_shared<const Tree>(Xml(xml, symbols_));
  }

  /// Lint options whose detector runs under `schema`, parsed on `symbols`.
  static LintOptions WithSchema(const char* schema,
                                const std::shared_ptr<SymbolTable>& symbols) {
    LintOptions options;
    options.batch.detector.dtd =
        std::make_shared<const Dtd>(Dtd::Parse(schema, symbols).value());
    return options;
  }

  /// y = read a[b]/c; insert <b/> at a[b]; z = read a[b]/c — a branching
  /// (read, insert) pair that only the bounded search decides.
  Program SearchOnlyProgram() {
    Program program;
    program.AddRead("y", "x", Xp("a[b]/c", symbols_));
    program.AddInsert("x", Xp("a[b]", symbols_), Content("<b/>"));
    program.AddRead("z", "x", Xp("a[b]/c", symbols_));
    return program;
  }

  /// The program's (read, insert) pair reaches the bounded search under
  /// `options` and gets `verdict` there.
  void ExpectSearchDecides(const LintOptions& options,
                           ConflictVerdict verdict) {
    const Result<ConflictReport> report =
        Detect(Xp("a[b]/c", symbols_),
               UpdateOp::MakeInsert(Xp("a[b]", symbols_), Content("<b/>")),
               options.batch.detector);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->method, DetectorMethod::kBoundedSearch);
    EXPECT_EQ(report->verdict, verdict);
  }

  std::vector<const Diagnostic*> ByRule(const LintResult& result,
                                        LintRule rule) {
    std::vector<const Diagnostic*> out;
    for (const Diagnostic& d : result.diagnostics) {
      if (d.rule == rule) out.push_back(&d);
    }
    return out;
  }
};

TEST_F(LintTest, CleanProgramHasOnlyPartitionReport) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddInsert("x", Xp("a/c", symbols_), Content("<d/>"));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, LintRule::kParallelPartition);
  EXPECT_FALSE(result.HasErrors());
  // read a/b and insert at a/c don't conflict → both fit in one batch.
  EXPECT_EQ(result.partition.width, 2u);
}

TEST_F(LintTest, DeadReadDetectedWithRemoveFixIt) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddRead("y", "x", Xp("a/c", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto dead = ByRule(result, LintRule::kDeadRead);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0]->statements, (std::vector<size_t>{0, 1}));
  ASSERT_TRUE(dead[0]->fixit.has_value());
  EXPECT_EQ(dead[0]->fixit->kind, LintFixIt::Kind::kRemoveStatement);
  EXPECT_EQ(dead[0]->fixit->statement, 0u);

  Result<Program> fixed = ApplyLintFixIt(program, *dead[0]->fixit);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->size(), 1u);
}

TEST_F(LintTest, LastReadOfVariableIsNotDead) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddRead("z", "x", Xp("a/c", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kDeadRead).empty());
}

TEST_F(LintTest, RedundantReadDetectedWithAliasFixIt) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddInsert("x", Xp("a/c", symbols_), Content("<d/>"));  // no conflict
  program.AddRead("z", "x", Xp("a/b", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto cse = ByRule(result, LintRule::kRedundantRead);
  ASSERT_EQ(cse.size(), 1u);
  EXPECT_EQ(cse[0]->statements, (std::vector<size_t>{2, 0}));
  ASSERT_TRUE(cse[0]->fixit.has_value());
  EXPECT_EQ(cse[0]->fixit->kind, LintFixIt::Kind::kAliasRead);
  EXPECT_EQ(cse[0]->fixit->statement, 2u);
  EXPECT_EQ(cse[0]->fixit->alias_of, 0u);

  Result<Program> fixed = ApplyLintFixIt(program, *cse[0]->fixit);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->statements()[2].alias_of, std::optional<size_t>(0));
}

TEST_F(LintTest, ConflictingUpdateBlocksRedundantRead) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddInsert("x", Xp("a/b", symbols_), Content("<d/>"));  // tree conflict
  program.AddRead("z", "x", Xp("a/b", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kRedundantRead).empty());
}

TEST_F(LintTest, ShadowedUpdateDetected) {
  Program program;
  program.AddInsert("x", Xp("a", symbols_), Content("<b/>"));
  program.AddDelete("x", Xp("a/b", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto shadowed = ByRule(result, LintRule::kShadowedUpdate);
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->statements, (std::vector<size_t>{0, 1}));
  ASSERT_TRUE(shadowed[0]->fixit.has_value());
  EXPECT_EQ(shadowed[0]->fixit->statement, 0u);
}

TEST_F(LintTest, InterveningReadBlocksShadowedUpdate) {
  Program program;
  program.AddInsert("x", Xp("a", symbols_), Content("<b/>"));
  program.AddRead("y", "x", Xp("a/b", symbols_));  // observes the insert
  program.AddDelete("x", Xp("a/b", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kShadowedUpdate).empty());
}

TEST_F(LintTest, WildcardDeleteDoesNotShadow) {
  // q = //b has a wildcard root: the insert could enable new q-matches on
  // pre-existing nodes, so the conservative pass stays silent.
  Program program;
  program.AddInsert("x", Xp("a", symbols_), Content("<b/>"));
  program.AddDelete("x", Xp("//b", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kShadowedUpdate).empty());
}

TEST_F(LintTest, NonCoveringDeleteDoesNotShadow) {
  Program program;
  program.AddInsert("x", Xp("a", symbols_), Content("<b/>"));
  program.AddDelete("x", Xp("a/c", symbols_));  // deletes c's, not b's
  const Linter linter;
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kShadowedUpdate).empty());
}

TEST_F(LintTest, UpdateRaceForNonCommutingPair) {
  Program program;
  program.AddInsert("x", Xp("a", symbols_), Content("<b/>"));
  program.AddInsert("x", Xp("a/b", symbols_), Content("<c/>"));  // enabled by 0
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto races = ByRule(result, LintRule::kUpdateRace);
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0]->statements, (std::vector<size_t>{0, 1}));
  // The pair must also be ordered by the partitioner.
  EXPECT_EQ(result.partition.batches.size(), 2u);
}

TEST_F(LintTest, NoUpdateRaceForCertifiedPair) {
  Program program;
  program.AddInsert("x", Xp("a/x", symbols_), Content("<m/>"));
  program.AddInsert("x", Xp("a/y", symbols_), Content("<n/>"));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kUpdateRace).empty());
  EXPECT_EQ(result.partition.width, 2u);
}

TEST_F(LintTest, DtdViolationForForbiddenChild) {
  const LintOptions options =
      WithSchema("allow book : title author\n", symbols_);
  Program program;
  program.AddInsert("x", Xp("catalog/book", symbols_), Content("<price/>"));
  const Linter linter(options);
  const LintResult result = linter.Lint(program);
  const auto violations = ByRule(result, LintRule::kDtdViolation);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0]->severity, LintSeverity::kError);
  EXPECT_TRUE(result.HasErrors());
}

TEST_F(LintTest, DtdViolationForMissingRequiredChild) {
  const LintOptions options = WithSchema("require book : title\n", symbols_);
  Program program;
  program.AddInsert("x", Xp("catalog", symbols_),
                    Content("<book><author/></book>"));
  const Linter linter(options);
  const LintResult result = linter.Lint(program);
  EXPECT_EQ(ByRule(result, LintRule::kDtdViolation).size(), 1u);
}

TEST_F(LintTest, DtdConformingInsertIsClean) {
  const LintOptions options = WithSchema(
      "allow book : title author\nrequire book : title\n", symbols_);
  Program program;
  program.AddInsert("x", Xp("catalog", symbols_),
                    Content("<book><title/></book>"));
  const Linter linter(options);
  const LintResult result = linter.Lint(program);
  EXPECT_TRUE(ByRule(result, LintRule::kDtdViolation).empty());
}

TEST_F(LintTest, DtdOnAnotherSymbolTableIsReportedNotCompared) {
  // The same forbidden-child insert as above, with the schema parsed on a
  // fresh table: its label ids mean nothing on the program's table, so
  // lint says once that the program cannot be checked instead of
  // comparing them.
  Program program;
  program.AddInsert("x", Xp("catalog/book", symbols_), Content("<price/>"));
  program.AddInsert("x", Xp("catalog", symbols_), Content("<book/>"));
  const LintResult result =
      Linter(WithSchema("allow book : title author\n", NewSymbols()))
          .Lint(program);
  const auto violations = ByRule(result, LintRule::kDtdViolation);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0]->statements.empty());
  EXPECT_NE(violations[0]->message.find("cannot be checked"),
            std::string::npos)
      << violations[0]->message;
  EXPECT_TRUE(result.HasErrors());
}

TEST_F(LintTest, SchemaOnAnotherSymbolTableNeverLicensesAFixIt) {
  // The schema's table interned c and d before r, so its labels disagree
  // with the program's. Stage 0 must not compare them: the delete really
  // changes what z reads, so aliasing z to y, or running all three
  // statements in one batch, would change the program's meaning.
  Program program;
  program.AddRead("y", "x", Xp("r/c", symbols_));
  program.AddDelete("x", Xp("r/c", symbols_));
  program.AddRead("z", "x", Xp("r/c", symbols_));
  const std::shared_ptr<SymbolTable> foreign = NewSymbols();
  foreign->Intern("c");
  foreign->Intern("d");
  const LintResult linted =
      Linter(WithSchema("root r\nallow r : c d\nseal c\nseal d\n", foreign))
          .Lint(program);
  EXPECT_TRUE(ByRule(linted, LintRule::kRedundantRead).empty());
  EXPECT_EQ(linted.partition.width, 1u);
}

TEST_F(LintTest, ASecondSchemaOnASharedStoreNeverLicensesAFixIt) {
  // Under the first schema `a` is a sealed leaf, so the delete never
  // reaches below r/a: v may alias u and all three statements share one
  // batch. Under the second, `a` may hold b children and the delete
  // changes what v reads. A store serving the first schema's footprints
  // under the second would give the second lint the first one's answer;
  // the store rejects the second schema pair by pair instead, and every
  // rejected pair stays a dependence.
  Program program;
  program.AddRead("u", "x", Xp("r/a", symbols_));
  program.AddDelete("x", Xp("r//b", symbols_));
  program.AddRead("v", "x", Xp("r/a", symbols_));
  const char* const kLeaf = "root r\nallow r : a b\nseal a\nseal b\n";
  const char* const kNested = "root r\nallow r : a b\nallow a : b\nseal b\n";
  auto store = std::make_shared<PatternStore>(symbols_);
  auto lint_under = [&](const char* schema,
                        std::shared_ptr<PatternStore> shared) {
    LintOptions options = WithSchema(schema, symbols_);
    options.batch.store = std::move(shared);
    return Linter(options).Lint(program);
  };

  const LintResult first = lint_under(kLeaf, store);
  EXPECT_EQ(ByRule(first, LintRule::kRedundantRead).size(), 1u);
  EXPECT_EQ(first.partition.width, 3u);
  const LintResult second = lint_under(kNested, store);
  EXPECT_TRUE(ByRule(second, LintRule::kRedundantRead).empty());
  EXPECT_EQ(second.partition.width, 1u);
  // The second schema on a store of its own answers the same.
  const LintResult alone = lint_under(kNested, nullptr);
  EXPECT_TRUE(ByRule(alone, LintRule::kRedundantRead).empty());
  EXPECT_EQ(alone.partition.width, 1u);
}

TEST_F(LintTest, MalformedInsertReported) {
  Program program;
  program.AddInsert("x", Xp("a", symbols_), nullptr);
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto malformed = ByRule(result, LintRule::kMalformedUpdate);
  ASSERT_EQ(malformed.size(), 1u);
  EXPECT_EQ(malformed[0]->severity, LintSeverity::kError);
}

TEST_F(LintTest, MalformedInsertBeforeReadIsReportedAndOrdered) {
  // A null-content insert followed by a read on its variable: the insert is
  // a malformed-update error and stays ordered before the read.
  Program program;
  program.AddInsert("x", Xp("x/a", symbols_), nullptr);
  program.AddRead("r", "x", Xp("x/a/b", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto malformed = ByRule(result, LintRule::kMalformedUpdate);
  ASSERT_EQ(malformed.size(), 1u);
  EXPECT_EQ(malformed[0]->statements, (std::vector<size_t>{0}));
  EXPECT_TRUE(result.HasErrors());
  EXPECT_EQ(result.stats.pairs_checked, 0u);
  EXPECT_EQ(result.partition.batches.size(), 2u);
}

TEST_F(LintTest, RootlessInsertContentIsReported) {
  Program program;
  program.AddInsert("x", Xp("a", symbols_),
                    std::make_shared<const Tree>(symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  const auto malformed = ByRule(result, LintRule::kMalformedUpdate);
  ASSERT_EQ(malformed.size(), 1u);
  EXPECT_EQ(malformed[0]->severity, LintSeverity::kError);
}

TEST_F(LintTest, OneLintSolvesEachPairOnce) {
  // Every read/update pair goes through the batch engine exactly once per
  // Lint call: the redundant-read pass reuses the lint's own graph.
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddInsert("x", Xp("a/c", symbols_), Content("<d/>"));
  program.AddRead("z", "x", Xp("a/b", symbols_));
  program.AddDelete("x", Xp("a//b", symbols_));
  program.AddRead("w", "x", Xp("a//c", symbols_));
  const obs::Counter& pairs_total =
      obs::MetricsRegistry::Default().GetCounter("batch.pairs_total");
  const Linter linter;
  const uint64_t before = pairs_total.value();
  const LintResult result = linter.Lint(program);
  EXPECT_EQ(result.stats.pairs_checked, 6u);
  EXPECT_EQ(pairs_total.value() - before, result.stats.pairs_checked);
}

/// The soundness satellite: force kUnknown via a bounded-search budget
/// below the paper bound and assert that (a) the truncation is surfaced
/// and (b) no unsafe diagnostic or fix-it is derived from the pair.
TEST_F(LintTest, TruncatedVerdictIsSurfacedAndTreatedAsDependence) {
  // Branching read a[b]/c against an insert of <b/> at a[b]: the insert
  // fires only where the predicate [b] already holds, so the read never
  // changes, but proving that needs the bounded search — the leaf path
  // a/b conflicts with the insert, so the leaf-path certificate does not
  // apply. Paper bound = |R|·|I|·(k+1) = 3·2·1 = 6; budget max_nodes=5
  // < 6 → kUnknown.
  LintOptions options;
  options.batch.detector.search.max_nodes = 5;
  const Linter linter(options);
  const LintResult result = linter.Lint(SearchOnlyProgram());
  ExpectSearchDecides(options, ConflictVerdict::kUnknown);

  // (a) surfaced, never dropped: both (read, insert) pairs truncate.
  const auto truncated = ByRule(result, LintRule::kTruncatedVerdict);
  ASSERT_EQ(truncated.size(), 2u);
  EXPECT_EQ(result.stats.unknown_verdicts, 2u);
  for (const Diagnostic* d : truncated) {
    EXPECT_EQ(d->severity, LintSeverity::kInfo);
    EXPECT_FALSE(d->fixit.has_value());
  }

  // (b) the identical reads straddle the Unknown insert — CSE must NOT
  // fire (an Unknown is a dependence), and the partitioner must keep all
  // three statements strictly ordered.
  EXPECT_TRUE(ByRule(result, LintRule::kRedundantRead).empty());
  ASSERT_EQ(result.partition.batches.size(), 3u);
  EXPECT_EQ(result.partition.width, 1u);
  // No removal/reorder fix-it exists for the truncated pairs.
  for (const Diagnostic& d : result.diagnostics) {
    if (!d.fixit.has_value()) continue;
    EXPECT_NE(d.fixit->kind, LintFixIt::Kind::kRemoveStatement);
    EXPECT_NE(d.fixit->kind, LintFixIt::Kind::kReorder);
  }
}

TEST_F(LintTest, RaisedBudgetResolvesTruncation) {
  // Same program with the budget raised to the paper bound (6): the
  // exhaustive search proves no-conflict, the truncation diagnostics
  // disappear, and CSE fires across the now-independent insert.
  LintOptions options;
  options.batch.detector.search.max_nodes = 6;
  const Linter linter(options);
  const LintResult result = linter.Lint(SearchOnlyProgram());
  ExpectSearchDecides(options, ConflictVerdict::kNoConflict);
  EXPECT_TRUE(ByRule(result, LintRule::kTruncatedVerdict).empty());
  EXPECT_EQ(ByRule(result, LintRule::kRedundantRead).size(), 1u);
}

TEST_F(LintTest, PartitionIsAPartitionAndRespectsEdges) {
  Program program;
  program.AddRead("r0", "x", Xp("a//b", symbols_));
  program.AddInsert("x", Xp("a/b", symbols_), Content("<c/>"));  // conflicts
  program.AddRead("r1", "y", Xp("a/b", symbols_));   // other variable
  program.AddRead("r0", "y", Xp("a/c", symbols_));   // WAW with stmt 0
  const Linter linter;
  const LintResult result = linter.Lint(program);

  std::set<size_t> seen;
  for (const auto& batch : result.partition.batches) {
    EXPECT_FALSE(batch.empty());
    for (size_t s : batch) EXPECT_TRUE(seen.insert(s).second);
  }
  EXPECT_EQ(seen.size(), program.size());

  auto level_of = [&](size_t s) {
    for (size_t l = 0; l < result.partition.batches.size(); ++l) {
      const auto& batch = result.partition.batches[l];
      if (std::find(batch.begin(), batch.end(), s) != batch.end()) return l;
    }
    return size_t{SIZE_MAX};
  };
  // Conflicting pair 0→1 and the r0 write-after-write 0→3 span batches.
  EXPECT_LT(level_of(0), level_of(1));
  EXPECT_LT(level_of(0), level_of(3));
  // Statement 2 (independent variable) rides in the first batch.
  EXPECT_EQ(level_of(2), 0u);
}

TEST_F(LintTest, ResultVarWawNeverReordersFinalWrite) {
  // Two reads into r0 on *different* tree variables: the dependence
  // analyzer sees no edge, but swapping them changes r0's final value.
  Program program;
  program.AddRead("r0", "x", Xp("a/b", symbols_));
  program.AddRead("r0", "y", Xp("a/c", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);
  ASSERT_EQ(result.partition.batches.size(), 2u);
  EXPECT_EQ(result.partition.batches[0], (std::vector<size_t>{0}));
  EXPECT_EQ(result.partition.batches[1], (std::vector<size_t>{1}));
}

TEST_F(LintTest, LintIsDeterministicAcrossThreadCounts) {
  Program program;
  program.AddRead("y", "x", Xp("a//b[.//c]", symbols_));
  program.AddInsert("x", Xp("a/b", symbols_), Content("<c/>"));
  program.AddDelete("x", Xp("a//c", symbols_));
  program.AddRead("z", "x", Xp("a//b[.//c]", symbols_));

  LintOptions one;
  one.batch.num_threads = 1;
  one.batch.detector.search.max_nodes = 4;
  LintOptions eight;
  eight.batch.num_threads = 8;
  eight.batch.detector.search.max_nodes = 4;
  const LintResult r1 = Linter(one).Lint(program);
  const LintResult r8 = Linter(eight).Lint(program);
  EXPECT_EQ(RenderLintJson(program, r1), RenderLintJson(program, r8));
}

TEST_F(LintTest, OutputDoesNotDependOnTheCallersWitnessSetting) {
  ProgramGenOptions program_options;
  program_options.num_statements = 8;
  program_options.pattern.size = 3;
  program_options.pattern.alphabet = {symbols_->Intern("a"),
                                      symbols_->Intern("b"),
                                      symbols_->Intern("c")};
  const RandomProgramGenerator programs(symbols_, program_options);
  LintOptions with;
  with.batch.num_threads = 1;
  with.batch.detector.search.max_nodes = 4;
  with.batch.detector.build_witness = true;
  LintOptions without = with;
  without.batch.detector.build_witness = false;
  const Linter linter_with(with);
  const Linter linter_without(without);
  Rng rng(7);
  size_t edges = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const Program program = programs.Generate(&rng);
    const LintResult result = linter_with.Lint(program);
    edges += result.stats.dependence_edges;
    EXPECT_EQ(RenderLintJson(program, result),
              RenderLintJson(program, linter_without.Lint(program)))
        << "iter " << iter;
  }
  EXPECT_GT(edges, 0u);
}

TEST_F(LintTest, ApplyFixItRejectsMismatches) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddRead("z", "x", Xp("a/b", symbols_));

  LintFixIt bad_remove;
  bad_remove.kind = LintFixIt::Kind::kRemoveStatement;
  bad_remove.statement = 7;
  EXPECT_FALSE(ApplyLintFixIt(program, bad_remove).ok());

  LintFixIt bad_alias;
  bad_alias.kind = LintFixIt::Kind::kAliasRead;
  bad_alias.statement = 0;
  bad_alias.alias_of = 1;  // alias must point backwards
  EXPECT_FALSE(ApplyLintFixIt(program, bad_alias).ok());

  LintFixIt bad_schedule;
  bad_schedule.kind = LintFixIt::Kind::kReorder;
  bad_schedule.schedule = {0, 0};  // not a permutation
  EXPECT_FALSE(ApplyLintFixIt(program, bad_schedule).ok());

  // Removing a statement that another read aliases must fail.
  Program aliased = program;
  aliased.mutable_statements()[1].alias_of = 0;
  LintFixIt remove_source;
  remove_source.kind = LintFixIt::Kind::kRemoveStatement;
  remove_source.statement = 0;
  EXPECT_FALSE(ApplyLintFixIt(aliased, remove_source).ok());
}

TEST_F(LintTest, RemoveFixItShiftsAliases) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));  // dead
  program.AddRead("y", "x", Xp("a/c", symbols_));
  program.AddRead("z", "x", Xp("a/c", symbols_));
  program.mutable_statements()[2].alias_of = 1;

  LintFixIt remove;
  remove.kind = LintFixIt::Kind::kRemoveStatement;
  remove.statement = 0;
  Result<Program> fixed = ApplyLintFixIt(program, remove);
  ASSERT_TRUE(fixed.ok());
  ASSERT_EQ(fixed->size(), 2u);
  EXPECT_EQ(fixed->statements()[1].alias_of, std::optional<size_t>(0));
}

TEST_F(LintTest, RuleTableIsCompleteAndStable) {
  for (LintRule rule : AllLintRules()) {
    const LintRuleInfo& info = GetLintRuleInfo(rule);
    EXPECT_FALSE(info.id.empty());
    EXPECT_FALSE(info.description.empty());
  }
  EXPECT_EQ(GetLintRuleInfo(LintRule::kDeadRead).id, "dead-read");
  EXPECT_EQ(GetLintRuleInfo(LintRule::kTruncatedVerdict).severity,
            LintSeverity::kInfo);
}

TEST_F(LintTest, ParseProgramRoundTripsAndTracksLines) {
  const char* source =
      "# demo\n"
      "\n"
      "y = read $x//book[.//quantity]\n"
      "insert $x/catalog, <book><title/></book>\n"
      "delete $x//book\n";
  Result<ParsedProgram> parsed = ParseProgram(source, symbols_);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->program.size(), 3u);
  EXPECT_EQ(parsed->lines, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(parsed->program.statements()[0].kind, Statement::Kind::kRead);
  EXPECT_EQ(parsed->program.statements()[0].result_var, "y");
  EXPECT_EQ(parsed->program.statements()[0].target_var, "x");
  EXPECT_EQ(parsed->program.statements()[1].kind, Statement::Kind::kInsert);
  ASSERT_NE(parsed->program.statements()[1].content, nullptr);
  EXPECT_EQ(parsed->program.statements()[2].kind, Statement::Kind::kDelete);

  // ToString output (with index prefixes) parses back to the same shape.
  Result<ParsedProgram> again =
      ParseProgram(parsed->program.ToString(), symbols_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->program.ToString(), parsed->program.ToString());
}

TEST_F(LintTest, ParseProgramRejectsBadInput) {
  EXPECT_FALSE(ParseProgram("frobnicate $x/a\n", symbols_).ok());
  EXPECT_FALSE(ParseProgram("y = read x/a\n", symbols_).ok());     // no '$'
  EXPECT_FALSE(ParseProgram("insert $x/a\n", symbols_).ok());      // no content
  EXPECT_FALSE(ParseProgram("delete $x\n", symbols_).ok());        // no xpath
  // Root-selecting deletes are rejected at parse time.
  EXPECT_FALSE(ParseProgram("delete $x/a\n", symbols_).ok());
  EXPECT_TRUE(ParseProgram("delete $x/a/b\n", symbols_).ok());
}

TEST_F(LintTest, RenderersMentionRulesAndLocations) {
  Program program;
  program.AddRead("y", "x", Xp("a/b", symbols_));
  program.AddRead("y", "x", Xp("a/c", symbols_));
  const Linter linter;
  const LintResult result = linter.Lint(program);

  const std::string text = RenderLintText(program, result);
  EXPECT_NE(text.find("dead-read"), std::string::npos);
  EXPECT_NE(text.find("program.xup:1:"), std::string::npos);
  EXPECT_NE(text.find("summary:"), std::string::npos);

  const std::string json = RenderLintJson(program, result);
  EXPECT_NE(json.find("\"rule\":\"dead-read\""), std::string::npos);
  EXPECT_NE(json.find("\"partition\""), std::string::npos);

  const std::string sarif = RenderLintSarif(program, result);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"dead-read\""), std::string::npos);

  // Custom line table shifts reported locations.
  const std::vector<int> lines = {10, 20};
  LintRenderOptions render;
  render.artifact_uri = "demo.xup";
  render.lines = &lines;
  const std::string mapped = RenderLintText(program, result, render);
  EXPECT_NE(mapped.find("demo.xup:10:"), std::string::npos);
}

}  // namespace
}  // namespace xmlup
