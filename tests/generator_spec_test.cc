#include "workload/generator_spec.h"

#include <memory>
#include <string>

#include "common/json.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/symbol_table.h"

namespace xmlup {
namespace workload {
namespace {

GeneratorSpec ParseSpec(const std::string& text) {
  Result<JsonValue> json = ParseJson(text);
  EXPECT_TRUE(json.ok()) << json.status();
  Result<GeneratorSpec> spec = GeneratorSpec::FromJson(*json);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

TEST(GeneratorSpecTest, DefaultsMatchOptionStructs) {
  // An empty JSON object parses to the exact struct defaults: the spec
  // layer adds no second source of truth for default values.
  const GeneratorSpec parsed = ParseSpec("{}");
  EXPECT_EQ(parsed, GeneratorSpec());
  const GeneratorSpec defaults;
  EXPECT_EQ(parsed.tree.target_size, defaults.tree.target_size);
  EXPECT_EQ(parsed.pattern.size, defaults.pattern.size);
}

TEST(GeneratorSpecTest, RoundTripIsIdentity) {
  GeneratorSpec spec;
  spec.alphabet_size = 5;
  spec.tree.target_size = 64;
  spec.tree.max_children = 6;
  spec.pattern.size = 7;
  spec.pattern.wildcard_prob = 0.5;
  spec.pattern.descendant_prob = 0.25;
  spec.pattern.branch_prob = 0.0625;

  Result<GeneratorSpec> reparsed = GeneratorSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, spec);
  // And once more through text (writer → parser).
  Result<JsonValue> json = ParseJson(WriteJson(spec.ToJson()));
  ASSERT_TRUE(json.ok());
  Result<GeneratorSpec> from_text = GeneratorSpec::FromJson(*json);
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(*from_text, spec);
}

TEST(GeneratorSpecTest, PartialSpecKeepsOtherDefaults) {
  const GeneratorSpec spec =
      ParseSpec(R"({"pattern": {"size": 9}, "alphabet_size": 2})");
  EXPECT_EQ(spec.alphabet_size, 2u);
  EXPECT_EQ(spec.pattern.size, 9u);
  const GeneratorSpec defaults;
  EXPECT_EQ(spec.pattern.wildcard_prob, defaults.pattern.wildcard_prob);
  EXPECT_EQ(spec.tree.target_size, defaults.tree.target_size);
}

TEST(GeneratorSpecTest, RejectsUnknownAndInvalidFields) {
  auto fails = [](const std::string& text) {
    Result<JsonValue> json = ParseJson(text);
    EXPECT_TRUE(json.ok()) << json.status();
    return !GeneratorSpec::FromJson(*json).ok();
  };
  EXPECT_TRUE(fails(R"({"alphabett_size": 3})"));          // typo
  EXPECT_TRUE(fails(R"({"tree": {"target_sizes": 8}})"));  // nested typo
  EXPECT_TRUE(fails(R"({"alphabet_size": 0})"));
  EXPECT_TRUE(fails(R"({"tree": {"target_size": 0}})"));
  EXPECT_TRUE(fails(R"({"pattern": {"size": 0}})"));
  EXPECT_TRUE(fails(R"({"pattern": {"wildcard_prob": 1.5}})"));
  EXPECT_TRUE(fails(R"({"alphabet_size": "three"})"));  // wrong type
}

TEST(GeneratorSpecTest, BindMaterializesAlphabetAndDrivesGenerators) {
  const GeneratorSpec spec = ParseSpec(
      R"({"alphabet_size": 4,
          "tree": {"target_size": 16},
          "pattern": {"size": 4}})");
  auto symbols = std::make_shared<SymbolTable>();

  const TreeGenOptions tree = spec.BindTree(symbols);
  ASSERT_EQ(tree.alphabet.size(), 4u);
  EXPECT_EQ(symbols->Name(tree.alphabet[0]), "a0");
  EXPECT_EQ(symbols->Name(tree.alphabet[3]), "a3");

  const PatternGenOptions pattern = spec.BindPattern(symbols);
  EXPECT_EQ(pattern.alphabet.size(), 4u);

  // The bound options actually generate: a tree of roughly the target
  // size and a pattern of the configured size.
  Rng rng(7);
  const Tree t = RandomTreeGenerator(symbols, tree).Generate(&rng);
  EXPECT_GE(t.size(), 1u);
  const Pattern p =
      RandomPatternGenerator(symbols, pattern).GenerateLinear(&rng);
  EXPECT_EQ(p.size(), 4u);
}

}  // namespace
}  // namespace workload
}  // namespace xmlup
