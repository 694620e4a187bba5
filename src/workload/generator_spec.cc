#include "workload/generator_spec.h"

namespace xmlup {
namespace workload {
namespace {

JsonValue TreeJson(const TreeGenOptions& tree) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("target_size", tree.target_size);
  json.Set("max_children", tree.max_children);
  json.Set("max_depth", tree.max_depth);
  return json;
}

JsonValue PatternJson(const PatternGenOptions& pattern) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("size", pattern.size);
  json.Set("wildcard_prob", pattern.wildcard_prob);
  json.Set("descendant_prob", pattern.descendant_prob);
  json.Set("branch_prob", pattern.branch_prob);
  return json;
}

Status ReadTree(const JsonValue& json, TreeGenOptions* tree) {
  JsonObjectReader reader(json, "tree");
  reader.Size("target_size", &tree->target_size);
  reader.Size("max_children", &tree->max_children);
  reader.Size("max_depth", &tree->max_depth);
  if (tree->target_size == 0) reader.RecordError("target_size must be >= 1");
  if (tree->max_children == 0) reader.RecordError("max_children must be >= 1");
  if (tree->max_depth == 0) reader.RecordError("max_depth must be >= 1");
  return reader.Finish();
}

Status ReadPattern(const JsonValue& json, PatternGenOptions* pattern) {
  JsonObjectReader reader(json, "pattern");
  reader.Size("size", &pattern->size);
  reader.Fraction("wildcard_prob", &pattern->wildcard_prob);
  reader.Fraction("descendant_prob", &pattern->descendant_prob);
  reader.Fraction("branch_prob", &pattern->branch_prob);
  if (pattern->size == 0) reader.RecordError("size must be >= 1");
  return reader.Finish();
}

}  // namespace

Result<GeneratorSpec> GeneratorSpec::FromJson(const JsonValue& json) {
  GeneratorSpec spec;
  JsonObjectReader reader(json, "generator");
  reader.Size("alphabet_size", &spec.alphabet_size);
  const JsonValue* tree = reader.Child("tree");
  const JsonValue* pattern = reader.Child("pattern");
  if (spec.alphabet_size == 0) reader.RecordError("alphabet_size must be >= 1");
  if (Status s = reader.Finish(); !s.ok()) return s;
  if (tree != nullptr) {
    if (Status s = ReadTree(*tree, &spec.tree); !s.ok()) return s;
  }
  if (pattern != nullptr) {
    if (Status s = ReadPattern(*pattern, &spec.pattern); !s.ok()) return s;
  }
  return spec;
}

JsonValue GeneratorSpec::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("alphabet_size", alphabet_size);
  json.Set("tree", TreeJson(tree));
  json.Set("pattern", PatternJson(pattern));
  return json;
}

std::vector<Label> GeneratorSpec::MakeAlphabet(
    const std::shared_ptr<SymbolTable>& symbols) const {
  return RandomTreeGenerator::MakeAlphabet(symbols.get(), alphabet_size);
}

TreeGenOptions GeneratorSpec::BindTree(
    const std::shared_ptr<SymbolTable>& symbols) const {
  TreeGenOptions bound = tree;
  bound.alphabet = MakeAlphabet(symbols);
  return bound;
}

PatternGenOptions GeneratorSpec::BindPattern(
    const std::shared_ptr<SymbolTable>& symbols) const {
  PatternGenOptions bound = pattern;
  bound.alphabet = MakeAlphabet(symbols);
  return bound;
}

bool operator==(const GeneratorSpec& a, const GeneratorSpec& b) {
  return a.alphabet_size == b.alphabet_size &&
         a.tree.target_size == b.tree.target_size &&
         a.tree.max_children == b.tree.max_children &&
         a.tree.max_depth == b.tree.max_depth &&
         a.pattern.size == b.pattern.size &&
         a.pattern.wildcard_prob == b.pattern.wildcard_prob &&
         a.pattern.descendant_prob == b.pattern.descendant_prob &&
         a.pattern.branch_prob == b.pattern.branch_prob;
}

}  // namespace workload
}  // namespace xmlup
