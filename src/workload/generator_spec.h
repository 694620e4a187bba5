#ifndef XMLUP_WORKLOAD_GENERATOR_SPEC_H_
#define XMLUP_WORKLOAD_GENERATOR_SPEC_H_

#include <memory>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/symbol_table.h"

namespace xmlup {
namespace workload {

/// The JSON-serializable description of the generators a workload draws
/// from — TreeGenOptions and PatternGenOptions under a single spec, so a
/// workload file configures both in one "generator" block.
///
/// Alphabets are the one field the option structs cannot serialize: Labels
/// are dense ids minted by a SymbolTable, meaningless across processes.
/// The spec therefore carries `alphabet_size` (labels named a0..aN-1, the
/// RandomTreeGenerator::MakeAlphabet convention) and the Bind* methods
/// materialize the option structs against a concrete table. The embedded
/// alphabet vectors stay empty until then; ToJson never emits them.
///
/// JSON shape (all keys optional; absent keys keep the struct defaults):
///
///   {"alphabet_size": 3,
///    "tree":    {"target_size": 32, "max_children": 4, "max_depth": 12},
///    "pattern": {"size": 5, "wildcard_prob": 0.25,
///                "descendant_prob": 0.4, "branch_prob": 0.35}}
///
/// Unknown keys are errors (a typo must not silently fall back to a
/// default), and FromJson(ToJson(spec)) == spec for every valid spec (the
/// round-trip test pins this).
struct GeneratorSpec {
  /// Labels a0..a{alphabet_size-1}; small alphabets make generated
  /// patterns overlap often, which is what exercises the detectors.
  size_t alphabet_size = 3;

  TreeGenOptions tree;
  PatternGenOptions pattern;

  static Result<GeneratorSpec> FromJson(const JsonValue& json);
  JsonValue ToJson() const;

  /// Interns the a0..aN-1 alphabet into `symbols`.
  std::vector<Label> MakeAlphabet(
      const std::shared_ptr<SymbolTable>& symbols) const;

  /// Materialized option structs with the alphabet filled in.
  TreeGenOptions BindTree(const std::shared_ptr<SymbolTable>& symbols) const;
  PatternGenOptions BindPattern(
      const std::shared_ptr<SymbolTable>& symbols) const;

  friend bool operator==(const GeneratorSpec& a, const GeneratorSpec& b);
  friend bool operator!=(const GeneratorSpec& a, const GeneratorSpec& b) {
    return !(a == b);
  }
};

}  // namespace workload
}  // namespace xmlup

#endif  // XMLUP_WORKLOAD_GENERATOR_SPEC_H_
