// The paper's §1 compiler scenario: a straight-line program in the pidgin
// update language is analyzed for data dependences; independent reads are
// hoisted and repeated reads eliminated (CSE), then both versions are
// executed to show they observe the same results.
//
// Build & run:  ./build/examples/query_optimizer   (exits 1 if any read of
// the optimized program differs from the original)

#include <iostream>

#include "analysis/interpreter.h"
#include "analysis/optimizer.h"
#include "engine/engine.h"
#include "pattern/xpath_parser.h"
#include "xml/xml_parser.h"

using namespace xmlup;

int main() {
  // Tree semantics: a read depends on an update if any node in its result
  // *subtrees* changes — the right notion for whole-result CSE.
  EngineOptions engine_options;
  engine_options.batch.detector.semantics = ConflictSemantics::kTree;
  Engine engine(engine_options);
  const std::shared_ptr<SymbolTable>& symbols = engine.symbols();

  // The §1 program:
  //   y = read $x//A
  //   insert $x/B, <C/>
  //   z = read $x//C       (conflicts with the insert)
  //   w = read $x//D       (independent — can be hoisted)
  //   u = read $x//A       (same as y, no conflicting update since — CSE)
  Result<Tree> c_tree = ParseXml("<C/>", symbols);
  Program program;
  program.AddRead("y", "x", MustParseXPath("x//A", symbols));
  program.AddInsert("x", MustParseXPath("x/B", symbols),
                    std::make_shared<const Tree>(std::move(c_tree).value()));
  program.AddRead("z", "x", MustParseXPath("x//C", symbols));
  program.AddRead("w", "x", MustParseXPath("x//D", symbols));
  program.AddRead("u", "x", MustParseXPath("x//A", symbols));

  std::cout << "original program:\n" << program.ToString() << "\n";

  const DependenceAnalysisResult deps = engine.AnalyzeDependences(program);
  std::cout << "dependences (must stay ordered):\n";
  for (const Dependence& d : deps.dependences) {
    std::cout << "  stmt " << d.from << " -> stmt " << d.to << "  (on $"
              << d.reason << ")\n";
  }
  std::cout << deps.pairs_independent << "/" << deps.pairs_total
            << " pairs proven independent\n\n";

  Optimizer optimizer(engine.detector_options());
  const OptimizeResult cse = optimizer.EliminateCommonReads(program);
  std::cout << "after read CSE (" << cse.reads_aliased << " read(s) aliased):\n"
            << cse.program.ToString() << "\n";

  const std::vector<size_t> schedule = optimizer.HoistReadsSchedule(program);
  std::cout << "hoisted schedule:";
  for (size_t i : schedule) std::cout << " " << i;
  std::cout << "\n\n";

  // Execute original and optimized; the observable reads agree.
  Result<Tree> x1 = ParseXml("<x><A/><B/><D/></x>", symbols);
  Result<Tree> x2 = ParseXml("<x><A/><B/><D/></x>", symbols);
  TreeStore store1(symbols);
  store1.Put("x", std::move(x1).value());
  TreeStore store2(symbols);
  store2.Put("x", std::move(x2).value());

  Result<ExecutionTrace> t1 = Execute(program, &store1);
  Result<ExecutionTrace> t2 = Execute(cse.program, &store2);
  if (!t1.ok() || !t2.ok()) {
    std::cerr << "execution failed\n";
    return 1;
  }
  std::cout << "read results (original == optimized):\n";
  bool all_identical = t1->reads.size() == t2->reads.size();
  for (size_t i = 0; i < t1->reads.size() && i < t2->reads.size(); ++i) {
    const bool identical = t1->reads[i].nodes == t2->reads[i].nodes;
    all_identical = all_identical && identical;
    std::cout << "  " << t1->reads[i].result_var << ": "
              << t1->reads[i].nodes.size() << " node(s)"
              << (identical ? "  ✓ identical" : "  ✗ DIFFER") << "\n";
  }
  // Nonzero exit on any mismatch, so CI catches an unsound CSE.
  return all_identical ? 0 : 1;
}
