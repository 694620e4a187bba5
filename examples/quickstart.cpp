// Quickstart: parse XML, evaluate XPath patterns, apply updates, and ask
// the library whether a read conflicts with an update — the core xmlup
// workflow in ~60 lines.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "engine/engine.h"
#include "eval/evaluator.h"
#include "pattern/xpath_parser.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

using namespace xmlup;  // examples only; library code never does this

int main() {
  // One Engine = the whole stack wired: symbol table, pattern store
  // (interning + compiled automata), conflict detector.
  Engine engine;
  const std::shared_ptr<SymbolTable>& symbols = engine.symbols();

  // 1. Parse a document (the paper's running example, Figure 1).
  Result<Tree> doc = ParseXml(
      "<catalog>"
      "  <book><title/><quantity><low/></quantity></book>"
      "  <book><title/><quantity><high/></quantity></book>"
      "</catalog>",
      symbols);
  if (!doc.ok()) {
    std::cerr << "parse error: " << doc.status() << "\n";
    return 1;
  }
  Tree catalog = std::move(doc).value();

  // 2. Evaluate an XPath pattern: books that need restocking.
  Pattern low_books = MustParseXPath("catalog/book[.//low]", symbols);
  std::cout << "low-stock books: " << Evaluate(low_books, catalog).size()
            << "\n";

  // 3. Apply the paper's update:  insert catalog/book[.//low], <restock/>.
  Result<Tree> restock = ParseXml("<restock/>", symbols);
  const UpdateOp insert = UpdateOp::MakeInsert(
      low_books, std::make_shared<const Tree>(std::move(restock).value()));
  insert.ApplyInPlace(&catalog);
  std::cout << "after insert:\n" << WriteXml(catalog, {.indent = 2});

  // 4. Conflict detection: does this insert affect other reads?  Intern
  //    patterns once into the engine's store and detect via PatternRefs —
  //    minimization and canonical codes are computed per distinct pattern,
  //    not per Detect call.
  const UpdateOp restock_insert = engine.Bind(insert);
  for (const char* read_xpath :
       {"catalog//restock", "catalog//title", "catalog/book"}) {
    Result<PatternRef> read_ref = engine.InternXPath(read_xpath);
    if (!read_ref.ok()) {
      std::cerr << "bad read pattern: " << read_ref.status() << "\n";
      return 1;
    }
    PatternRef read = *read_ref;
    Result<ConflictReport> report = engine.Detect(read, restock_insert);
    if (!report.ok()) {
      std::cerr << "detection failed: " << report.status() << "\n";
      return 1;
    }
    std::cout << "read " << read_xpath << " vs restock-insert: "
              << ConflictVerdictName(report->verdict) << "  ["
              << DetectorMethodName(report->method) << "]\n";
    if (report->witness.has_value()) {
      std::cout << "  witness document: " << WriteXml(*report->witness)
                << "\n";
    }
  }
  return 0;
}
