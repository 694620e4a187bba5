// Conflict matrix: given a workload of reads and updates over the catalog
// schema, print the full read-vs-update conflict matrix (node semantics)
// and the update-vs-update commutativity certificates — the artifact a
// query compiler or concurrency layer would consume.
//
// Build & run:  ./build/examples/conflict_matrix

#include <iomanip>
#include <iostream>
#include <vector>

#include "engine/engine.h"
#include "pattern/xpath_parser.h"
#include "xml/xml_parser.h"

using namespace xmlup;

namespace {

struct NamedUpdate {
  const char* name;
  UpdateOp op;
};

char VerdictChar(ConflictVerdict verdict) {
  switch (verdict) {
    case ConflictVerdict::kConflict:
      return 'X';
    case ConflictVerdict::kNoConflict:
      return '.';
    case ConflictVerdict::kUnknown:
      return '?';
  }
  return '?';
}

}  // namespace

int main() {
  Engine engine;
  const std::shared_ptr<SymbolTable>& symbols = engine.symbols();
  auto xp = [&](const char* s) { return MustParseXPath(s, symbols); };
  auto xml = [&](const char* s) {
    return std::make_shared<const Tree>(std::move(ParseXml(s, symbols)).value());
  };

  const std::vector<std::pair<const char*, Pattern>> reads = {
      {"titles", xp("catalog//title")},
      {"books", xp("catalog/book")},
      {"restocks", xp("catalog//restock")},
      {"low-marks", xp("catalog//low")},
      {"quantities", xp("catalog/book/stock/quantity")},
  };

  std::vector<NamedUpdate> updates;
  updates.push_back(
      {"restock-low", UpdateOp::MakeInsert(xp("catalog/book[.//low]"),
                                           xml("<restock/>"))});
  updates.push_back(
      {"tag-all-books", UpdateOp::MakeInsert(xp("catalog/book"),
                                             xml("<audited/>"))});
  updates.push_back(
      {"drop-restocks",
       std::move(UpdateOp::MakeDelete(xp("catalog//restock")).value())});
  updates.push_back(
      {"drop-high-books",
       std::move(UpdateOp::MakeDelete(xp("catalog/book[.//high]")).value())});

  // The engine's batch path solves the whole N×M matrix in one call
  // (each distinct pair once, in parallel) instead of N*M singleton
  // Detects.
  std::vector<Pattern> read_patterns;
  std::vector<UpdateOp> update_ops;
  for (const auto& entry : reads) read_patterns.push_back(entry.second);
  for (const NamedUpdate& u : updates) update_ops.push_back(u.op);
  const std::vector<SharedConflictResult> matrix =
      engine.DetectMatrix(read_patterns, update_ops);

  std::cout << "read-vs-update conflict matrix (node semantics)\n";
  std::cout << "  X = conflict, . = provably independent, ? = unknown\n\n";
  std::cout << std::left << std::setw(14) << "";
  for (const NamedUpdate& u : updates) {
    std::cout << std::setw(16) << u.name;
  }
  std::cout << "\n";
  for (size_t i = 0; i < reads.size(); ++i) {
    std::cout << std::setw(14) << reads[i].first;
    for (size_t j = 0; j < updates.size(); ++j) {
      const SharedConflictResult& cell = matrix[i * updates.size() + j];
      std::cout << std::setw(16)
                << (cell->ok() ? VerdictChar((*cell)->verdict) : '!');
    }
    std::cout << "\n";
  }

  std::cout << "\nupdate-vs-update commutativity certificates (§6)\n";
  std::cout << "  C = certified commuting, ? = uncertified (keep ordered)\n\n";
  std::cout << std::setw(16) << "";
  for (const NamedUpdate& u : updates) std::cout << std::setw(16) << u.name;
  std::cout << "\n";
  for (const NamedUpdate& a : updates) {
    std::cout << std::setw(16) << a.name;
    for (const NamedUpdate& b : updates) {
      Result<IndependenceReport> cert = engine.CertifyCommute(a.op, b.op);
      const bool certified =
          cert.ok() &&
          cert->certificate == CommutativityCertificate::kCertified;
      std::cout << std::setw(16) << (certified ? 'C' : '?');
    }
    std::cout << "\n";
  }
  return 0;
}
