// xmlup_cli — command-line front end over the library, the way a
// downstream user would script it:
//
//   xmlup_cli eval <file.xml> <xpath>             evaluate a pattern
//   xmlup_cli count <file.xml> <xpath>            count embeddings
//   xmlup_cli insert <file.xml> <xpath> <content-xml>   apply an insert
//   xmlup_cli delete <file.xml> <xpath>           apply a delete
//   xmlup_cli detect-insert <read> <insert> <content-xml>
//   xmlup_cli detect-delete <read> <delete>
//   xmlup_cli contain <p> <q>                     decide p ⊆ q
//   xmlup_cli minimize <xpath>                    minimize a pattern
//
// Patterns use the paper's XPath fragment; "-" reads the document from
// stdin.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "conflict/containment.h"
#include "conflict/minimize.h"
#include "engine/engine.h"
#include "eval/evaluator.h"
#include "pattern/pattern_writer.h"
#include "pattern/xpath_parser.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

using namespace xmlup;

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
      << "  xmlup_cli eval <file.xml|-> <xpath>\n"
      << "  xmlup_cli count <file.xml|-> <xpath>\n"
      << "  xmlup_cli insert <file.xml|-> <xpath> <content-xml>\n"
      << "  xmlup_cli delete <file.xml|-> <xpath>\n"
      << "  xmlup_cli detect-insert <read-xpath> <insert-xpath> <content-xml>\n"
      << "  xmlup_cli detect-delete <read-xpath> <delete-xpath>\n"
      << "  xmlup_cli contain <p-xpath> <q-xpath>\n"
      << "  xmlup_cli minimize <xpath>\n";
  return 2;
}

Result<Tree> LoadDocument(const std::string& path,
                          const std::shared_ptr<SymbolTable>& symbols) {
  std::string content;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    content = buffer.str();
  } else {
    std::ifstream file(path);
    if (!file) return Status::NotFound("cannot open " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    content = buffer.str();
  }
  return ParseXml(content, symbols);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  Engine engine;
  const std::shared_ptr<SymbolTable>& symbols = engine.symbols();

  auto parse_pattern = [&](const char* s) -> Result<Pattern> {
    return ParseXPath(s, symbols);
  };
  auto fail = [](const Status& status) {
    std::cerr << "error: " << status << "\n";
    return 1;
  };

  if (command == "eval" || command == "count") {
    if (argc != 4) return Usage();
    Result<Tree> doc = LoadDocument(argv[2], symbols);
    if (!doc.ok()) return fail(doc.status());
    Result<Pattern> pattern = parse_pattern(argv[3]);
    if (!pattern.ok()) return fail(pattern.status());
    if (command == "count") {
      std::cout << CountEmbeddings(*pattern, *doc) << "\n";
      return 0;
    }
    const std::vector<NodeId> result = Evaluate(*pattern, *doc);
    std::cout << result.size() << " node(s)\n";
    for (NodeId n : result) {
      std::cout << WriteXml(*doc, n) << "\n";
    }
    return 0;
  }

  if (command == "insert") {
    if (argc != 5) return Usage();
    Result<Tree> doc = LoadDocument(argv[2], symbols);
    if (!doc.ok()) return fail(doc.status());
    Result<Pattern> pattern = parse_pattern(argv[3]);
    if (!pattern.ok()) return fail(pattern.status());
    Result<Tree> content = ParseXml(argv[4], symbols);
    if (!content.ok()) return fail(content.status());
    const UpdateOp op = UpdateOp::MakeInsert(
        *pattern, std::make_shared<const Tree>(std::move(content).value()));
    Tree work = std::move(doc).value();
    const UpdateOp::Applied applied = op.ApplyInPlace(&work);
    std::cerr << "inserted at " << applied.points.size() << " point(s)\n";
    std::cout << WriteXml(work, {.indent = 2});
    return 0;
  }

  if (command == "delete") {
    if (argc != 4) return Usage();
    Result<Tree> doc = LoadDocument(argv[2], symbols);
    if (!doc.ok()) return fail(doc.status());
    Result<Pattern> pattern = parse_pattern(argv[3]);
    if (!pattern.ok()) return fail(pattern.status());
    Result<UpdateOp> op = UpdateOp::MakeDelete(std::move(pattern).value());
    if (!op.ok()) return fail(op.status());
    Tree work = std::move(doc).value();
    const UpdateOp::Applied applied = op->ApplyInPlace(&work);
    std::cerr << "deleted " << applied.points.size() << " subtree(s)\n";
    std::cout << WriteXml(work, {.indent = 2});
    return 0;
  }

  if (command == "detect-insert" || command == "detect-delete") {
    Result<Pattern> read = parse_pattern(argv[2]);
    if (!read.ok()) return fail(read.status());
    Result<Pattern> update = parse_pattern(argv[3]);
    if (!update.ok()) return fail(update.status());
    Result<ConflictReport> report = Status::Internal("unreachable");
    if (command == "detect-insert") {
      if (argc != 5) return Usage();
      Result<Tree> content = ParseXml(argv[4], symbols);
      if (!content.ok()) return fail(content.status());
      report = engine.Detect(*read,
                             UpdateOp::MakeInsert(
                                 *update, std::make_shared<const Tree>(
                                              std::move(content).value())));
    } else {
      if (argc != 4) return Usage();
      Result<UpdateOp> del = UpdateOp::MakeDelete(*update);
      if (!del.ok()) return fail(del.status());
      report = engine.Detect(*read, *del);
    }
    if (!report.ok()) return fail(report.status());
    std::cout << ConflictVerdictName(report->verdict) << "  ("
              << DetectorMethodName(report->method) << ")\n";
    if (report->witness.has_value()) {
      std::cout << "witness: " << WriteXml(*report->witness) << "\n";
    }
    return report->verdict == ConflictVerdict::kConflict ? 3 : 0;
  }

  if (command == "contain") {
    if (argc != 4) return Usage();
    Result<Pattern> p = parse_pattern(argv[2]);
    if (!p.ok()) return fail(p.status());
    Result<Pattern> q = parse_pattern(argv[3]);
    if (!q.ok()) return fail(q.status());
    const ContainmentDecision decision = DecideContainment(*p, *q);
    std::cout << (decision.contained ? "contained" : "not-contained")
              << "  (" << decision.models_checked << " canonical models)\n";
    if (decision.counterexample.has_value()) {
      std::cout << "separating tree: " << WriteXml(*decision.counterexample)
                << "\n";
    }
    return decision.contained ? 0 : 3;
  }

  if (command == "minimize") {
    if (argc != 3) return Usage();
    Result<Pattern> p = parse_pattern(argv[2]);
    if (!p.ok()) return fail(p.status());
    const Pattern minimized = MinimizePattern(*p);
    std::cout << ToXPathString(minimized) << "\n";
    std::cerr << p->size() << " -> " << minimized.size() << " node(s)\n";
    return 0;
  }

  return Usage();
}
