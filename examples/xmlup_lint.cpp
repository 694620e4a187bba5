// xmlup_lint — static analyzer front end: lints a pidgin update program
// and renders the diagnostics.
//
//   xmlup_lint prog.xup                        compiler-style text
//   xmlup_lint prog.xup --format=json          single JSON object
//   xmlup_lint prog.xup --format=sarif         SARIF 2.1.0
//   xmlup_lint - --format=text                 program from stdin
//
// Options:
//   --dtd=schema.dtd   enable the dtd-violation pass
//   --max-nodes=N      bounded-search node budget (smaller = more
//                      truncated-verdict notices; soundness unaffected)
//   --threads=N        engine worker threads (0 = hardware default)
//   --no-partition     skip the parallel-safety partitioner
//
// Exit status: 0 clean (warnings/info allowed), 1 errors, 2 usage/parse.
//
// Program syntax (one statement per line, # comments):
//
//   y = read $x//book[.//quantity]
//   insert $x/catalog, <book><title/></book>
//   delete $x//book

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/lint.h"
#include "analysis/program_parser.h"
#include "common/string_util.h"
#include "dtd/dtd.h"
#include "engine/engine.h"

using namespace xmlup;

namespace {

int Usage() {
  std::cerr << "usage: xmlup_lint <prog.xup|-> [--format=text|json|sarif]\n"
            << "                  [--dtd=schema.dtd] [--max-nodes=N]\n"
            << "                  [--threads=N] [--no-partition]\n";
  return 2;
}

Result<std::string> Slurp(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream file(path);
    if (!file) return Status::NotFound("cannot open " + path);
    buffer << file.rdbuf();
  }
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string format = "text";
  std::string dtd_path;
  EngineOptions options;
  Engine::LintRunOptions run_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--format=")) {
      format = arg.substr(9);
    } else if (StartsWith(arg, "--dtd=")) {
      dtd_path = arg.substr(6);
    } else if (StartsWith(arg, "--max-nodes=")) {
      options.batch.detector.search.max_nodes =
          static_cast<size_t>(std::stoul(arg.substr(12)));
    } else if (StartsWith(arg, "--threads=")) {
      options.batch.num_threads =
          static_cast<size_t>(std::stoul(arg.substr(10)));
    } else if (arg == "--no-partition") {
      run_options.partition = false;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return Usage();
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return Usage();
    }
  }
  if (input_path.empty()) return Usage();
  if (format != "text" && format != "json" && format != "sarif") {
    return Usage();
  }

  Result<std::string> source = Slurp(input_path);
  if (!source.ok()) {
    std::cerr << "error: " << source.status() << "\n";
    return 2;
  }
  // The program and the schema share one table, which the engine adopts.
  auto symbols = std::make_shared<SymbolTable>();
  Result<ParsedProgram> parsed = ParseProgram(*source, symbols);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status() << "\n";
    return 2;
  }
  if (!dtd_path.empty()) {
    Result<std::string> dtd_text = Slurp(dtd_path);
    if (!dtd_text.ok()) {
      std::cerr << "error: " << dtd_text.status() << "\n";
      return 2;
    }
    Result<Dtd> dtd = Dtd::Parse(*dtd_text, symbols);
    if (!dtd.ok()) {
      std::cerr << "error: " << dtd.status() << "\n";
      return 2;
    }
    options.dtd = std::make_shared<const Dtd>(std::move(dtd).value());
  }

  Engine engine(symbols, std::move(options));
  const LintResult result = engine.Lint(parsed->program, run_options);

  LintRenderOptions render;
  render.artifact_uri = input_path == "-" ? "<stdin>" : input_path;
  render.lines = &parsed->lines;
  if (format == "json") {
    std::cout << RenderLintJson(parsed->program, result, render) << "\n";
  } else if (format == "sarif") {
    std::cout << RenderLintSarif(parsed->program, result, render) << "\n";
  } else {
    std::cout << RenderLintText(parsed->program, result, render);
  }
  return result.HasErrors() ? 1 : 0;
}
