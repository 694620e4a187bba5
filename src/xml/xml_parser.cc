#include "xml/xml_parser.h"

#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace xmlup {
namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Single-pass parser over one input buffer. Tracks line/column
/// for error messages. Elements become tree nodes; attributes, text,
/// comments, PIs and CDATA are validated syntactically and discarded.
class Parser {
 public:
  Parser(std::string_view input, std::shared_ptr<SymbolTable> symbols,
         const XmlParseOptions& options)
      : input_(input), options_(options), tree_(std::move(symbols)) {}

  Result<Tree> Parse() {
    SkipProlog();
    XMLUP_RETURN_NOT_OK(ParseDocumentElement());
    SkipMisc();
    if (!AtEnd()) {
      return Error("trailing content after the document element");
    }
    return std::move(tree_);
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool PeekIs(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }

  Status Error(std::string message) const {
    return Status::ParseError("line " + std::to_string(line_) + ", column " +
                              std::to_string(column_) + ": " +
                              std::move(message));
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(Peek())) Advance();
  }

  /// Skips comments, PIs, DOCTYPE and whitespace.
  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (PeekIs("<!--")) {
        SkipUntil("-->");
      } else if (PeekIs("<?")) {
        SkipUntil("?>");
      } else if (PeekIs("<!DOCTYPE")) {
        // DOCTYPE without an internal subset; skip to the closing '>'.
        while (!AtEnd() && Peek() != '>') Advance();
        if (!AtEnd()) Advance();
      } else {
        return;
      }
    }
  }

  void SkipProlog() { SkipMisc(); }

  void SkipUntil(std::string_view terminator) {
    while (!AtEnd() && !PeekIs(terminator)) Advance();
    AdvanceBy(terminator.size());
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Error("expected a name");
    }
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(input_.substr(start, pos_ - start));
  }

  Status ParseAttributes() {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') return Status::OK();
      if (!options_.ignore_attributes) {
        return Error("attributes are not allowed by the parse options");
      }
      XMLUP_ASSIGN_OR_RETURN(std::string name, ParseName());
      (void)name;
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
      Advance();
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      const char quote = Peek();
      Advance();
      while (!AtEnd() && Peek() != quote) Advance();
      if (AtEnd()) return Error("unterminated attribute value");
      Advance();
    }
  }

  /// Parses the document element and everything inside it. Iterative: an
  /// explicit stack of open elements replaces one recursion per level, so
  /// depth is bounded by memory, not by the call stack.
  Status ParseDocumentElement() {
    std::vector<std::pair<NodeId, std::string>> open;  // node, name
    XMLUP_RETURN_NOT_OK(ParseStartTag(&open));
    while (!open.empty()) {
      const std::string& name = open.back().second;
      if (AtEnd()) return Error("unexpected end of input in <" + name + ">");
      if (Peek() == '<') {
        if (PeekIs("</")) {
          AdvanceBy(2);
          XMLUP_ASSIGN_OR_RETURN(std::string close, ParseName());
          if (close != name) {
            return Error("mismatched end tag </" + close + ">, expected </" +
                         name + ">");
          }
          SkipWhitespace();
          if (AtEnd() || Peek() != '>') return Error("expected '>'");
          Advance();
          open.pop_back();
          continue;
        }
        if (PeekIs("<!--")) {
          SkipUntil("-->");
          continue;
        }
        if (PeekIs("<![CDATA[")) {
          if (!options_.ignore_text) {
            return Error("text content is not allowed by the parse options");
          }
          SkipUntil("]]>");
          continue;
        }
        if (PeekIs("<?")) {
          SkipUntil("?>");
          continue;
        }
        XMLUP_RETURN_NOT_OK(ParseStartTag(&open));
        continue;
      }
      // Text content.
      const size_t start = pos_;
      while (!AtEnd() && Peek() != '<') Advance();
      if (!options_.ignore_text) {
        const std::string_view text =
            StripWhitespace(input_.substr(start, pos_ - start));
        if (!text.empty()) {
          return Error("text content is not allowed by the parse options");
        }
      }
    }
    return Status::OK();
  }

  /// Parses a start tag and adds its element under the innermost open one
  /// (as the root when none is open); the element stays open unless the
  /// tag is self-closing.
  Status ParseStartTag(std::vector<std::pair<NodeId, std::string>>* open) {
    if (AtEnd() || Peek() != '<') return Error("expected '<'");
    Advance();
    XMLUP_ASSIGN_OR_RETURN(std::string name, ParseName());
    const Label label = tree_.symbols()->Intern(name);
    const NodeId node = open->empty()
                            ? tree_.CreateRoot(label)
                            : tree_.AddChild(open->back().first, label);
    XMLUP_RETURN_NOT_OK(ParseAttributes());
    if (Peek() == '/') {
      Advance();
      if (AtEnd() || Peek() != '>') return Error("expected '>' after '/'");
      Advance();
      return Status::OK();
    }
    Advance();  // consume '>'
    open->emplace_back(node, std::move(name));
    return Status::OK();
  }

  std::string_view input_;
  XmlParseOptions options_;
  Tree tree_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t column_ = 1;
};

}  // namespace

Result<Tree> ParseXml(std::string_view input,
                      std::shared_ptr<SymbolTable> symbols,
                      const XmlParseOptions& options) {
  Parser parser(input, std::move(symbols), options);
  return parser.Parse();
}

}  // namespace xmlup
