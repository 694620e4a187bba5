#include "dtd/dtd.h"

#include <vector>

#include "common/string_util.h"

namespace xmlup {

Dtd::Dtd(std::shared_ptr<SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  XMLUP_CHECK(symbols_ != nullptr);
}

Result<Dtd> Dtd::Parse(std::string_view text,
                       std::shared_ptr<SymbolTable> symbols) {
  Dtd dtd(symbols);
  size_t line_number = 0;
  for (std::string_view raw_line : Split(text, '\n')) {
    ++line_number;
    const std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto error = [&](const std::string& message) {
      return Status::ParseError("DTD line " + std::to_string(line_number) +
                                ": " + message);
    };
    // Tokenize on whitespace; ':' is a cosmetic separator.
    std::vector<std::string> tokens;
    for (std::string_view piece : Split(line, ' ')) {
      const std::string_view token = StripWhitespace(piece);
      if (!token.empty() && token != ":") tokens.emplace_back(token);
    }
    if (tokens.empty()) continue;  // line held only separators
    const std::string& directive = tokens[0];
    if (directive == "root") {
      if (tokens.size() != 2) return error("root expects one label");
      dtd.SetRootLabel(symbols->Intern(tokens[1]));
    } else if (directive == "seal") {
      if (tokens.size() != 2) return error("seal expects one label");
      dtd.Seal(symbols->Intern(tokens[1]));
    } else if (directive == "allow" || directive == "require") {
      if (tokens.size() < 3) {
        return error(directive + " expects a parent and child labels");
      }
      const Label parent = symbols->Intern(tokens[1]);
      for (size_t i = 2; i < tokens.size(); ++i) {
        const Label child = symbols->Intern(tokens[i]);
        if (directive == "allow") {
          dtd.Allow(parent, child);
        } else {
          dtd.Require(parent, child);
        }
      }
    } else {
      return error("unknown directive '" + directive + "'");
    }
  }
  XMLUP_RETURN_NOT_OK(dtd.Validate());
  return dtd;
}

Status Dtd::Validate() const {
  for (const auto& [parent, children] : required_) {
    if (sealed_.count(parent) == 0) continue;
    auto it = allowed_.find(parent);
    for (Label must : children) {
      if (it == allowed_.end() || it->second.count(must) == 0) {
        return Status::InvalidArgument(
            "DTD is self-contradictory: label '" + symbols_->Name(parent) +
            "' requires child '" + symbols_->Name(must) +
            "' which its allow-list forbids — no node of this label can "
            "conform");
      }
    }
  }
  return Status();
}

void Dtd::Seal(Label parent) { sealed_.insert(parent); }

void Dtd::Allow(Label parent, Label child) {
  sealed_.insert(parent);
  allowed_[parent].insert(child);
}

void Dtd::Require(Label parent, Label child) {
  required_[parent].insert(child);
}

std::set<Label> Dtd::MentionedLabels() const {
  std::set<Label> labels;
  if (root_label_.has_value()) labels.insert(*root_label_);
  for (Label l : sealed_) labels.insert(l);
  for (const auto& [parent, children] : allowed_) {
    labels.insert(parent);
    labels.insert(children.begin(), children.end());
  }
  for (const auto& [parent, children] : required_) {
    labels.insert(parent);
    labels.insert(children.begin(), children.end());
  }
  return labels;
}

bool Dtd::ChildAllowed(Label parent, Label child) const {
  if (sealed_.count(parent) == 0) return true;
  auto it = allowed_.find(parent);
  return it != allowed_.end() && it->second.count(child) > 0;
}

const std::set<Label>& Dtd::RequiredChildren(Label parent) const {
  static const std::set<Label>* const empty = new std::set<Label>();
  auto it = required_.find(parent);
  return it != required_.end() ? it->second : *empty;
}

const std::set<Label>& Dtd::AllowedChildren(Label parent) const {
  static const std::set<Label>* const empty = new std::set<Label>();
  auto it = allowed_.find(parent);
  return it != allowed_.end() ? it->second : *empty;
}

bool Dtd::Conforms(const Tree& tree, std::string* why) const {
  if (!tree.has_root()) {
    if (why != nullptr) *why = "empty tree";
    return false;
  }
  if (root_label_.has_value() && tree.label(tree.root()) != *root_label_) {
    if (why != nullptr) {
      *why = "root labeled " + tree.LabelName(tree.root()) + ", expected " +
             symbols_->Name(*root_label_);
    }
    return false;
  }
  return ConformsBelow(tree, tree.root(), why);
}

bool Dtd::ConformsBelow(const Tree& tree, NodeId node,
                        std::string* why) const {
  for (NodeId n : tree.SubtreeNodes(node)) {
    std::set<Label> seen;
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      seen.insert(tree.label(c));
      if (!ChildAllowed(tree.label(n), tree.label(c))) {
        if (why != nullptr) {
          *why = "label " + tree.LabelName(c) + " not allowed under " +
                 tree.LabelName(n);
        }
        return false;
      }
    }
    for (Label must : RequiredChildren(tree.label(n))) {
      if (seen.count(must) == 0) {
        if (why != nullptr) {
          *why = "node " + tree.LabelName(n) + " missing required child " +
                 symbols_->Name(must);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace xmlup
