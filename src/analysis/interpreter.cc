#include "analysis/interpreter.h"

#include <algorithm>

#include "analysis/dependence_graph.h"
#include "eval/evaluator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {

void TreeStore::Put(const std::string& name, Tree tree) {
  trees_.erase(name);
  trees_.emplace(name, std::move(tree));
}

const Tree& TreeStore::Get(const std::string& name) const {
  auto it = trees_.find(name);
  XMLUP_CHECK_STREAM(it != trees_.end()) << "unknown tree variable " << name;
  return it->second;
}

Tree* TreeStore::GetMutable(const std::string& name) {
  auto it = trees_.find(name);
  XMLUP_CHECK_STREAM(it != trees_.end()) << "unknown tree variable " << name;
  return &it->second;
}

TreeStore TreeStore::Clone() const {
  TreeStore copy(symbols_);
  for (const auto& [name, tree] : trees_) {
    copy.Put(name, CopyTree(tree));
  }
  return copy;
}

Result<ExecutionTrace> Execute(const Program& program, TreeStore* store) {
  ExecutionTrace trace;
  // statement index -> index into trace.reads, for CSE aliases.
  std::vector<size_t> read_index(program.size(), SIZE_MAX);

  for (size_t i = 0; i < program.size(); ++i) {
    const Statement& s = program.statements()[i];
    if (!store->Has(s.target_var) && !s.alias_of.has_value()) {
      return Status::NotFound("tree variable '" + s.target_var +
                              "' not in store");
    }
    switch (s.kind) {
      case Statement::Kind::kRead: {
        ExecutionTrace::ReadRecord record;
        record.result_var = s.result_var;
        if (s.alias_of.has_value()) {
          const size_t source = read_index[*s.alias_of];
          if (source == SIZE_MAX) {
            return Status::InvalidArgument(
                "CSE alias refers to a non-read or later statement");
          }
          record.nodes = trace.reads[source].nodes;
          record.codes = trace.reads[source].codes;
        } else {
          const Tree& tree = store->Get(s.target_var);
          record.nodes = Evaluate(s.pattern, tree);
          for (NodeId n : record.nodes) {
            record.codes.push_back(CanonicalCode(tree, n));
          }
          std::sort(record.codes.begin(), record.codes.end());
        }
        read_index[i] = trace.reads.size();
        trace.reads.push_back(std::move(record));
        break;
      }
      case Statement::Kind::kInsert:
      case Statement::Kind::kDelete: {
        // The statement model: a malformed update (root-selecting delete,
        // insert without rooted content) is the InvalidArgument lint
        // reports as malformed-update.
        XMLUP_ASSIGN_OR_RETURN(const UpdateOp op, ToUpdateOp(s));
        op.ApplyInPlace(store->GetMutable(s.target_var));
        break;
      }
    }
  }
  return trace;
}

}  // namespace xmlup
