#include "analysis/incremental_dependence.h"

#include <utility>

#include "common/check.h"
#include "conflict/update_independence.h"
#include "obs/trace.h"

namespace xmlup {

IncrementalDependenceAnalyzer::IncrementalDependenceAnalyzer(
    DetectorOptions options)
    : IncrementalDependenceAnalyzer(
          BatchDetectorOptions{.detector = options, .store = nullptr}) {}

IncrementalDependenceAnalyzer::IncrementalDependenceAnalyzer(
    BatchDetectorOptions options)
    : matrix_(std::move(options)) {}

const Statement& IncrementalDependenceAnalyzer::statement(size_t index) const {
  XMLUP_CHECK(index < stmts_.size());
  return stmts_[index];
}

void IncrementalDependenceAnalyzer::SetProgram(const Program& program) {
  obs::TraceSpan span("IncrementalDependence.set_program");
  stmts_ = program.statements();
  ops_ = BindStatements(stmts_, matrix_.engine().pattern_store());
  slots_.assign(stmts_.size(), std::nullopt);
  std::vector<Pattern> reads;
  std::vector<UpdateOp> updates;
  for (size_t i = 0; i < stmts_.size(); ++i) {
    if (stmts_[i].kind == Statement::Kind::kRead) {
      slots_[i] = reads.size();
      reads.push_back(stmts_[i].pattern);
    } else if (ops_[i].ok()) {
      slots_[i] = updates.size();
      updates.push_back(*ops_[i]);
    }
  }
  // certificates_ survives: its facts are keyed on canonical op pairs,
  // which a new program may well repeat.
  matrix_.Assign(reads, updates);
}

void IncrementalDependenceAnalyzer::AttachSlot(size_t index) {
  const Statement& s = stmts_[index];
  if (s.kind == Statement::Kind::kRead) {
    slots_[index] = matrix_.AddRead(s.pattern);
  } else if (ops_[index].ok()) {
    slots_[index] = matrix_.AddUpdate(*ops_[index]);
    ops_[index] = matrix_.update(*slots_[index]);
  }
}

void IncrementalDependenceAnalyzer::DetachSlot(size_t index) {
  if (!slots_[index].has_value()) return;
  const bool read = stmts_[index].kind == Statement::Kind::kRead;
  const size_t slot = *slots_[index];
  if (read) {
    matrix_.RemoveRead(slot);
  } else {
    matrix_.RemoveUpdate(slot);
  }
  slots_[index].reset();
  for (size_t i = 0; i < stmts_.size(); ++i) {
    const bool same_side = (stmts_[i].kind == Statement::Kind::kRead) == read;
    if (same_side && slots_[i].has_value() && *slots_[i] > slot) --*slots_[i];
  }
}

void IncrementalDependenceAnalyzer::InsertStatement(size_t index,
                                                    const Statement& statement) {
  obs::TraceSpan span("IncrementalDependence.insert");
  XMLUP_CHECK(index <= stmts_.size());
  const auto at = static_cast<ptrdiff_t>(index);
  stmts_.insert(stmts_.begin() + at, statement);
  ops_.insert(ops_.begin() + at, ToUpdateOp(statement));
  slots_.insert(slots_.begin() + at, std::nullopt);
  AttachSlot(index);
}

void IncrementalDependenceAnalyzer::RemoveStatement(size_t index) {
  obs::TraceSpan span("IncrementalDependence.remove");
  XMLUP_CHECK(index < stmts_.size());
  DetachSlot(index);
  const auto at = static_cast<ptrdiff_t>(index);
  stmts_.erase(stmts_.begin() + at);
  ops_.erase(ops_.begin() + at);
  slots_.erase(slots_.begin() + at);
}

void IncrementalDependenceAnalyzer::ReplaceStatement(
    size_t index, const Statement& statement) {
  obs::TraceSpan span("IncrementalDependence.replace");
  XMLUP_CHECK(index < stmts_.size());
  const bool old_read = stmts_[index].kind == Statement::Kind::kRead;
  const bool new_read = statement.kind == Statement::Kind::kRead;
  if (old_read && new_read) {
    matrix_.ReplaceRead(*slots_[index], statement.pattern);
    stmts_[index] = statement;
    return;
  }
  if (!old_read && !new_read && slots_[index].has_value()) {
    if (Result<UpdateOp> op = ToUpdateOp(statement); op.ok()) {
      matrix_.ReplaceUpdate(*slots_[index], *op);
      ops_[index] = matrix_.update(*slots_[index]);
      stmts_[index] = statement;
      return;
    }
  }
  // Kind change (or a malformed update on either side): fall back to
  // detach + attach, still one row/column of work.
  DetachSlot(index);
  stmts_[index] = statement;
  ops_[index] = ToUpdateOp(statement);
  AttachSlot(index);
}

DependenceGraph IncrementalDependenceAnalyzer::Graph() const {
  // §6 certificates never change for a canonical op pair: memoize them on
  // the matrix store's ids.
  const std::shared_ptr<PatternStore>& store = matrix_.engine().pattern_store();
  auto leg = [&](size_t s, uint32_t* key) {
    const UpdateOp& op = *ops_[s];
    const bool insert = op.kind() == UpdateOp::Kind::kInsert;
    key[0] = op.pattern_ref().id();
    key[1] = insert ? store->InternContentCode(op.content()) : 0;
    key[2] = insert ? 1 : 0;
  };
  return ClassifyPairs(
      stmts_, ops_,
      [&](size_t read, size_t update) -> const Result<ConflictReport>& {
        return *matrix_.cell(*slots_[read], *slots_[update]);
      },
      [&](size_t earlier, size_t later) {
        std::array<uint32_t, 6> key;
        leg(earlier, &key[0]);
        leg(later, &key[3]);
        auto it = certificates_.find(key);
        if (it == certificates_.end()) {
          Result<IndependenceReport> cert =
              CertifyUpdatesCommute(*ops_[earlier], *ops_[later],
                                    matrix_.engine().options().detector);
          it = certificates_.emplace(key, std::move(cert)).first;
        }
        return it->second;
      });
}

DependenceAnalysisResult IncrementalDependenceAnalyzer::Analyze() const {
  obs::TraceSpan span("IncrementalDependenceAnalyze");
  DependenceAnalysisResult result = SummarizeDependences(stmts_, Graph());
  result.batch_stats = matrix_.engine().stats();
  return result;
}

std::vector<std::pair<size_t, size_t>>
IncrementalDependenceAnalyzer::IndependentPairs() const {
  const DependenceGraph graph = Graph();
  std::vector<std::pair<size_t, size_t>> independent;
  for (size_t i = 0; i < stmts_.size(); ++i) {
    for (size_t j = i + 1; j < stmts_.size(); ++j) {
      if (!graph.Ordered(i, j)) independent.emplace_back(i, j);
    }
  }
  return independent;
}

}  // namespace xmlup
