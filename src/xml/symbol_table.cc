#include "xml/symbol_table.h"

#include "common/check.h"

namespace xmlup {

Label SymbolTable::Intern(std::string_view name) {
  MutexLock lock(mu_);
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  const Label label = static_cast<Label>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), label);
  return label;
}

Label SymbolTable::Lookup(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidLabel : it->second;
}

const std::string& SymbolTable::Name(Label label) const {
  MutexLock lock(mu_);
  XMLUP_DCHECK(label < names_.size()) << "label " << label << " out of range";
  return names_[label];
}

Label SymbolTable::Fresh(std::string_view prefix) {
  MutexLock lock(mu_);
  return FreshLocked(prefix);
}

std::vector<Label> SymbolTable::ReservedOutside(const std::set<Label>& taken,
                                                size_t count) {
  std::vector<Label> out;
  MutexLock lock(mu_);
  for (size_t i = 0; out.size() < count; ++i) {
    if (reserved_.size() <= i) reserved_.push_back(FreshLocked("alpha"));
    if (taken.count(reserved_[i]) == 0) out.push_back(reserved_[i]);
  }
  return out;
}

Label SymbolTable::FreshLocked(std::string_view prefix) {
  for (;;) {
    std::string candidate(prefix);
    candidate += '$';
    candidate += std::to_string(fresh_counter_++);
    if (index_.find(candidate) == index_.end()) {
      const Label label = static_cast<Label>(names_.size());
      names_.push_back(std::move(candidate));
      index_.emplace(names_.back(), label);
      return label;
    }
  }
}

size_t SymbolTable::size() const {
  MutexLock lock(mu_);
  return names_.size();
}

const std::shared_ptr<SymbolTable>& SymbolTable::Shared() {
  static const std::shared_ptr<SymbolTable>& table =
      *new std::shared_ptr<SymbolTable>(new SymbolTable());
  return table;
}

}  // namespace xmlup
