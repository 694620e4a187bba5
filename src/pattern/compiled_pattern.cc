#include "pattern/compiled_pattern.h"

#include "pattern/pattern_ops.h"

namespace xmlup {

CompiledPattern::CompiledPattern(const Pattern& stored)
    : mainline_(Mainline(stored)) {
  // The mainline is linear: walk its single chain root→output.
  for (PatternNodeId n = mainline_.root(); n != kNullPatternNode;
       n = mainline_.first_child(n)) {
    chain_.push_back(n);
    classes_.push_back(mainline_.is_wildcard(n)
                           ? LabelClass::Any()
                           : LabelClass::Of(mainline_.label(n)));
    axes_.push_back(n == mainline_.root() ? Axis::kChild : mainline_.axis(n));
  }
  bytes_ = sizeof(CompiledPattern) + mainline_.size() * 24 /* Pattern::Node */ +
           chain_.size() *
               (sizeof(PatternNodeId) + sizeof(LabelClass) + sizeof(Axis));
}

}  // namespace xmlup
