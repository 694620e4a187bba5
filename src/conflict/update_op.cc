#include "conflict/update_op.h"

#include "common/check.h"
#include "eval/evaluator.h"

namespace xmlup {

Status ValidateDeletePattern(const Pattern& pattern) {
  if (pattern.output() == pattern.root()) {
    return Status::InvalidArgument("delete pattern must not select the root");
  }
  return Status::OK();
}

void InsertAt(Tree* t, const std::vector<NodeId>& points, const Tree& content,
              std::vector<NodeId>* copy_roots) {
  if (copy_roots != nullptr) {
    copy_roots->reserve(copy_roots->size() + points.size());
  }
  for (NodeId point : points) {
    const NodeId copy = t->GraftCopy(point, content, content.root());
    if (copy_roots != nullptr) copy_roots->push_back(copy);
  }
}

void DeleteAt(Tree* t, const std::vector<NodeId>& points,
              std::vector<NodeId>* removed) {
  for (NodeId point : points) {
    if (!t->alive(point)) continue;
    t->DeleteSubtree(point);
    if (removed != nullptr) removed->push_back(point);
  }
}

UpdateOp::UpdateOp(std::variant<InsertDesc, DeleteDesc> op)
    : op_(std::move(op)) {}

UpdateOp UpdateOp::MakeInsert(Pattern pattern,
                              std::shared_ptr<const Tree> content) {
  XMLUP_CHECK(content != nullptr && content->has_root());
  return UpdateOp(InsertDesc{std::move(pattern), std::move(content)});
}

Result<UpdateOp> UpdateOp::MakeDelete(Pattern pattern) {
  XMLUP_RETURN_NOT_OK(ValidateDeletePattern(pattern));
  return UpdateOp(DeleteDesc{std::move(pattern)});
}

UpdateOp UpdateOp::MakeInsert(std::shared_ptr<const PatternStore> store,
                              PatternRef pattern,
                              std::shared_ptr<const Tree> content) {
  XMLUP_CHECK(store != nullptr && pattern.valid());
  UpdateOp op = MakeInsert(store->pattern(pattern), std::move(content));
  op.store_ = std::move(store);
  op.pattern_ref_ = pattern;
  return op;
}

Result<UpdateOp> UpdateOp::MakeDelete(std::shared_ptr<const PatternStore> store,
                                      PatternRef pattern) {
  XMLUP_CHECK(store != nullptr && pattern.valid());
  XMLUP_ASSIGN_OR_RETURN(UpdateOp op, MakeDelete(store->pattern(pattern)));
  op.store_ = std::move(store);
  op.pattern_ref_ = pattern;
  return op;
}

UpdateOp UpdateOp::Bind(const std::shared_ptr<PatternStore>& store) const {
  XMLUP_CHECK(store != nullptr);
  // Already bound here: the stored pattern would re-intern to this ref.
  if (store_.get() == store.get() && pattern_ref_.valid()) return *this;
  const PatternRef ref = store->Intern(pattern());
  return Visit(
      [&](const InsertDesc& insert) {
        return MakeInsert(store, ref, insert.content);
      },
      [&](const DeleteDesc&) {
        // The original op passed the root check and minimization never
        // reroots the output, so re-construction cannot fail.
        Result<UpdateOp> bound = MakeDelete(store, ref);
        XMLUP_CHECK(bound.ok());
        return *std::move(bound);
      });
}

const Pattern& UpdateOp::pattern() const {
  return Visit([](const InsertDesc& i) -> const Pattern& { return i.pattern; },
               [](const DeleteDesc& d) -> const Pattern& { return d.pattern; });
}

const Tree& UpdateOp::content() const { return *shared_content(); }

const std::shared_ptr<const Tree>& UpdateOp::shared_content() const {
  const InsertDesc* insert = std::get_if<InsertDesc>(&op_);
  XMLUP_CHECK(insert != nullptr);  // content() is insert-only
  return insert->content;
}

UpdateOp::Applied UpdateOp::ApplyInPlace(Tree* t) const {
  Applied applied;
  std::vector<NodeId> points = Evaluate(pattern(), *t);
  Visit(
      [&](const InsertDesc& insert) {
        InsertAt(t, points, *insert.content, &applied.copy_roots);
        applied.points = std::move(points);
      },
      [&](const DeleteDesc&) { DeleteAt(t, points, &applied.points); });
  return applied;
}

void UpdateOp::ApplyAt(Tree* t, const std::vector<NodeId>& points) const {
  Visit(
      [&](const InsertDesc& insert) { InsertAt(t, points, *insert.content); },
      [&](const DeleteDesc&) { DeleteAt(t, points); });
}

}  // namespace xmlup
