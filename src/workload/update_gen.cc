#include "workload/update_gen.h"

#include <deque>
#include <unordered_set>

namespace gsv {

UpdateGenerator::UpdateGenerator(ObjectStore* store, Oid root,
                                 UpdateGenOptions options)
    : store_(store),
      root_(std::move(root)),
      options_(std::move(options)),
      rng_(options_.seed) {
  Rescan();
}

void UpdateGenerator::Rescan() {
  sets_.clear();
  atoms_.clear();
  std::unordered_set<std::string> seen{root_.str()};
  std::deque<Oid> frontier{root_};
  while (!frontier.empty()) {
    Oid oid = frontier.front();
    frontier.pop_front();
    const Object* object = store_->Get(oid);
    if (object == nullptr) continue;
    if (object->IsSet()) {
      sets_.push_back(oid);
      for (const Oid& child : object->children()) {
        if (seen.insert(child.str()).second) frontier.push_back(child);
      }
    } else {
      atoms_.push_back(oid);
    }
  }
}

bool UpdateGenerator::Reachable(const Oid& from, const Oid& target) const {
  std::unordered_set<std::string> seen{from.str()};
  std::deque<Oid> frontier{from};
  while (!frontier.empty()) {
    Oid oid = frontier.front();
    frontier.pop_front();
    if (oid == target) return true;
    const Object* object = store_->Get(oid);
    if (object == nullptr || !object->IsSet()) continue;
    for (const Oid& child : object->children()) {
      if (seen.insert(child.str()).second) frontier.push_back(child);
    }
  }
  return false;
}

Result<Update> UpdateGenerator::TryModify() {
  if (atoms_.empty()) return Status::FailedPrecondition("no atomic objects");
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Oid& target = atoms_[rng_.Uniform(atoms_.size())];
    const Object* object = store_->Get(target);
    if (object == nullptr || !object->IsAtomic()) continue;
    Value old_value = object->value();
    Value new_value = Value::Int(rng_.UniformInt(0, options_.max_value - 1));
    GSV_RETURN_IF_ERROR(store_->Modify(target, new_value));
    return Update::Modify(target, std::move(old_value), std::move(new_value));
  }
  return Status::FailedPrecondition("no modifiable object found");
}

Result<Update> UpdateGenerator::TryDelete() {
  if (sets_.empty()) return Status::FailedPrecondition("no set objects");
  for (int attempt = 0; attempt < 16; ++attempt) {
    const Oid parent = sets_[rng_.Uniform(sets_.size())];  // outlives Rescan()
    const Object* object = store_->Get(parent);
    if (object == nullptr || !object->IsSet() || object->children().empty()) {
      continue;
    }
    const auto& children = object->children().elements();
    Oid child = children[rng_.Uniform(children.size())];
    GSV_RETURN_IF_ERROR(store_->Delete(parent, child));
    if (store_->Parents(child).empty()) detached_.push_back(child);
    Rescan();
    return Update::Delete(parent, child);
  }
  return Status::FailedPrecondition("no deletable edge found");
}

Result<Update> UpdateGenerator::TryInsert() {
  if (sets_.empty()) return Status::FailedPrecondition("no set objects");
  // A copy: Rescan() below reallocates sets_.
  const Oid parent = sets_[rng_.Uniform(sets_.size())];

  // Option 1: re-attach a detached subtree (tree-preserving by
  // construction: the subtree has no remaining parent). Skip candidates
  // that would create a cycle (parent inside the detached subtree).
  if (!detached_.empty() && rng_.Bernoulli(0.5)) {
    size_t index = rng_.Uniform(detached_.size());
    Oid child = detached_[index];
    if (store_->Contains(child) && !Reachable(child, parent)) {
      GSV_RETURN_IF_ERROR(store_->Insert(parent, child));
      detached_.erase(detached_.begin() + index);
      Rescan();
      return Update::Insert(parent, child);
    }
  }

  // Option 2 (DAG mode): link an existing node under a second parent.
  if (options_.mode == UpdateMode::kDagPreserving && !atoms_.empty() &&
      rng_.Bernoulli(0.5)) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::vector<Oid>& pool = rng_.Bernoulli(0.5) ? atoms_ : sets_;
      const Oid& child = pool[rng_.Uniform(pool.size())];
      if (child == parent || Reachable(child, parent)) continue;  // no cycle
      const Object* parent_obj = store_->Get(parent);
      if (parent_obj == nullptr || parent_obj->children().Contains(child)) {
        continue;  // duplicate insert would be a silent no-op; pick another
      }
      GSV_RETURN_IF_ERROR(store_->Insert(parent, child));
      return Update::Insert(parent, child);
    }
  }

  // Option 3: attach a fresh atomic leaf.
  const std::string& label =
      options_.leaf_labels[rng_.Uniform(options_.leaf_labels.size())];
  Oid fresh(options_.oid_prefix + std::to_string(fresh_counter_++));
  while (store_->Contains(fresh)) {
    fresh = Oid(options_.oid_prefix + std::to_string(fresh_counter_++));
  }
  GSV_RETURN_IF_ERROR(store_->PutAtomic(
      fresh, label, Value::Int(rng_.UniformInt(0, options_.max_value - 1))));
  GSV_RETURN_IF_ERROR(store_->Insert(parent, fresh));
  atoms_.push_back(fresh);
  return Update::Insert(parent, fresh);
}

Result<Update> UpdateGenerator::Step() {
  double total = options_.p_insert + options_.p_delete + options_.p_modify;
  double draw = rng_.NextDouble() * total;
  // Try the drawn kind first, then fall back to the others.
  int first = draw < options_.p_insert
                  ? 0
                  : (draw < options_.p_insert + options_.p_delete ? 1 : 2);
  for (int offset = 0; offset < 3; ++offset) {
    Result<Update> result = Status::Internal("unreachable");
    switch ((first + offset) % 3) {
      case 0:
        result = TryInsert();
        break;
      case 1:
        result = TryDelete();
        break;
      default:
        result = TryModify();
        break;
    }
    if (result.ok()) return result;
  }
  return Status::FailedPrecondition("no valid update possible");
}

Result<std::vector<Update>> UpdateGenerator::Run(size_t n) {
  std::vector<Update> updates;
  updates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GSV_ASSIGN_OR_RETURN(Update update, Step());
    updates.push_back(std::move(update));
  }
  return updates;
}

}  // namespace gsv
