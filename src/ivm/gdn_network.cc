#include "ivm/gdn_network.h"

#include <string>
#include <utility>

namespace gsv {

Status GdnEngine::ValidateDefinition(const ViewDefinition& def) {
  if (def.query().ans_int_db.has_value()) {
    return Status::InvalidArgument(
        "the gdn engine cannot maintain ANS INT views (the intersection "
        "database is not event-monitored); got: " +
        def.ToString());
  }
  return Status::Ok();
}

GdnEngine::GdnEngine(const ObjectStore* base, const ViewDefinition& def,
                     Oid root)
    : GdnEngine(base, def, std::move(root), Options{}) {}

GdnEngine::GdnEngine(const ObjectStore* base, const ViewDefinition& def,
                     Oid root, Options options)
    : base_(base),
      def_(def),
      root_(std::move(root)),
      options_(options),
      reach_{path_internal::PathNfa(def_.query().select_path), nullptr, {}} {
  if (def_.query().within_db.has_value()) {
    within_name_ = *def_.query().within_db;
    within_oid_ = base_->DatabaseOid(within_name_);
  }
  // The Predicate objects live in the Condition's shared node tree, which
  // def_ keeps alive; each PathNfa points into them, so addresses must stay
  // stable — they do, the tree is immutable shared_ptr structure.
  const std::vector<const Predicate*> preds = def_.query().where.Predicates();
  sats_.reserve(preds.size());
  for (const Predicate* pred : preds) {
    sat_index_[pred] = sats_.size();
    sats_.push_back(MemoNode{path_internal::PathNfa(pred->path), pred, {}});
  }
}

bool GdnEngine::PassesFilter(const Oid& oid) const {
  if (within_name_.empty()) return true;
  return oid == root_ || base_->InDatabase(within_name_, oid);
}

void GdnEngine::ChargeBudget(size_t units) {
  budget_used_ += units;
  if (budget_ != 0 && budget_used_ > budget_) poisoned_ = true;
}

size_t GdnEngine::match_count() const {
  size_t total = reach_.table.size();
  for (const MemoNode& sat : sats_) total += sat.table.size();
  return total;
}

// ---- Support-set maintenance ----

void GdnEngine::AddSupport(MemoNode& node, uint64_t src, uint64_t dst) {
  if (poisoned_) return;
  Match* src_match = nullptr;
  if (src != kAxiom) {
    auto sit = node.table.find(src);
    if (sit == node.table.end()) return;  // a dead source derives nothing
    src_match = &sit->second;
  }
  auto [it, created] = node.table.try_emplace(dst);
  if (!it->second.in.insert(src).second) return;  // already linked
  ++stats_.propagations;
  ChargeBudget(1);
  // Rehashing moves buckets but never elements; src_match stays valid.
  if (src_match != nullptr) src_match->out.insert(dst);
  if (!created) return;
  ++stats_.matches_created;
  touched_.insert(static_cast<uint32_t>(dst >> 32));
  pending_.push_back(dst);
  if (cascading_) return;  // the outermost call drains the worklist
  cascading_ = true;
  while (!pending_.empty()) {
    if (poisoned_) {
      pending_.clear();
      break;
    }
    const uint64_t key = pending_.front();
    pending_.pop_front();
    DeriveOut(node, key);
  }
  cascading_ = false;
}

void GdnEngine::RemoveSupport(MemoNode& node, uint64_t src, uint64_t dst) {
  if (poisoned_) return;
  auto it = node.table.find(dst);
  if (it == node.table.end()) return;
  if (it->second.in.erase(src) == 0) return;
  ++stats_.propagations;
  ChargeBudget(1);
  if (src != kAxiom) {
    auto sit = node.table.find(src);
    if (sit != node.table.end()) sit->second.out.erase(dst);
  }
  // Still axiomatic: definitely alive. Anything else needs a region proof —
  // a non-empty in-set is not evidence on cyclic support graphs, where a
  // detached cycle sustains itself.
  if (it->second.in.count(kAxiom) != 0) return;
  ReevaluateRegion(node, dst);
}

void GdnEngine::DeriveOut(MemoNode& node, uint64_t key) {
  if (node.table.find(key) == node.table.end()) return;
  const Oid oid = OidOf(key);
  const int state = StateOf(key);
  const Object* object = base_->Get(oid);
  if (object == nullptr) return;
  if (node.pred == nullptr) {
    // Reach: run the select NFA forward into the children, exactly the
    // expansion step of EvalExpression (filter gates the child; a missing
    // child object is skipped).
    if (!object->IsSet()) return;
    for (const Oid& child : object->children()) {
      if (!PassesFilter(child)) continue;
      const Object* child_object = base_->Get(child);
      if (child_object == nullptr) continue;
      for (int next : node.nfa.Step(state, child_object->label())) {
        AddSupport(node, key, KeyOf(child, next));
        if (poisoned_) return;
      }
    }
    return;
  }
  // Sat: climb to the parents backward through the predicate NFA. This
  // match is the *child* endpoint of every climbed edge, so its own filter
  // gates the climb — the start object of a condition path is exempt only
  // at the read site (CondHolds), mirroring the entry exemption of the
  // forward evaluator.
  if (!PassesFilter(oid)) return;
  const std::string& label = object->label();
  const int states = static_cast<int>(node.nfa.state_count());
  for (const Oid& parent : base_->Parents(oid)) {
    const Object* parent_object = base_->Get(parent);
    if (parent_object == nullptr || !parent_object->IsSet()) continue;
    for (int t = 0; t < states; ++t) {
      for (int next : node.nfa.Step(t, label)) {
        if (next == state) {
          AddSupport(node, key, KeyOf(parent, t));
          break;
        }
      }
      if (poisoned_) return;
    }
  }
}

void GdnEngine::ReevaluateRegion(MemoNode& node, uint64_t seed) {
  if (node.table.find(seed) == node.table.end()) return;
  // The affected region is the out-closure of the removal target: every
  // match whose derivation could route through it. Matches outside the
  // region cannot depend on it (they would be in the closure), so their
  // aliveness is unchanged and they count as external proof below.
  std::vector<uint64_t> region;
  std::unordered_set<uint64_t> in_region;
  region.push_back(seed);
  in_region.insert(seed);
  for (size_t i = 0; i < region.size(); ++i) {
    auto it = node.table.find(region[i]);
    if (it == node.table.end()) continue;
    for (uint64_t next : it->second.out) {
      if (in_region.insert(next).second) region.push_back(next);
    }
  }
  ChargeBudget(region.size());
  if (poisoned_) return;
  // Re-prove aliveness: seed from members with an axiom or external
  // in-support, then spread along support edges inside the region.
  std::deque<uint64_t> queue;
  std::unordered_set<uint64_t> alive;
  for (uint64_t key : region) {
    const Match& match = node.table.find(key)->second;
    for (uint64_t src : match.in) {
      if (src == kAxiom || in_region.count(src) == 0) {
        if (alive.insert(key).second) queue.push_back(key);
        break;
      }
    }
  }
  while (!queue.empty()) {
    const uint64_t key = queue.front();
    queue.pop_front();
    for (uint64_t next : node.table.find(key)->second.out) {
      if (in_region.count(next) != 0 && alive.insert(next).second) {
        queue.push_back(next);
      }
    }
  }
  if (alive.size() == region.size()) return;
  std::vector<uint64_t> dead;
  std::unordered_set<uint64_t> dead_set;
  for (uint64_t key : region) {
    if (alive.count(key) == 0) {
      dead.push_back(key);
      dead_set.insert(key);
    }
  }
  for (uint64_t key : dead) {
    Match& match = node.table.find(key)->second;
    for (uint64_t src : match.in) {
      if (src == kAxiom || dead_set.count(src) != 0) continue;
      auto sit = node.table.find(src);
      if (sit != node.table.end()) sit->second.out.erase(key);
    }
    for (uint64_t dst : match.out) {
      if (dead_set.count(dst) != 0) continue;
      auto dit = node.table.find(dst);
      // The region proof showed dst alive, so it keeps another live
      // support path; dropping this edge cannot kill it.
      if (dit != node.table.end()) dit->second.in.erase(key);
    }
    ++stats_.matches_freed;
    ++stats_.propagations;
    touched_.insert(static_cast<uint32_t>(key >> 32));
  }
  for (uint64_t key : dead) node.table.erase(key);
  ChargeBudget(dead.size());
}

// ---- Event reconciliation ----

void GdnEngine::ReconcileEdge(const Oid& parent, const Oid& child) {
  const Object* parent_object = base_->Get(parent);
  const Object* child_object = base_->Get(child);
  const bool edge = parent_object != nullptr && parent_object->IsSet() &&
                    parent_object->children().Contains(child);
  const bool derivable =
      edge && child_object != nullptr && PassesFilter(child);
  {
    const int states = static_cast<int>(reach_.nfa.state_count());
    for (int sp = 0; sp < states; ++sp) {
      const uint64_t src = KeyOf(parent, sp);
      if (reach_.table.find(src) == reach_.table.end()) continue;
      if (derivable) {
        for (int sc : reach_.nfa.Step(sp, child_object->label())) {
          AddSupport(reach_, src, KeyOf(child, sc));
        }
      } else {
        for (int sc = 0; sc < states; ++sc) {
          RemoveSupport(reach_, src, KeyOf(child, sc));
        }
      }
      if (poisoned_) return;
    }
  }
  for (MemoNode& sat : sats_) {
    const int states = static_cast<int>(sat.nfa.state_count());
    for (int sc = 0; sc < states; ++sc) {
      const uint64_t src = KeyOf(child, sc);
      if (sat.table.find(src) == sat.table.end()) continue;
      if (derivable) {
        for (int t = 0; t < states; ++t) {
          for (int next : sat.nfa.Step(t, child_object->label())) {
            if (next == sc) {
              AddSupport(sat, src, KeyOf(parent, t));
              break;
            }
          }
        }
      } else {
        for (int t = 0; t < states; ++t) {
          RemoveSupport(sat, src, KeyOf(parent, t));
        }
      }
      if (poisoned_) return;
    }
  }
}

void GdnEngine::RefreshSatAxioms(const Oid& oid) {
  const Object* object = base_->Get(oid);
  const bool atomic = object != nullptr && object->IsAtomic();
  for (MemoNode& sat : sats_) {
    const bool want = atomic && sat.pred->Holds(object->value());
    const int states = static_cast<int>(sat.nfa.state_count());
    for (int s = 0; s < states; ++s) {
      if (!sat.nfa.IsAccepting(s)) continue;
      const uint64_t key = KeyOf(oid, s);
      if (want) {
        AddSupport(sat, kAxiom, key);
      } else {
        RemoveSupport(sat, kAxiom, key);
      }
      if (poisoned_) return;
    }
  }
}

void GdnEngine::RefreshFilterAt(const Oid& event_parent, const Oid& child) {
  // A scoping-database edge both is a real graph edge and flips filter()
  // for the child: re-derive the event edge itself plus every other edge
  // whose *filtered* endpoint is the child (reach edges into it, sat climbs
  // out of it). Edges where the child is the parent endpoint are ungated
  // by its filter and stay put.
  RefreshSatAxioms(child);
  if (poisoned_) return;
  ReconcileEdge(event_parent, child);
  if (poisoned_) return;
  for (const Oid& parent : base_->Parents(child)) {
    if (parent == event_parent) continue;
    ReconcileEdge(parent, child);
    if (poisoned_) return;
  }
}

void GdnEngine::MarkKnown(const Oid& oid) {
  const uint32_t id = oid.id();
  if (id / 64 >= known_.size()) known_.resize(id / 64 + 1, 0);
  known_[id / 64] |= uint64_t{1} << (id % 64);
}

void GdnEngine::AbsorbUnknown(const Oid& top) {
  // Marking on discovery keeps shared (DAG) descendants to one visit.
  std::vector<Oid> stack = {top};
  MarkKnown(top);
  while (!stack.empty() && !poisoned_) {
    const Oid oid = stack.back();
    stack.pop_back();
    RefreshSatAxioms(oid);
    const Object* object = base_->Get(oid);
    if (object == nullptr || !object->IsSet()) continue;
    for (const Oid& child : object->children()) {
      ReconcileEdge(oid, child);
      if (poisoned_) return;
      if (!IsKnown(child)) {
        MarkKnown(child);
        stack.push_back(child);
      }
    }
  }
}

// ---- Membership ----

bool GdnEngine::ReachAccepting(const Oid& oid) const {
  const int states = static_cast<int>(reach_.nfa.state_count());
  for (int s = 0; s < states; ++s) {
    if (reach_.nfa.IsAccepting(s) &&
        reach_.table.count(KeyOf(oid, s)) != 0) {
      return true;
    }
  }
  return false;
}

bool GdnEngine::CondHolds(const Oid& oid) const {
  const Condition& where = def_.query().where;
  if (where.IsTrivial()) return true;
  return where.EvaluateWith([this, &oid](const Predicate& pred) {
    auto it = sat_index_.find(&pred);
    if (it == sat_index_.end()) return false;
    const MemoNode& sat = sats_[it->second];
    for (int s : sat.nfa.start_states()) {
      if (sat.table.count(KeyOf(oid, s)) != 0) return true;
    }
    return false;
  });
}

bool GdnEngine::IsMember(const Oid& oid) const {
  return ReachAccepting(oid) && CondHolds(oid);
}

Status GdnEngine::EmitChanges(ViewStorage* out) {
  if (touched_.empty()) return Status::Ok();
  std::vector<Oid> oids;
  oids.reserve(touched_.size());
  for (uint32_t id : touched_) oids.push_back(Oid::FromId(id));
  SortOidsLexicographic(&oids);  // deterministic emission order
  for (const Oid& oid : oids) {
    const bool now = IsMember(oid);
    const bool was = members_.Contains(oid);
    if (now == was) continue;
    if (now) {
      const Object* object = base_->Get(oid);
      if (object == nullptr) continue;  // cannot materialize a ghost
      members_.Insert(oid);
      GSV_RETURN_IF_ERROR(out->VInsert(*object));
      ++stats_.v_inserts;
    } else {
      members_.Erase(oid);
      GSV_RETURN_IF_ERROR(out->VDelete(oid));
      ++stats_.v_deletes;
    }
  }
  touched_.clear();
  return Status::Ok();
}

// ---- Driving ----

Status GdnEngine::Apply(const Update& update, ViewStorage* out) {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "gdn network is poisoned (propagation budget exhausted); "
        "Rebuild() required");
  }
  ++stats_.updates;
  const bool parent_was_member = members_.Contains(update.parent);
  touched_.clear();
  budget_used_ = 0;
  budget_ = options_.max_propagations_per_update;
  switch (update.kind) {
    case UpdateKind::kInsert:
    case UpdateKind::kDelete:
      // The store Put() is silent: the child may head a region the network
      // has never seen.
      if (!IsKnown(update.child)) AbsorbUnknown(update.child);
      if (poisoned_) break;
      if (within_oid_.valid() && update.parent == within_oid_) {
        RefreshFilterAt(update.parent, update.child);
      } else {
        ReconcileEdge(update.parent, update.child);
      }
      break;
    case UpdateKind::kModify:
      RefreshSatAxioms(update.parent);
      touched_.insert(update.parent.id());
      break;
  }
  budget_ = 0;
  if (poisoned_) {
    pending_.clear();
    return Status::FailedPrecondition(
        "gdn propagation budget exhausted applying " + update.ToString() +
        "; network poisoned, resync required");
  }
  GSV_RETURN_IF_ERROR(EmitChanges(out));
  if (update.kind == UpdateKind::kModify &&
      members_.Contains(update.parent)) {
    // Sync the surviving member's delegate value from the *store* (the
    // event may carry no values at reporting level 1).
    const Object* object = base_->Get(update.parent);
    if (object != nullptr) {
      GSV_RETURN_IF_ERROR(out->SyncUpdate(
          Update::Modify(update.parent, update.old_value, object->value())));
    }
  } else if (update.kind != UpdateKind::kModify && parent_was_member &&
             members_.Contains(update.parent)) {
    // Insert/delete under a continuing member: the delegate's child set
    // must track the base (§3.2). A member VInserted above already copied
    // its full current value, so only was-and-still members sync here. The
    // sync carries the edge's truth in the store, not the event's kind, as
    // the network does: an event applied late (a drain re-applying its
    // batch after a resync) must not put back an edge the base has lost.
    const Object* parent = base_->Get(update.parent);
    const bool edge = parent != nullptr && parent->IsSet() &&
                      parent->children().Contains(update.child);
    GSV_RETURN_IF_ERROR(
        out->SyncUpdate(edge ? Update::Insert(update.parent, update.child)
                             : Update::Delete(update.parent, update.child)));
  }
  return Status::Ok();
}

Status GdnEngine::Initialize() {
  poisoned_ = false;
  reach_.table.clear();
  for (MemoNode& sat : sats_) sat.table.clear();
  members_.clear();
  // Everything in the base is absorbed below.
  known_.clear();
  base_->ForEach([this](const Object& object) { MarkKnown(object.oid()); });
  touched_.clear();
  pending_.clear();
  budget_ = 0;  // rebuilds are never budget-limited
  budget_used_ = 0;
  ++stats_.rebuilds;
  if (!within_name_.empty()) within_oid_ = base_->DatabaseOid(within_name_);

  // Sat leaves: each predicate's witnesses. When the predicate path ends in
  // a concrete label, one sweep of that label's value postings answers the
  // comparison in place (bucketed int32s decode exactly; other values are
  // confirmed against the store) — the PR 3 postings are the network's leaf
  // nodes. Wildcard tails fall back to a store scan. Seeds are collected
  // first and cascaded after, so no cascade runs mid-iteration.
  LabelIndexSnapshotPtr snapshot = base_->AcquireIndexSnapshot();
  for (MemoNode& sat : sats_) {
    std::vector<Oid> seeds;
    const PathExpression& path = sat.pred->path;
    const bool concrete_tail =
        path.size() > 0 && path.atoms().back().kind == PathAtom::Kind::kLabel;
    if (snapshot != nullptr && concrete_tail) {
      const std::string& label = path.atoms().back().label;
      if (const Postings* values = snapshot->Values(label)) {
        values->Scan([&](uint64_t v) {
          const int64_t decoded = static_cast<int64_t>(PairLo(v)) + INT32_MIN;
          if (sat.pred->Holds(Value::Int(decoded))) {
            seeds.push_back(Oid::FromId(PairHi(v)));
          }
        });
      }
      if (const Postings* other = snapshot->ValuesOther(label)) {
        other->Scan([&](uint64_t v) {
          const Oid oid = Oid::FromId(static_cast<uint32_t>(v));
          const Object* object = base_->Get(oid);
          if (object != nullptr && object->IsAtomic() &&
              sat.pred->Holds(object->value())) {
            seeds.push_back(oid);
          }
        });
      }
    } else {
      base_->ForEach([&](const Object& object) {
        if (object.IsAtomic() && sat.pred->Holds(object.value())) {
          seeds.push_back(object.oid());
        }
      });
    }
    for (const Oid& seed : seeds) SeedSatAxioms(sat, seed);
  }

  // Reach: one axiom per start state at the root; the creation cascade
  // unrolls the whole forward memo from there.
  if (base_->Contains(root_)) {
    for (int s : reach_.nfa.start_states()) {
      AddSupport(reach_, kAxiom, KeyOf(root_, s));
    }
  }

  // Members straight from the fresh memos.
  std::vector<Oid> candidates;
  std::unordered_set<uint32_t> seen;
  for (const auto& [key, match] : reach_.table) {
    (void)match;
    if (!reach_.nfa.IsAccepting(StateOf(key))) continue;
    const uint32_t id = static_cast<uint32_t>(key >> 32);
    if (seen.insert(id).second) candidates.push_back(Oid::FromId(id));
  }
  for (const Oid& candidate : candidates) {
    if (CondHolds(candidate)) members_.Insert(candidate);
  }
  touched_.clear();
  return Status::Ok();
}

void GdnEngine::SeedSatAxioms(MemoNode& sat, const Oid& oid) {
  const int states = static_cast<int>(sat.nfa.state_count());
  for (int s = 0; s < states; ++s) {
    if (sat.nfa.IsAccepting(s)) AddSupport(sat, kAxiom, KeyOf(oid, s));
  }
}

Status GdnEngine::Reconcile(ViewStorage* out) {
  const OidSet current = out->BaseMembers();
  for (const Oid& member : members_) {
    if (current.Contains(member)) continue;
    const Object* object = base_->Get(member);
    if (object == nullptr) continue;
    GSV_RETURN_IF_ERROR(out->VInsert(*object));
    ++stats_.v_inserts;
  }
  for (const Oid& member : current) {
    if (members_.Contains(member)) continue;
    GSV_RETURN_IF_ERROR(out->VDelete(member));
    ++stats_.v_deletes;
  }
  return Status::Ok();
}

// ---- Listener adapter ----

Status GdnListener::Initialize() {
  GSV_RETURN_IF_ERROR(engine_.Initialize());
  return engine_.Reconcile(out_);
}

void GdnListener::OnUpdate(const ObjectStore& store, const Update& update) {
  (void)store;
  Status status = engine_.Apply(update, out_);
  if (!status.ok()) last_status_ = status;
}

}  // namespace gsv
