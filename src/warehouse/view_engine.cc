#include "warehouse/view_engine.h"

#include <utility>

#include "warehouse/remote_accessor.h"
#include "warehouse/sharding.h"

namespace gsv {

Status ViewEngine::Validate(const ViewDefinition& def) {
  return def.IsSimple() ? Algorithm1Maintainer::ValidateDefinition(def)
                        : GdnEngine::ValidateDefinition(def);
}

// ---- Algorithm1Engine ----

Algorithm1Engine::Algorithm1Engine(const ViewDefinition& def,
                                   const ObjectStore* source, Oid root,
                                   SourceWrapper* wrapper,
                                   WarehouseCosts* costs,
                                   AuxiliaryCache* cache,
                                   const MaterializedView* view,
                                   const PathKnowledge& knowledge, Shard shard)
    : def_(def),
      pred_(def.predicate()),
      source_(source),
      root_(std::move(root)),
      wrapper_(wrapper),
      costs_(costs),
      cache_(cache),
      view_(view),
      shard_(shard),
      sel_path_(def.sel_path()),
      cond_path_(def.cond_path()),
      full_path_(def.full_path()) {
  SetPathKnowledge(knowledge);
}

void Algorithm1Engine::SetPathKnowledge(const PathKnowledge& knowledge) {
  relevant_labels_.clear();
  edge_labels_.clear();
  modify_labels_.clear();
  const Object* root_object = source_->Get(root_);
  std::string root_label =
      root_object != nullptr ? root_object->label() : std::string();
  size_t feasible = knowledge.FeasiblePrefix(root_label, full_path_);
  for (size_t i = 0; i < feasible; ++i) {
    relevant_labels_.insert(full_path_.label(i));
  }
  // A modify can only matter when the full path is feasible, the view has
  // a condition, and the modified object carries the condition's terminal
  // label (path(ROOT,N) = sel_path.cond_path implies label(N) is the last
  // corridor label).
  modify_relevant_ = feasible == full_path_.size() && pred_.has_value();
}

ViewEngine::Verdict Algorithm1Engine::Screen(const UpdateEvent& event) {
  // The skip rule: a shard maintains only the events routed to it; the
  // rest were forwarded for a hosted network.
  if (RouteShardOf(event, shard_.mask) != shard_.index) return Verdict::kSkip;
  // §5.1 local screening reads the labels that level >= 2 events carry.
  if (event.level < ReportingLevel::kWithValues) return Verdict::kEvaluate;
  bool relevant = true;
  if (event.kind == UpdateKind::kModify) {
    const std::string label = event.parent_object.has_value()
                                  ? event.parent_object->label()
                                  : std::string();
    auto [it, fresh] = modify_labels_.try_emplace(label, false);
    if (fresh) {
      it->second = modify_relevant_ && !full_path_.empty() &&
                   label == full_path_.back();
    }
    relevant = it->second;
  } else if (event.child_object.has_value()) {
    const std::string& label = event.child_object->label();
    auto [it, fresh] = edge_labels_.try_emplace(label, false);
    if (fresh) it->second = relevant_labels_.count(label) > 0;
    relevant = it->second;
  }
  return relevant ? Verdict::kEvaluate : Verdict::kSync;
}

Status Algorithm1Engine::Apply(const std::vector<ScreenedEvent>& events,
                               ViewStorage* out) {
  RemoteAccessor accessor(wrapper_, costs_);
  accessor.set_cache(cache_);
  Algorithm1Maintainer maintainer(out, &accessor, def_, root_);
  Status first_error;
  for (const auto& [event, verdict] : events) {
    Status status;
    accessor.ClearError();
    if (verdict != Verdict::kEvaluate) {
      status = out->SyncUpdate(event->ToUpdate());
    } else {
      accessor.set_current_event(event);
      if (event->kind == UpdateKind::kModify &&
          event->level == ReportingLevel::kOidsOnly) {
        status = Level1ModifyRecheck(*event, out, &accessor);
      } else {
        status = maintainer.Maintain(event->ToUpdate());
      }
      accessor.set_current_event(nullptr);
    }
    // A failed query-back surfaces through the accessor even when the
    // maintenance call itself reports success.
    if (status.ok()) status = accessor.last_error();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ += maintainer.stats();
  return first_error;
}

Status Algorithm1Engine::Level1ModifyRecheck(const UpdateEvent& event,
                                             ViewStorage* out,
                                             BaseAccessor* accessor) {
  // Level 1 reports only the OID of the modified object: the warehouse
  // must query for its current state (§5.1 scenario 1), then re-derive the
  // membership of every ancestor the change could affect.
  GSV_ASSIGN_OR_RETURN(Object object, wrapper_->FetchObject(event.parent));
  GSV_RETURN_IF_ERROR(out->SyncUpdate(
      Update::Modify(event.parent, object.value(), object.value())));
  if (!pred_.has_value()) return Status::Ok();
  if (full_path_.empty() || object.label() != full_path_.back()) {
    return Status::Ok();  // cannot lie at the corridor's end
  }
  for (const Oid& y : accessor->Ancestors(event.parent, cond_path_)) {
    if (!accessor->VerifyPath(root_, y, sel_path_)) continue;
    if (!accessor->EvalAny(y, cond_path_, pred_)) {
      GSV_RETURN_IF_ERROR(out->VDelete(y));
    } else {
      GSV_ASSIGN_OR_RETURN(Object y_object, accessor->Fetch(y));
      GSV_RETURN_IF_ERROR(out->VInsert(y_object));
    }
  }
  return Status::Ok();
}

Status Algorithm1Engine::Sweep(std::vector<Oid>* doomed) {
  // Re-derives each member along the simple corridor. An empty answer from
  // a down source is not evidence a member is underivable, so a failed
  // query-back aborts the sweep instead of dooming members.
  RemoteAccessor accessor(wrapper_, costs_);
  accessor.set_cache(cache_);
  const OidSet members = view_->BaseMembers();
  for (const Oid& member : members) {
    accessor.ClearError();
    bool derivable = accessor.VerifyPath(root_, member, sel_path_);
    if (derivable && pred_.has_value()) {
      derivable = accessor.EvalAny(member, cond_path_, pred_);
    }
    if (!accessor.last_error().ok()) return accessor.last_error();
    if (!derivable) doomed->push_back(member);
  }
  return Status::Ok();
}

namespace {

class NetworkEngine : public ViewEngine {
 public:
  NetworkEngine(const ObjectStore* base, const ViewDefinition& def, Oid root)
      : base_(base), network_(base, def, std::move(root)) {}

  Kind kind() const override { return Kind::kGdn; }
  // No §5.1 screening: the network must see every event to keep its memos
  // aligned with the base.
  Verdict Screen(const UpdateEvent&) override { return Verdict::kEvaluate; }
  Status Apply(const std::vector<ScreenedEvent>& events,
               ViewStorage* out) override {
    Status first_error;
    for (const ScreenedEvent& screened : events) {
      Status status = network_.Apply(screened.event->ToUpdateAt(*base_), out);
      if (!status.ok() && first_error.ok()) first_error = status;
    }
    return first_error;
  }
  // A poisoned network quarantines like a down source: its buffered deltas
  // are partial.
  bool Quarantines(const Status& failure) const override {
    return IsSourceFailure(failure) || network_.poisoned();
  }
  Status Initialize() override { return network_.Initialize(); }
  // Rebuild (this also clears a poisoned network), then Reconcile: a no-op
  // after a recompute, except on a sharded host, whose storage sees the
  // whole view and deletes the stale members peers still hold (a network
  // has no sweep).
  Status Heal(ViewStorage* out) override {
    GSV_RETURN_IF_ERROR(network_.Rebuild());
    return network_.Reconcile(out);
  }
  bool NeedsForwardedEvents() const override { return true; }
  void Explain(ShardedViewExplanation* out) const override {
    out->engine = "gdn";
    out->gdn_nodes = network_.node_count();
    out->gdn_matches = network_.match_count();
    out->gdn_propagations = network_.stats().propagations;
    out->gdn_rebuilds = network_.stats().rebuilds;
  }
  const GdnEngine* network() const override { return &network_; }

 private:
  const ObjectStore* base_;
  GdnEngine network_;
};

class SliceEngine : public ViewEngine {
 public:
  Kind kind() const override { return Kind::kGdn; }
  Verdict Screen(const UpdateEvent&) override { return Verdict::kSkip; }
  Status Apply(const std::vector<ScreenedEvent>&, ViewStorage*) override {
    return Status::Ok();
  }
  void Explain(ShardedViewExplanation* out) const override {
    out->engine = "gdn";
  }
};

}  // namespace

std::unique_ptr<ViewEngine> MakeNetworkEngine(const ObjectStore* base,
                                              const ViewDefinition& def,
                                              Oid root) {
  return std::make_unique<NetworkEngine>(base, def, std::move(root));
}

std::unique_ptr<ViewEngine> MakeSliceEngine() {
  return std::make_unique<SliceEngine>();
}

}  // namespace gsv
