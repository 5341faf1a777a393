#include "warehouse/warehouse.h"

#include "core/recompute.h"
#include "util/retry.h"

namespace gsv {

// The constructor and destructor live in warehouse_durability.cc, where
// WarehouseDurability is a complete type for the unique_ptr member.

Status Warehouse::ConnectSource(ObjectStore* source, Oid source_root,
                                ReportingLevel level, std::string name) {
  return ConnectSourceInternal(source, std::move(source_root), level,
                               std::move(name), /*install_monitor=*/true);
}

Status Warehouse::ConnectSourceRouted(ObjectStore* source, Oid source_root,
                                      std::string name) {
  // The reporting level rides on the routed events themselves; the entry
  // only needs the wrapper and the sequence domain.
  return ConnectSourceInternal(source, std::move(source_root),
                               ReportingLevel::kWithValues, std::move(name),
                               /*install_monitor=*/false);
}

Status Warehouse::ConnectSourceInternal(ObjectStore* source, Oid source_root,
                                        ReportingLevel level, std::string name,
                                        bool install_monitor) {
  if (!source->Contains(source_root)) {
    return Status::NotFound("source root " + source_root.str() +
                            " not found at source");
  }
  if (name.empty()) name = "source" + std::to_string(sources_.size() + 1);
  for (const auto& existing : sources_) {
    if (existing->name == name) {
      return Status::AlreadyExists("source '" + name + "' already connected");
    }
    if (existing->root == source_root) {
      return Status::AlreadyExists("a source with root " + source_root.str() +
                                   " is already connected");
    }
  }

  auto entry = std::make_unique<SourceEntry>();
  entry->name = std::move(name);
  entry->store = source;
  entry->root = std::move(source_root);
  entry->wrapper = std::make_unique<SourceWrapper>(source, &costs_);
  if (install_monitor) {
    size_t index = sources_.size();
    entry->monitor = std::make_unique<SourceMonitor>(
        level, entry->root,
        [this, index](const UpdateEvent& event) { OnEvent(index, event); });
    source->AddListener(entry->monitor.get());
  }
  sources_.push_back(std::move(entry));
  return Status::Ok();
}

Status Warehouse::BindShard(uint32_t shard_index, uint32_t shard_mask,
                            const CrossShardResolver* resolver) {
  if (!views_.empty()) {
    return Status::FailedPrecondition("BindShard before any DefineView");
  }
  if ((shard_index & shard_mask) != shard_index) {
    return Status::InvalidArgument("shard index outside the mask");
  }
  binding_ = ShardBinding{shard_index, shard_mask, resolver};
  return Status::Ok();
}

uint64_t Warehouse::last_delivered_sequence(
    const std::string& source_name) const {
  for (const auto& source : sources_) {
    if (source->name == source_name) return source->next_sequence - 1;
  }
  return 0;
}

Status Warehouse::ApplyForeignOps(const std::vector<ForeignViewOp>& ops) {
  Status first_error;
  ViewEntry* entry = nullptr;  // producers emit runs of ops on one view
  for (const ForeignViewOp& op : ops) {
    const ViewDelta& delta = op.delta;
    // Ops for members other shards own are someone else's to apply. The
    // coordinator hands every producer outbox to every shard unfiltered —
    // the scan here is cheap and parallel, where pre-bucketing the ops by
    // owner would serialize a move of every op on the coordinator.
    if (binding_.has_value() &&
        ShardOfOid(delta.target(), binding_->shard_mask) !=
            binding_->shard_index) {
      continue;
    }
    if (entry == nullptr || entry->def.name() != op.view) {
      entry = FindEntry(op.view);
    }
    if (entry == nullptr) {
      if (first_error.ok()) {
        first_error =
            Status::NotFound("foreign op for unknown view '" + op.view + "'");
      }
      continue;
    }
    // A quarantined view skips the op: its post-resync recompute derives
    // the full current membership, which subsumes anything a peer computed.
    if (entry->stale) continue;
    ++costs_.cross_shard_applies;
    // A foreign kRefresh is an upsert of the member's drain-end state: the
    // producer cannot see whether this owner holds the delegate yet.
    MaterializedView* view = entry->view.get();
    Status status = delta.op() == ViewDeltaOp::kRefresh &&
                            !view->ContainsBase(delta.target())
                        ? view->VInsert(delta.object())
                        : delta.ApplyTo(view);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  if (!first_error.ok()) last_status_ = first_error;
  return first_error;
}

void Warehouse::PruneForeignMembers(ViewEntry& entry, bool export_members) {
  if (entry.scoped == nullptr) return;
  const SourceEntry& source = SourceOf(entry);
  const OidSet members = entry.view->BaseMembers();
  for (const Oid& member : members) {
    if (entry.scoped->Owns(member)) continue;
    if (export_members) {
      // The scoped storage exports a foreign V_insert as a kRefresh.
      const Object* object = source.store->Get(member);
      if (object != nullptr) entry.scoped->VInsert(*object);
    }
    entry.view->VDelete(member);
  }
}

void Warehouse::SetPathKnowledge(PathKnowledge knowledge) {
  knowledge_ = std::move(knowledge);
  for (auto& entry : views_) RecomputeRelevantLabels(*entry);
}

SourceMonitor* Warehouse::monitor() {
  return sources_.size() == 1 ? sources_[0]->monitor.get() : nullptr;
}

void Warehouse::RecomputeRelevantLabels(ViewEntry& entry) {
  // Only Algorithm 1 views have the constant corridor the screening labels
  // come from (and only their entries may call the IsSimple projections).
  if (entry.engine != EngineKind::kAlgorithm1) return;
  entry.relevant_labels.clear();
  const SourceEntry& source = *sources_[entry.source_index];
  const Object* root_object = source.store->Get(source.root);
  std::string root_label =
      root_object != nullptr ? root_object->label() : std::string();
  size_t feasible = knowledge_.FeasiblePrefix(root_label, entry.full_path);
  for (size_t i = 0; i < feasible; ++i) {
    entry.relevant_labels.insert(entry.full_path.label(i));
  }
  // A modify can only matter when the full path is feasible, the view has
  // a condition, and the modified object carries the condition's terminal
  // label (path(ROOT,N) = sel_path.cond_path implies label(N) is the last
  // corridor label).
  entry.modify_relevant = feasible == entry.full_path.size() &&
                          entry.def.predicate().has_value();
}

Result<size_t> Warehouse::ResolveSourceIndex(
    const std::string& source_name) const {
  if (source_name.empty()) {
    if (sources_.size() > 1) {
      return Status::InvalidArgument(
          "several sources are connected; name one in DefineView");
    }
    return size_t{0};
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i]->name == source_name) return i;
  }
  return Status::NotFound("unknown source '" + source_name + "'");
}

Result<std::unique_ptr<Warehouse::ViewEntry>> Warehouse::BuildViewEntry(
    size_t source_index, std::string_view definition, CacheMode cache_mode) {
  SourceEntry& source = *sources_[source_index];

  GSV_ASSIGN_OR_RETURN(ViewDefinition def, ViewDefinition::Parse(definition));
  // Simple views (§4.2) run Algorithm 1; every other accepted shape runs
  // the discrimination network.
  const bool simple = def.IsSimple();
  if (simple) {
    GSV_RETURN_IF_ERROR(Algorithm1Maintainer::ValidateDefinition(def));
  } else {
    GSV_RETURN_IF_ERROR(GdnEngine::ValidateDefinition(def));
  }
  Oid entry_oid = source.store->DatabaseOid(def.query().entry);
  if (!entry_oid.valid()) entry_oid = Oid(def.query().entry);
  if (entry_oid != source.root) {
    return Status::InvalidArgument(
        "view entry '" + def.query().entry +
        "' must resolve to the root of source '" + source.name + "' (" +
        source.root.str() + ")");
  }

  auto entry = std::make_unique<ViewEntry>(def);
  entry->source_index = source_index;
  entry->definition_text = std::string(definition);
  entry->cache_mode = cache_mode;
  entry->engine = simple ? EngineKind::kAlgorithm1 : EngineKind::kGdn;
  if (simple) {
    // The constant-path projections (and the screening labels derived from
    // them) exist only for the simple shape.
    entry->sel_path = def.sel_path();
    entry->cond_path = def.cond_path();
    entry->full_path = def.full_path();
    RecomputeRelevantLabels(*entry);
  }

  entry->view = std::make_unique<MaterializedView>(store_, def);
  if (cache_mode != CacheMode::kNone) {
    if (entry->engine != EngineKind::kAlgorithm1) {
      // Corridor caches mirror the single constant select/condition
      // corridor; the general view classes have no such corridor.
      return Status::InvalidArgument(
          "auxiliary caches require a simple (Algorithm 1) view");
    }
    // Corridor caches hold whole-source subtrees, which cuts across the
    // ownership partition; a sharded deployment runs cache-less shards.
    if (binding_.has_value()) {
      return Status::InvalidArgument(
          "sharded warehouses support CacheMode::kNone only");
    }
    entry->cache = std::make_unique<AuxiliaryCache>(
        cache_mode == CacheMode::kFull ? AuxiliaryCache::Mode::kFull
                                       : AuxiliaryCache::Mode::kLabelsOnly,
        source.root, entry->full_path, options_.aux_engine_factory);
  }
  if (binding_.has_value()) {
    entry->scoped = std::make_unique<ShardScopedStorage>(
        entry->view.get(), source.store, binding_->shard_index,
        binding_->shard_mask, binding_->resolver, &outbox_, &costs_);
  }
  entry->accessor =
      std::make_unique<RemoteAccessor>(source.wrapper.get(), &costs_);
  if (entry->cache != nullptr) entry->accessor->set_cache(entry->cache.get());
  if (entry->engine == EngineKind::kAlgorithm1) {
    entry->maintainer = std::make_unique<Algorithm1Maintainer>(
        entry->storage(), entry->accessor.get(), def, source.root);
  } else if (!binding_.has_value() ||
             HostShardOf(def, binding_->shard_mask) ==
                 binding_->shard_index) {
    // The network reads the base store directly (centralized setting;
    // query-backs are not metered for it — see DESIGN.md §4j). Of a
    // sharded warehouse only the view's host builds one; its scoped
    // storage exports the ops for members the host does not own.
    entry->gdn = std::make_unique<GdnEngine>(source.store, def, source.root);
  }
  return entry;
}

Status Warehouse::DefineView(std::string_view definition,
                             CacheMode cache_mode,
                             const std::string& source_name) {
  if (sources_.empty()) {
    return Status::FailedPrecondition("connect a source before DefineView");
  }
  GSV_ASSIGN_OR_RETURN(size_t source_index, ResolveSourceIndex(source_name));
  SourceEntry& source = *sources_[source_index];

  GSV_ASSIGN_OR_RETURN(std::unique_ptr<ViewEntry> entry,
                       BuildViewEntry(source_index, definition, cache_mode));

  // What can fail must fail before the definition is logged: the next
  // commit would certify a kViewDef, and recovery would re-bootstrap a view
  // this warehouse never got. So a name clash is rejected here, and the
  // corridor cache, the discrimination network and the member evaluation
  // (each reads only the source) run first.
  const std::string& name = entry->def.name();
  if (view(name) != nullptr || store_->Contains(entry->def.view_oid()) ||
      store_->DatabaseOid(name).valid()) {
    return Status::AlreadyExists("view '" + name +
                                 "' is already defined in the delegate store");
  }
  if (entry->cache != nullptr) {
    GSV_RETURN_IF_ERROR(entry->cache->Initialize(source.wrapper.get()));
  }
  // The network seeds its memo tables from the base state the view
  // materializes from below; both derive the same members.
  if (entry->gdn != nullptr) {
    GSV_RETURN_IF_ERROR(entry->gdn->Initialize());
  }
  // Initial materialization reads the source directly: it is part of view
  // setup, not of incremental maintenance (§4 assumes an initially correct
  // materialized view).
  GSV_ASSIGN_OR_RETURN(std::vector<const Object*> members,
                       entry->view->ResolveMembers(*source.store));

  // Log the definition (and, via the delta sink, the initial membership)
  // before materializing, so recovery can re-bootstrap the view from the
  // log alone when no checkpoint covers it yet.
  LogViewDef(entry->definition_text, cache_mode, source.name);
  AttachSink(entry->view.get());
  GSV_RETURN_IF_ERROR(entry->view->Materialize(members));
  // Every shard of a partitioned warehouse runs this same initialization,
  // so each just drops the members it doesn't own — no exports needed.
  PruneForeignMembers(*entry, /*export_members=*/false);
  views_.push_back(std::move(entry));
  LogCommit();
  StorageQuiescent();
  return Status::Ok();
}

Warehouse::ViewEntry* Warehouse::FindEntry(const std::string& name) const {
  for (const auto& entry : views_) {
    if (entry->def.name() == name) return entry.get();
  }
  return nullptr;
}

MaterializedView* Warehouse::view(const std::string& name) {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->view.get() : nullptr;
}

std::vector<std::string> Warehouse::view_names() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& entry : views_) names.push_back(entry->def.name());
  return names;
}

const Algorithm1Maintainer* Warehouse::maintainer(
    const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->maintainer.get() : nullptr;
}

const AuxiliaryCache* Warehouse::cache(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->cache.get() : nullptr;
}

Warehouse::EngineKind Warehouse::view_engine(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->engine : EngineKind::kAlgorithm1;
}

const GdnEngine* Warehouse::gdn_engine(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->gdn.get() : nullptr;
}

std::string Warehouse::view_source(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? SourceOf(*entry).name : std::string();
}

ShardedViewExplanation Warehouse::ExplainView(const std::string& name) const {
  ShardedViewExplanation out;
  out.view = name;
  out.shards = 1;
  if (const ViewEntry* entry = FindEntry(name)) {
    out.total_members = entry->view->size();
    out.members_per_shard = {out.total_members};
    out.engine = entry->engine == EngineKind::kGdn ? "gdn" : "algorithm1";
    if (entry->gdn != nullptr) {
      out.gdn_nodes = entry->gdn->node_count();
      out.gdn_matches = entry->gdn->match_count();
      out.gdn_propagations = entry->gdn->stats().propagations;
      out.gdn_rebuilds = entry->gdn->stats().rebuilds;
    }
  }
  out.cross_shard_exports =
      costs_.cross_shard_exports.load(std::memory_order_relaxed);
  out.cross_shard_applies =
      costs_.cross_shard_applies.load(std::memory_order_relaxed);
  out.cross_shard_probes =
      costs_.cross_shard_probes.load(std::memory_order_relaxed);
  return out;
}

void Warehouse::OnEvent(size_t source_index, const UpdateEvent& event) {
  // The channel between monitor and integrator is at-least-once: with a
  // fault injector installed it may lose or redeliver this event.
  FaultInjector* injector = sources_[source_index]->injector;
  if (injector != nullptr) {
    if (injector->DropEvent()) return;  // lost; the next delivery shows a gap
    Deliver(source_index, event);
    if (injector->DuplicateEvent()) Deliver(source_index, event);
    return;
  }
  Deliver(source_index, event);
}

void Warehouse::Deliver(size_t source_index, const UpdateEvent& event) {
  SourceEntry& source = *sources_[source_index];
  if (event.sequence != 0) {
    if (event.sequence < source.next_sequence) {
      // Redelivery of an event already integrated: drop idempotently.
      ++costs_.events_duplicate_dropped;
      return;
    }
    if (event.sequence > source.next_sequence) {
      // Lost delivery: the views of this source missed an update and can
      // no longer be maintained incrementally. Quarantine them for resync.
      ++costs_.events_gap_detected;
      QuarantineSourceViews(
          source_index,
          Status::Unavailable(
              "lost delivery from '" + source.name + "': expected seq " +
              std::to_string(source.next_sequence) + ", got " +
              std::to_string(event.sequence)));
    }
    source.next_sequence = event.sequence + 1;
  }
  // Accepted: log before queueing/applying, so a crash after this point
  // still replays the event (the commit record decides committed vs tail).
  LogEvent(source, event);
  if (deferred_) {
    pending_.emplace_back(source_index, event);
    return;
  }
  // Inline: the event is a drain of one, evaluated at its own source state
  // without a sweep, and closes its own commit group. The drain records its
  // error in last_status_.
  UpdateBatch batch;
  batch.Add(source_index, event);
  BatchOptions options;
  options.run_sweep = false;
  DrainBatch(std::move(batch), options);
}

Status Warehouse::SetFaultInjector(const std::string& source_name,
                                   FaultInjector* injector) {
  for (auto& source : sources_) {
    if (source->name != source_name) continue;
    source->injector = injector;
    source->wrapper->set_fault_injector(injector);
    return Status::Ok();
  }
  return Status::NotFound("unknown source '" + source_name + "'");
}

SourceWrapper* Warehouse::wrapper(const std::string& source_name) {
  if (source_name.empty()) {
    return sources_.size() == 1 ? sources_[0]->wrapper.get() : nullptr;
  }
  for (auto& source : sources_) {
    if (source->name == source_name) return source->wrapper.get();
  }
  return nullptr;
}

Warehouse::ViewHealth Warehouse::view_health(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr && entry->stale ? ViewHealth::kStale
                                          : ViewHealth::kFresh;
}

size_t Warehouse::stale_view_count() const {
  size_t count = 0;
  for (const auto& entry : views_) {
    if (entry->stale) ++count;
  }
  return count;
}

size_t Warehouse::buffered_stale_events() const {
  size_t count = 0;
  for (const auto& entry : views_) count += entry->skipped_events;
  return count;
}

void Warehouse::Quarantine(ViewEntry& entry, const Status& cause) {
  if (entry.stale) return;
  entry.stale = true;
  entry.stale_cause = cause;
  ++costs_.views_quarantined;
}

void Warehouse::SkipStaleEvents(ViewEntry& entry, size_t count) {
  entry.skipped_events += count;
  costs_.events_buffered_stale += static_cast<int64_t>(count);
}

void Warehouse::QuarantineSourceViews(size_t source_index,
                                      const Status& cause) {
  for (auto& entry : views_) {
    if (entry->source_index == source_index) Quarantine(*entry, cause);
  }
}

Status Warehouse::TryResyncView(ViewEntry& entry, bool force) {
  SourceEntry& source = SourceOf(entry);
  GSV_RETURN_IF_ERROR(source.wrapper->Probe(force));

  // The source answers again. Rebuild the view from its *current* state
  // (the §4.4 recompute path) — that state already reflects every missed
  // and skipped update, so the rebuild subsumes whatever was lost.
  RecomputeMaintainer recompute(entry.view.get(), source.store);
  Status status = recompute.Recompute();
  if (!status.ok()) {
    ++costs_.resync_failures;
    return status;
  }
  // Sharded: the recompute derived the *whole* view. Keep the owned slice;
  // export the rest as refreshes so owners that missed the lost events
  // converge too (their stale extras fall to their next sweep).
  PruneForeignMembers(entry, /*export_members=*/true);
  if (entry.cache != nullptr) {
    entry.cache->Reset();
    status = entry.cache->Initialize(source.wrapper.get());
    if (!status.ok()) {
      ++costs_.resync_failures;
      return status;  // stay quarantined until the corridor rebuilds too
    }
  }
  if (entry.gdn != nullptr) {
    // Rebuild the memo network from the same current state the recompute
    // read (this also clears a poisoned engine), then Reconcile: a no-op
    // after the recompute, except on a sharded host, whose Reconcile sees
    // the whole view and deletes the stale members peers still hold (the
    // sweep skips §6 views).
    status = entry.gdn->Rebuild();
    if (status.ok()) status = entry.gdn->Reconcile(entry.storage());
    if (!status.ok()) {
      ++costs_.resync_failures;
      return status;
    }
  }
  entry.stale = false;
  entry.stale_cause = Status::Ok();
  entry.skipped_events = 0;
  ++costs_.view_resyncs;
  return Status::Ok();
}

void Warehouse::TryResyncStaleViews() {
  for (auto& entry : views_) {
    if (entry->stale) TryResyncView(*entry, /*force=*/false);
  }
}

Status Warehouse::ResyncStaleViews() {
  Status first_error;
  for (auto& entry : views_) {
    if (!entry->stale) continue;
    Status status = TryResyncView(*entry, /*force=*/true);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  // Resync deltas (the recomputes) were logged via the sinks;
  // close their group when the warehouse is quiescent.
  if (pending_.empty()) LogCommit();
  StorageQuiescent();
  return first_error;
}

Status Warehouse::CollectUnderivable(ViewEntry& entry,
                                     RemoteAccessor* accessor,
                                     std::vector<Oid>* doomed) {
  const SourceEntry& source = *sources_[entry.source_index];
  const OidSet members = entry.view->BaseMembers();
  for (const Oid& member : members) {
    accessor->ClearError();
    bool derivable = accessor->VerifyPath(source.root, member, entry.sel_path);
    if (derivable && entry.def.predicate().has_value()) {
      derivable =
          accessor->EvalAny(member, entry.cond_path, entry.def.predicate());
    }
    if (!accessor->last_error().ok()) {
      // The empty/false answer came from a failed query-back, not from the
      // source: abort rather than doom members on a down channel.
      return accessor->last_error();
    }
    if (!derivable) doomed->push_back(member);
  }
  return Status::Ok();
}

bool Warehouse::EventRelevant(const ViewEntry& entry,
                              const UpdateEvent& event) const {
  if (event.kind == UpdateKind::kModify) {
    const std::string label = event.parent_object.has_value()
                                  ? event.parent_object->label()
                                  : std::string();
    return entry.modify_relevant && !entry.full_path.empty() &&
           label == entry.full_path.back();
  }
  if (event.child_object.has_value()) {
    return entry.relevant_labels.count(event.child_object->label()) > 0;
  }
  return true;
}

Status Warehouse::Level1ModifyRecheck(ViewEntry& entry,
                                      const UpdateEvent& event,
                                      ViewStorage* storage,
                                      BaseAccessor* accessor) {
  SourceEntry& source = SourceOf(entry);
  // Level 1 reports only the OID of the modified object: the warehouse
  // must query for its current state (§5.1 scenario 1), then re-derive the
  // membership of every ancestor the change could affect.
  GSV_ASSIGN_OR_RETURN(Object object,
                       source.wrapper->FetchObject(event.parent));
  GSV_RETURN_IF_ERROR(storage->SyncUpdate(
      Update::Modify(event.parent, object.value(), object.value())));
  if (!entry.def.predicate().has_value()) return Status::Ok();
  if (entry.full_path.empty() ||
      object.label() != entry.full_path.back()) {
    return Status::Ok();  // cannot lie at the corridor's end
  }
  for (const Oid& y : accessor->Ancestors(event.parent, entry.cond_path)) {
    if (!accessor->VerifyPath(source.root, y, entry.sel_path)) {
      continue;
    }
    if (!accessor->EvalAny(y, entry.cond_path, entry.def.predicate())) {
      GSV_RETURN_IF_ERROR(storage->VDelete(y));
    } else {
      GSV_ASSIGN_OR_RETURN(Object y_object, accessor->Fetch(y));
      GSV_RETURN_IF_ERROR(storage->VInsert(y_object));
    }
  }
  return Status::Ok();
}

void Warehouse::StorageQuiescent() {
  store_->StorageSafePoint();
  for (auto& entry : views_) {
    if (entry->cache != nullptr) entry->cache->StorageSafePoint();
  }
}

ThreadPool* Warehouse::Pool(size_t threads) {
  if (pool_ == nullptr || pool_threads_ != threads) {
    pool_.reset();  // join the old workers before spawning new ones
    pool_ = std::make_unique<ThreadPool>(threads);
    pool_threads_ = threads;
  }
  return pool_.get();
}

}  // namespace gsv
