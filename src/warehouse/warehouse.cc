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

bool Warehouse::NeedsForwardedEvents(const std::string& source_name) const {
  for (const auto& entry : views_) {
    if (SourceOf(*entry).name == source_name &&
        entry->engine->NeedsForwardedEvents()) {
      return true;
    }
  }
  return false;
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
  for (auto& entry : views_) entry->engine->SetPathKnowledge(knowledge_);
}

SourceMonitor* Warehouse::monitor() {
  return sources_.size() == 1 ? sources_[0]->monitor.get() : nullptr;
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
  GSV_RETURN_IF_ERROR(ViewEngine::Validate(def));
  // Simple views (§4.2) run Algorithm 1; every other accepted shape runs
  // the discrimination network.
  const bool simple = def.IsSimple();
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
  entry->view = std::make_unique<MaterializedView>(store_, def);
  if (cache_mode != CacheMode::kNone) {
    if (!simple) {
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
        source.root, def.full_path(), options_.aux_engine_factory);
  }
  Algorithm1Engine::Shard shard;
  if (binding_.has_value()) {
    shard = {binding_->shard_index, binding_->shard_mask};
    entry->scoped = std::make_unique<ShardScopedStorage>(
        entry->view.get(), source.store, binding_->shard_index,
        binding_->shard_mask, binding_->resolver, &outbox_, &costs_);
  }
  if (simple) {
    entry->engine = std::make_unique<Algorithm1Engine>(
        def, source.store, source.root, source.wrapper.get(), &costs_,
        entry->cache.get(), entry->view.get(), knowledge_, shard);
  } else if (HostShardOf(def, shard.mask) == shard.index) {
    // Of a sharded warehouse only the view's host runs the network; its
    // scoped storage exports the ops for members the host does not own.
    entry->engine = MakeNetworkEngine(source.store, def, source.root);
  } else {
    entry->engine = MakeSliceEngine();
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
  // A network seeds its memo tables from the base state the view
  // materializes from below; both derive the same members.
  GSV_RETURN_IF_ERROR(entry->engine->Initialize());
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

const Algorithm1Engine* Warehouse::maintainer(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr
             ? dynamic_cast<const Algorithm1Engine*>(entry->engine.get())
             : nullptr;
}

const AuxiliaryCache* Warehouse::cache(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->cache.get() : nullptr;
}

Warehouse::EngineKind Warehouse::view_engine(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->engine->kind() : EngineKind::kAlgorithm1;
}

const GdnEngine* Warehouse::gdn_engine(const std::string& name) const {
  const ViewEntry* entry = FindEntry(name);
  return entry != nullptr ? entry->engine->network() : nullptr;
}

ShardedViewExplanation Warehouse::ExplainView(const std::string& name) const {
  ShardedViewExplanation out;
  out.view = name;
  out.shards = 1;
  if (const ViewEntry* entry = FindEntry(name)) {
    out.total_members = entry->view->size();
    out.members_per_shard = {out.total_members};
    entry->engine->Explain(&out);
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
  // The engine rebuilds from the same current state the recompute read.
  status = entry.engine->Heal(entry.storage());
  if (!status.ok()) {
    ++costs_.resync_failures;
    return status;
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
