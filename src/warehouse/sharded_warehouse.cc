#include "warehouse/sharded_warehouse.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace gsv {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time consumed by the calling thread. The parallel per-shard phases
// are timed with this rather than wall clock: when the pool's threads
// time-slice fewer cores than shards, wall clock charges every shard for
// its siblings' turns and max(eval) drifts toward the sum — the thread
// clock keeps DrainTiming's critical-path bound meaningful on any machine.
int64_t ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
  }
#endif
  return NowMicros();
}

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

ShardedWarehouse::ShardedWarehouse(uint32_t shards, Options options) {
  if (!IsPowerOfTwo(shards)) {
    init_status_ =
        Status::InvalidArgument("shard count must be a power of two >= 1");
    shards = 1;
  }
  mask_ = shards - 1;
  stores_.reserve(shards);
  shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    ObjectStore::Options store_options;
    store_options.engine_factory = options.engine_factory;
    stores_.push_back(std::make_unique<ObjectStore>(std::move(store_options)));
    auto warehouse = std::make_unique<Warehouse>(stores_.back().get());
    Status status = warehouse->BindShard(i, mask_, &directory_);
    if (!status.ok() && init_status_.ok()) init_status_ = status;
    shards_.push_back(std::move(warehouse));
  }
}

ShardedWarehouse::~ShardedWarehouse() {
  for (auto& source : sources_) {
    if (source->store != nullptr && source->monitor != nullptr) {
      source->store->RemoveListener(source->monitor.get());
    }
  }
}

// ---- Directory ----

bool ShardedWarehouse::Directory::ViewContains(const std::string& view,
                                               const Oid& base) const {
  if (frozen_) {
    // The owner's slice holds the member iff the whole view does, so the
    // snapshot keeps per-shard slices (cheap copies) instead of unioning
    // them — Freeze() runs serially on the coordinator every drain.
    auto it = snapshot_.find(view);
    if (it == snapshot_.end()) return false;
    return it->second[ShardOfOid(base, owner_->mask_)].Contains(base);
  }
  // Live probe: straight to the owner's current slice.
  Warehouse& owner = *owner_->shards_[ShardOfOid(base, owner_->mask_)];
  MaterializedView* slice = owner.view(view);
  return slice != nullptr && slice->ContainsBase(base);
}

OidSet ShardedWarehouse::Directory::ViewMembers(const std::string& view) const {
  OidSet members;
  if (frozen_) {
    auto it = snapshot_.find(view);
    if (it == snapshot_.end()) return members;
    for (const OidSet& slice : it->second) {
      members = OidSet::Union(members, slice);
    }
    return members;
  }
  for (auto& shard : owner_->shards_) {
    MaterializedView* slice = shard->view(view);
    if (slice != nullptr) {
      members = OidSet::Union(members, slice->BaseMembers());
    }
  }
  return members;
}

void ShardedWarehouse::Directory::Freeze() {
  snapshot_.clear();
  for (const std::string& name : owner_->view_names_) {
    std::vector<OidSet> slices(owner_->shards_.size());
    for (size_t i = 0; i < owner_->shards_.size(); ++i) {
      MaterializedView* slice = owner_->shards_[i]->view(name);
      if (slice != nullptr) slices[i] = slice->BaseMembers();
    }
    snapshot_[name] = std::move(slices);
  }
  frozen_ = true;
}

// ---- Topology ----

Status ShardedWarehouse::ConnectSource(ObjectStore* source, Oid source_root,
                                       ReportingLevel level,
                                       std::string name) {
  GSV_RETURN_IF_ERROR(init_status_);
  if (name.empty()) name = "source" + std::to_string(sources_.size() + 1);
  for (auto& shard : shards_) {
    GSV_RETURN_IF_ERROR(shard->ConnectSourceRouted(source, source_root, name));
  }
  auto route = std::make_unique<SourceRoute>();
  route->name = name;
  route->store = source;
  route->next_out.assign(shards_.size(), 0);
  size_t index = sources_.size();
  route->monitor = std::make_unique<SourceMonitor>(
      level, std::move(source_root),
      [this, index](const UpdateEvent& event) { RouteEvent(index, event); });
  source->AddListener(route->monitor.get());
  sources_.push_back(std::move(route));
  return Status::Ok();
}

Status ShardedWarehouse::DefineView(std::string_view definition,
                                    const std::string& source_name) {
  GSV_RETURN_IF_ERROR(init_status_);
  GSV_ASSIGN_OR_RETURN(ViewDefinition def, ViewDefinition::Parse(definition));
  for (auto& shard : shards_) {
    GSV_RETURN_IF_ERROR(
        shard->DefineView(definition, Warehouse::CacheMode::kNone,
                          source_name));
  }
  view_names_.push_back(def.name());
  RefreshHosts();
  return Status::Ok();
}

void ShardedWarehouse::RefreshHosts() {
  for (auto& route : sources_) {
    route->hosts.clear();
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      for (const std::string& name : view_names_) {
        if (shards_[i]->gdn_engine(name) != nullptr &&
            shards_[i]->view_source(name) == route->name) {
          route->hosts.push_back(i);
          break;
        }
      }
    }
  }
}

void ShardedWarehouse::SetPathKnowledge(PathKnowledge knowledge) {
  for (auto& shard : shards_) shard->SetPathKnowledge(knowledge);
}

void ShardedWarehouse::set_deferred(bool deferred) {
  deferred_ = deferred;
  for (auto& shard : shards_) shard->set_deferred(deferred);
}

size_t ShardedWarehouse::pending_events() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_events();
  return total;
}

// ---- Routing ----

void ShardedWarehouse::RouteEvent(size_t source_index,
                                  const UpdateEvent& event) {
  SourceRoute& route = *sources_[source_index];
  const uint32_t target = RouteShardOf(event, mask_);
  UpdateEvent stamped = event;
  // Each (source, shard) pair is its own 1-based sequence domain; the
  // target shard's integrator does duplicate-drop / gap-detection on it
  // exactly as an unsharded warehouse would on the monitor's numbering.
  stamped.sequence = ++route.next_out[target];
  shards_[target]->InjectRoutedEvent(source_index, stamped);
  // Every host of a §6 network over this source sees every event, in its
  // own sequence domain and through its own channel, so a lost forward
  // quarantines the host's views. Level 1 suffices: the network re-reads
  // the store. The host's Algorithm 1 views skip the forwarded event.
  for (uint32_t host : route.hosts) {
    if (host == target) continue;
    UpdateEvent forwarded;
    forwarded.kind = event.kind;
    forwarded.parent = event.parent;
    forwarded.child = event.child;
    forwarded.sequence = ++route.next_out[host];
    shards_[host]->InjectRoutedEvent(source_index, forwarded);
  }
  if (deferred_) return;
  // Inline: each receiving shard already drained the event alone. Settle
  // now — every cross-shard effect lands and commits at its owner — so all
  // shards agree before the next event.
  std::vector<bool> applied(shards_.size(), false);
  DeliverForeignOps(&applied);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (applied[i]) shards_[i]->CommitDurable();
  }
}

Status ShardedWarehouse::DeliverForeignOps(std::vector<bool>* applied,
                                           DrainTiming* timing) {
  const int64_t take_begin = NowMicros();
  // The only serial work is taking the producer outboxes (K vector moves)
  // and marking owners; the ops themselves are never moved.
  std::vector<std::vector<ForeignViewOp>> taken;
  taken.reserve(shards_.size());
  for (auto& shard : shards_) taken.push_back(shard->TakeForeignOps());
  std::vector<bool> owes(shards_.size(), false);
  for (const std::vector<ForeignViewOp>& ops : taken) {
    for (const ForeignViewOp& op : ops) {
      owes[ShardOfOid(op.delta.target(), mask_)] = true;
    }
  }
  if (timing != nullptr) timing->serial_micros += NowMicros() - take_begin;

  // Every owner scans all outboxes in (producer, op) order on the pool, and
  // ApplyForeignOps keeps the ops it owns.
  ThreadPool* pool = Pool(pool_threads_);
  std::vector<Status> statuses(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!owes[i]) continue;
    if (applied != nullptr) (*applied)[i] = true;
    pool->Submit([this, i, &taken, &statuses, timing] {
      const int64_t start = ThreadCpuMicros();
      for (const std::vector<ForeignViewOp>& ops : taken) {
        Status status = shards_[i]->ApplyForeignOps(ops);
        if (!status.ok() && statuses[i].ok()) statuses[i] = status;
      }
      if (timing != nullptr) {
        timing->eval_micros[i] += ThreadCpuMicros() - start;
      }
    });
  }
  pool->Wait();
  Status first_error;
  for (const Status& status : statuses) {
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

ThreadPool* ShardedWarehouse::Pool(size_t threads) {
  if (pool_ == nullptr || pool_threads_ != threads) {
    pool_.reset();
    pool_ = std::make_unique<ThreadPool>(threads);
    pool_threads_ = threads;
  }
  return pool_.get();
}

// ---- Coordinated drain ----

Status ShardedWarehouse::ProcessPendingBatch(size_t threads) {
  const size_t shard_count = shards_.size();
  DrainTiming timing;
  timing.eval_micros.assign(shard_count, 0);
  timing.sweep_micros.assign(shard_count, 0);
  const int64_t t0 = NowMicros();

  // Freeze the membership directory: every shard's Algorithm 1 pass (and
  // its level-1 rechecks) evaluates the same pre-drain membership, mirroring
  // how batch workers within one warehouse share the frozen final base.
  directory_.Freeze();
  std::vector<bool> active(shard_count, false);
  for (size_t i = 0; i < shard_count; ++i) {
    active[i] = shards_[i]->pending_events() > 0 ||
                shards_[i]->stale_view_count() > 0;
  }

  // Phase A: per-shard drains in parallel — Algorithm 1 and the hosted
  // networks alike. Concurrency comes from the shard fan-out; inside each
  // shard the batch engine runs single-threaded (threads=1), with its
  // sweep and commit deferred to the coordinator.
  ThreadPool* pool = Pool(std::min(threads, shard_count));
  std::vector<Status> statuses(shard_count);
  const int64_t par_begin = NowMicros();
  for (size_t i = 0; i < shard_count; ++i) {
    if (!active[i]) continue;
    pool->Submit([this, i, &statuses, &timing] {
      const int64_t start = ThreadCpuMicros();
      Warehouse::BatchOptions options;
      options.threads = 1;
      options.run_sweep = false;
      options.log_commit = false;
      statuses[i] = shards_[i]->ProcessPendingBatch(options);
      timing.eval_micros[i] = ThreadCpuMicros() - start;
    });
  }
  pool->Wait();

  Status first_error;
  auto note = [&first_error](const Status& status) {
    if (!status.ok() && first_error.ok()) first_error = status;
  };
  for (const Status& status : statuses) note(status);

  // Phase B: deliver the outboxes — the per-batch barrier that makes
  // cross-shard edges land before anything downstream observes the batch.
  // Delivery runs on the pool with each owner's CPU time charged to its
  // eval share.
  std::vector<bool> applied(shard_count, false);
  note(DeliverForeignOps(&applied, &timing));
  directory_.Thaw();

  // Phase C: verification sweeps, parallel again. Only shards that saw
  // events, applied foreign ops, or resynced can hold stale extras; a sweep
  // of a consistent view is a no-op, so skipping the rest preserves
  // byte-identity while saving the query-backs.
  std::vector<Status> sweep_statuses(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    if (!active[i] && !applied[i]) continue;
    pool->Submit([this, i, &sweep_statuses, &timing] {
      const int64_t start = ThreadCpuMicros();
      sweep_statuses[i] = shards_[i]->RunVerificationSweep();
      timing.sweep_micros[i] = ThreadCpuMicros() - start;
    });
  }
  pool->Wait();
  const int64_t sweep_end = NowMicros();
  for (const Status& status : sweep_statuses) note(status);

  // Close every participating shard's durability group — including shards
  // whose only change this batch was a peer's op landing on them.
  for (size_t i = 0; i < shard_count; ++i) {
    if (active[i] || applied[i]) shards_[i]->CommitDurable();
  }

  const int64_t end = NowMicros();
  timing.serial_micros += (par_begin - t0) + (end - sweep_end);
  timings_.push_back(std::move(timing));
  return first_error;
}

// ---- Fault tolerance ----

Status ShardedWarehouse::SetFaultInjector(const std::string& source_name,
                                          uint32_t shard_index,
                                          FaultInjector* injector) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  return shards_[shard_index]->SetFaultInjector(source_name, injector);
}

size_t ShardedWarehouse::stale_view_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->stale_view_count();
  return total;
}

Status ShardedWarehouse::ResyncStaleViews() {
  Status first_error;
  for (auto& shard : shards_) {
    Status status = shard->ResyncStaleViews();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  // The recomputes exported the foreign members they derived; deliver them,
  // then sweep everywhere — peers may hold stale extras from deletes the
  // lost events never propagated.
  Status status = DeliverForeignOps();
  if (!status.ok() && first_error.ok()) first_error = status;
  for (auto& shard : shards_) {
    status = shard->RunVerificationSweep();
    if (!status.ok() && first_error.ok()) first_error = status;
    shard->CommitDurable();
  }
  return first_error;
}

// ---- Durability ----

Status ShardedWarehouse::EnableDurability(const DurabilityOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions.dir is required");
  }
  bool recovered = false;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Warehouse::DurabilityOptions shard_options;
    shard_options.dir = options.dir + "/shard-" + std::to_string(i);
    shard_options.fsync = options.fsync;
    shard_options.checkpoint_interval_events =
        options.checkpoint_interval_events;
    shard_options.epoch = options.epoch;
    shard_options.owner = options.owner;
    GSV_RETURN_IF_ERROR(shards_[i]->EnableDurability(shard_options));
    const Warehouse::RecoveryReport& report = shards_[i]->recovery_report();
    if (report.views_restored + report.views_redefined +
                report.events_replayed >
            0 ||
        report.log_torn) {
      recovered = true;
    }
  }
  // The router's sequence domains continue where each shard's recovered
  // watermark left off.
  for (auto& route : sources_) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      route->next_out[i] = shards_[i]->last_delivered_sequence(route->name);
    }
  }
  if (recovered) {
    // Recovered shards can have restored views the coordinator has not
    // seen (DefineView was never called on this instance); learn them.
    // Shard 0 has every view: all shards define the same set.
    view_names_ = shards_[0]->view_names();
    RefreshHosts();
    // Each host reconciled its networks while its peers were still empty;
    // now that every slice is loaded, reconcile against the whole view.
    for (auto& shard : shards_) {
      GSV_RETURN_IF_ERROR(shard->RebuildNetworks());
    }
    // Per-shard recovery replays ran against live peers that may not have
    // been recovered yet; redistribute what they exported (plus the
    // hosts' reconcile fixes) and sweep so the fleet settles on the
    // current source state.
    GSV_RETURN_IF_ERROR(DeliverForeignOps());
    for (auto& shard : shards_) {
      GSV_RETURN_IF_ERROR(shard->RunVerificationSweep());
      shard->CommitDurable();
    }
  }
  return Status::Ok();
}

Status ShardedWarehouse::WriteCheckpoint() {
  for (auto& shard : shards_) {
    GSV_RETURN_IF_ERROR(shard->WriteCheckpoint());
  }
  return Status::Ok();
}

// ---- Queries ----

std::vector<Oid> ShardedWarehouse::ViewMembers(const std::string& name) {
  std::vector<std::vector<Oid>> runs;
  runs.reserve(shards_.size());
  for (auto& shard : shards_) {
    MaterializedView* slice = shard->view(name);
    if (slice != nullptr) runs.push_back(slice->BaseMembers().elements());
  }
  return MergeSortedOidRuns(std::move(runs));
}

std::vector<std::pair<Oid, std::string>> ShardedWarehouse::ViewContents(
    const std::string& name) {
  std::vector<std::vector<std::pair<Oid, std::string>>> runs;
  runs.reserve(shards_.size());
  for (auto& shard : shards_) {
    MaterializedView* slice = shard->view(name);
    if (slice != nullptr) runs.push_back(ViewContentLines(*slice));
  }
  return MergeContentLineRuns(std::move(runs));
}

ShardedViewExplanation ShardedWarehouse::ExplainView(const std::string& name) {
  // Folds the shards' own explanations: slice sizes line up per shard,
  // traffic sums, and only the host's network has GDN counters to add.
  ShardedViewExplanation explanation;
  explanation.view = name;
  explanation.shards = shard_count();
  for (auto& shard : shards_) {
    const ShardedViewExplanation slice = shard->ExplainView(name);
    const size_t size = slice.total_members;
    explanation.members_per_shard.push_back(size);
    explanation.total_members += size;
    explanation.cross_shard_exports += slice.cross_shard_exports;
    explanation.cross_shard_applies += slice.cross_shard_applies;
    explanation.cross_shard_probes += slice.cross_shard_probes;
    if (explanation.engine.empty()) explanation.engine = slice.engine;
    explanation.gdn_nodes += slice.gdn_nodes;
    explanation.gdn_matches += slice.gdn_matches;
    explanation.gdn_propagations += slice.gdn_propagations;
    explanation.gdn_rebuilds += slice.gdn_rebuilds;
  }
  return explanation;
}

WarehouseCosts ShardedWarehouse::MergedCosts() const {
  WarehouseCosts merged;
  for (const auto& shard : shards_) merged.Merge(shard->costs());
  return merged;
}

StoreMetrics ShardedWarehouse::MergedDelegateMetrics() const {
  StoreMetrics merged;
  for (const auto& store : stores_) merged.Merge(store->metrics());
  return merged;
}

}  // namespace gsv
