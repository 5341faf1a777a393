// Pipeline benchmark: one closed-loop run of the whole maintenance path.
//
//   source-store mutations -> ProcessPendingBatch (screening, engine, WAL
//   commit) -> WriteCheckpoint -> follower Poll -> reads -> restart through
//   EnableDurability
//
// The harness only calls public library functions and reads the public
// counter sheets. Usage:
//
//   pipeline_bench --workload <tree-alg1|dag-gdn-paged|serve-k4-replica>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// The update stream is generated first, in a child process, against a twin
// of the source and recorded through an UpdateListener; the measuring
// process only replays it. The steady phase is cut into windows of batches;
// the first window is warm-up and discarded, every timed metric is computed
// per window, scaled to a reference host speed by a probe run on either
// side of the window (host_speed.h), and summarised across windows by a low
// order statistic. The last line of standard output is one JSON object with
// the metrics (end-to-end ones untraced, per-layer ones with --trace 1). Any
// failed call or mismatch against §4.4 recompute makes the run exit nonzero.

#include <fcntl.h>
#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "query/evaluator.h"
#include "replication/log_transport.h"
#include "replication/replica.h"
#include "host_speed.h"
#include "stream.h"
#include "trace.h"
#include "util/random.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gsv::Oid;
using gsv::Status;
using Lines = std::vector<std::pair<Oid, std::string>>;

constexpr const char* kSourceName = "src";

// ---------------------------------------------------------------------------
// Workloads

enum class ReadKind {
  kPrimaryQuery,  // selective query over a leaf view on the primary
  kPointRead,     // membership + delegate fetch through the delegate store
  kFollowerMix,   // follower: whole-view ReadView / selective query, halves
};

struct ViewSpec {
  std::string name;
  std::string query;  // text after "as:", with ROOT standing for the root
  bool full_cache = false;
  bool leaf = false;  // members are atomic "age" leaves (query-read target)
  size_t layer = 0;   // DAG: base layer the members come from (point reads)
};

// Sizes shared by every workload. The tree is complete: kTreeLevels levels
// of fanout kTreeFanout (19,531 objects). The DAG has kDagLevels layers of
// kDagWidth objects (12,001 with the root). The paged pool is far smaller
// than the delegate store it backs.
constexpr size_t kTreeLevels = 6;
constexpr size_t kTreeFanout = 5;
constexpr size_t kDagLevels = 6;
constexpr size_t kDagWidth = 2000;
constexpr uint64_t kPoolPages = 8;
constexpr uint64_t kPageBytes = 4096;
constexpr size_t kBatch = 64;  // source updates per drain
// WAL fsync policy of every durable home. The homes live inside the
// benchmark's checkout, on whatever disk holds it; an fsync there takes
// 80-210 us with uneven stalls from other tenants' I/O, which swamps a
// commit. kNever gives the cost of a commit on tmpfs, where fsync is a
// 0.2-0.3 us no-op: every record is still written to the page cache.
// Checkpoints fsync whatever the policy.
constexpr gsv::FsyncPolicy kFsync = gsv::FsyncPolicy::kNever;

struct Workload {
  std::string name;
  std::string why;
  bool dag = false;  // layered DAG base instead of the tree
  StreamOptions stream;
  gsv::ReportingLevel level = gsv::ReportingLevel::kWithValues;
  uint32_t shards = 1;
  size_t drain_threads = 1;
  bool paged = false;
  bool follower = false;
  ReadKind reads = ReadKind::kPrimaryQuery;
  size_t reads_per_batch = 16;
  size_t window_batches = 8;
  // One checkpoint per window, written after this many of its batches, so
  // every window carries the same checkpoint cost and the durable home
  // always ends with the same committed tail past its last checkpoint.
  size_t checkpoint_after = 4;
  // Generous updates/s estimate: the stream holds enough updates for the
  // steady phase to run its full --seconds at this rate.
  double stream_rate = 13000;
  std::vector<ViewSpec> views;
};

std::vector<ViewSpec> TreeViews() {
  return {
      {"T0", "SELECT ROOT.n1_0.n2_0 X WHERE X.n3_0.n4_0.n5_0.age <= 50", true,
       false, 0},
      {"T1", "SELECT ROOT.n1_1.n2_0.n3_1 X WHERE X.n4_0.n5_1.age <= 30", false,
       false, 0},
      {"T2", "SELECT ROOT.n1_0.n2_1.n3_0.n4_1 X WHERE X.n5_0.age >= 60", false,
       false, 0},
      {"T3", "SELECT ROOT.n1_1 X WHERE X.n2_1.n3_1.n4_0.n5_0.age <= 20", false,
       false, 0},
      {"T4", "SELECT ROOT.n1_0.n2_0.n3_1.n4_0.n5_1.age X WHERE X <= 40", false,
       true, 0},
      {"T5", "SELECT ROOT.n1_1.n2_1.n3_0.n4_1.n5_0.age X WHERE X >= 55", false,
       true, 0},
      {"T6", "SELECT ROOT.n1_0.n2_1.n3_1.n4_1 X WHERE X.n5_1.age <= 70", false,
       false, 0},
      {"T7", "SELECT ROOT.n1_1.n2_0.n3_0.n4_0.n5_0.age X WHERE X < 50", false,
       true, 0},
  };
}

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "tree-alg1";
    w.why =
        "core path: screening, query-backs, aux cache, label index and WAL "
        "on Algorithm 1; in-memory working set";
    w.stream.shape = StreamShape::kTree;
    // Modify-heavy, with inserts matched to deletes: a 15/10 split would
    // add a fresh leaf every twentieth update and grow the tree by half
    // over a 30 s run, so late windows would cost less than early ones.
    w.stream.p_modify = 0.75;
    w.stream.p_insert = 0.125;
    w.stream.p_delete = 0.125;
    w.stream.fresh_label = "note";  // no view uses it: screened out
    w.level = gsv::ReportingLevel::kWithValues;
    w.reads = ReadKind::kPrimaryQuery;
    w.views = TreeViews();
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "dag-gdn-paged";
    w.why =
        "GDN propagation over a DAG with the delegate store on a paged, "
        "compressed engine whose pool is far smaller than the store";
    w.dag = true;
    w.stream.shape = StreamShape::kDag;
    // Structural-heavy, with inserts matched to deletes: a 30/20 split
    // would add an edge every tenth update and grow the graph by a third
    // over a 30 s run, so late windows would cost more than early ones.
    w.stream.p_insert = 0.25;
    w.stream.p_delete = 0.25;
    w.stream.p_modify = 0.50;
    w.stream.fresh_label = "age";
    w.level = gsv::ReportingLevel::kOidsOnly;
    // Write-back runs on the main thread. On the writeback thread its
    // speed would come and go with other tenants' load on the vCPUs, and
    // its work behind a window would slow the host-speed probe taken after
    // the window, so the program's own writeback would read as a slow host.
    w.paged = true;
    w.reads = ReadKind::kPointRead;
    w.reads_per_batch = 32;
    w.window_batches = 16;  // a checkpoint here costs ~0.1 s: amortise it
    w.checkpoint_after = 8;
    w.stream_rate = 6000;
    w.views = {
        {"G0", "SELECT ROOT.* X WHERE X.age <= 30", false, false, 5},
        {"G1",
         "SELECT ROOT.d1.?.d3 X WHERE X.d4.d5.age < 10 OR X.d4.d5.age >= 90",
         false, false, 3},
        {"G2",
         "SELECT ROOT.d1.d2.d3.d4 X WHERE X.d5.age >= 40 AND X.d5.age < 60",
         false, false, 4},
    };
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "serve-k4-replica";
    w.why =
        "K=4 sharded warehouse shipping its WAL to a follower polled after "
        "every commit; read-heavy follower reads";
    w.stream = out[0].stream;
    w.level = gsv::ReportingLevel::kWithValues;
    w.shards = 4;
    // One drain thread: a 2-thread pool's speed-up comes and goes with
    // other tenants' load on the shared vCPUs (4,979 against 7,753
    // updates/s in back-to-back runs at the same probed host speed), which
    // no statistic within a run removes.
    w.drain_threads = 1;
    w.follower = true;
    w.reads = ReadKind::kFollowerMix;
    w.reads_per_batch = 16;
    w.views = {out[0].views[0], out[0].views[2], out[0].views[4],
               out[0].views[7]};
    w.views[0].full_cache = false;  // sharded warehouses are cache-less
    out.push_back(w);
  }
  return out;
}

std::string Definition(const ViewSpec& view, const Oid& root) {
  std::string query = view.query;
  query.replace(query.find("ROOT"), 4, root.str());
  return "define mview " + view.name + " as: " + query;
}

// ---------------------------------------------------------------------------
// Run bookkeeping

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  // Counts `ops` operations; a non-OK status fails one of them.
  bool Check(const Status& status, const std::string& what,
             int64_t ops = 1) {
    attempted += ops;
    if (status.ok()) return true;
    ++failed;
    if (failed <= 10) {
      std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
                   status.ToString().c_str());
    }
    return false;
  }
  bool Expect(bool ok, const std::string& what) {
    return Check(ok ? Status::Ok() : Status::Internal("mismatch"), what);
  }
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pipeline_bench: %s\n", message.c_str());
  std::exit(1);
}

void DieIf(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Base graph and stream

struct Base {
  Oid root;
  size_t objects = 0;
  std::vector<std::vector<Oid>> layers;  // DAG layers (index 0 = depth 1)
};

// "<prefix><n>" (appended in place: GCC 12 misreports operator+ on a
// literal and a temporary string under -Wrestrict).
std::string Numbered(const char* prefix, size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

// A complete tree whose shape and labels are the same for every seed: the
// child at position j of a depth-d node is labeled "n<d+1>_<j mod 2>",
// so each view selects the same objects whatever the seed; only the leaf
// values ("age", uniform in [0, 100)) come from the seed.
Oid BuildTree(uint64_t seed, gsv::ObjectStore* store) {
  gsv::Random rng(seed);
  size_t counter = 0;
  auto next_oid = [&]() { return Oid(Numbered("T", counter++)); };
  const Oid root = next_oid();
  DieIf(store->PutSet(root, "root"), "tree root");
  std::vector<Oid> level{root};
  for (size_t depth = 1; depth <= kTreeLevels; ++depth) {
    std::vector<Oid> next;
    for (const Oid& parent : level) {
      for (size_t j = 0; j < kTreeFanout; ++j) {
        Oid child = next_oid();
        Status status =
            depth == kTreeLevels
                ? store->PutAtomic(child, "age",
                                   gsv::Value::Int(rng.UniformInt(0, 99)))
                : store->PutSet(child, Numbered("n", depth) +
                                           Numbered("_", j % 2));
        DieIf(status, "tree object");
        DieIf(store->AddChildRaw(parent, child), "tree edge");
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  return root;
}

// A layered DAG whose edges are the same for every seed: layer d holds
// kDagWidth objects labeled "d<d>", each linked under 1 to 3 random
// objects of layer d-1 drawn from a fixed structure seed; the last layer is
// atomic "age" leaves whose values come from the seed.
Oid BuildDag(uint64_t seed, gsv::ObjectStore* store,
             std::vector<std::vector<Oid>>* layers) {
  gsv::Random structure(0x6461675f62617365ULL);
  gsv::Random values(seed);
  size_t counter = 0;
  auto next_oid = [&]() { return Oid(Numbered("D", counter++)); };
  const Oid root = next_oid();
  DieIf(store->PutSet(root, "root"), "dag root");
  std::vector<Oid> previous{root};
  for (size_t depth = 1; depth <= kDagLevels; ++depth) {
    std::vector<Oid> layer;
    for (size_t i = 0; i < kDagWidth; ++i) {
      Oid node = next_oid();
      DieIf(depth == kDagLevels
                ? store->PutAtomic(node, "age",
                                   gsv::Value::Int(values.UniformInt(0, 99)))
                : store->PutSet(node, Numbered("d", depth)),
            "dag object");
      const size_t parents =
          std::min<size_t>(1 + structure.Uniform(3), previous.size());
      gsv::OidSet chosen;
      while (chosen.size() < parents) {
        chosen.Insert(previous[structure.Uniform(previous.size())]);
      }
      for (const Oid& parent : chosen) {
        DieIf(store->AddChildRaw(parent, node), "dag edge");
      }
      layer.push_back(node);
    }
    layers->push_back(layer);
    previous = std::move(layer);
  }
  return root;
}

Base BuildBase(const Workload& w, uint64_t seed, gsv::ObjectStore* store) {
  Base base;
  if (w.dag) {
    base.root = BuildDag(seed, store, &base.layers);
  } else {
    base.root = BuildTree(seed, store);
  }
  base.objects = store->size();
  return base;
}

uint64_t StreamSeed(uint64_t seed) { return seed * 1000003ULL + 17; }

// Child-process side of the stream feed: generates `count` updates on a
// twin, records them through a listener, checks that replaying the record
// on a fresh base leaves a byte-identical store, then serves the record.
int ProduceStream(const Workload& w, uint64_t seed, size_t count, int fd) {
  // Neither store needs the label index; skipping it speeds generation.
  gsv::ObjectStore::Options options;
  options.enable_label_index = false;
  gsv::ObjectStore twin(options);
  Base base = BuildBase(w, seed, &twin);
  StreamRecorder recorder(twin);
  twin.AddListener(&recorder);
  StreamOptions stream = w.stream;
  stream.seed = StreamSeed(seed);
  StreamGenerator generator(&twin, base.root, stream);
  for (size_t i = 0; i < count; ++i) {
    Status status = generator.Step();
    if (!status.ok()) {
      std::fprintf(stderr, "generator: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  twin.RemoveListener(&recorder);
  if (recorder.ops().size() != count) {
    std::fprintf(stderr, "generator: recorded %zu of %zu updates\n",
                 recorder.ops().size(), count);
    return 1;
  }

  gsv::ObjectStore replay(options);
  BuildBase(w, seed, &replay);
  std::string text;
  for (const StreamOp& op : recorder.ops()) {
    Status status = ApplyOp(&replay, op);
    if (!status.ok()) {
      std::fprintf(stderr, "replay check: %s\n", status.ToString().c_str());
      return 1;
    }
    AppendOpText(op, &text);
  }
  if (gsv::StoreToString(replay) != gsv::StoreToString(twin)) {
    std::fprintf(stderr, "replay check: replayed source differs from twin\n");
    return 1;
  }
  return StreamFeed::Serve(fd, count, text);
}

// ---------------------------------------------------------------------------
// Deployments: the primary warehouse (K=1 or sharded) and its follower.

void SampleStore(const gsv::StoreMetrics& m, Counters* c) {
  (*c)[kDelegateLookups] = m.lookups.load(std::memory_order_relaxed);
  (*c)[kPageFaults] = m.page_faults.load(std::memory_order_relaxed);
  (*c)[kPageEvictions] = m.page_evictions.load(std::memory_order_relaxed);
  (*c)[kWritebackBytes] =
      m.page_writeback_bytes.load(std::memory_order_relaxed);
  (*c)[kSwizzleHits] = m.swizzle_hits.load(std::memory_order_relaxed);
  (*c)[kSwizzleMisses] = m.swizzle_misses.load(std::memory_order_relaxed);
}

void SampleCosts(const gsv::WarehouseCosts& k, Counters* c) {
  auto get = [](const std::atomic<int64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  (*c)[kEventsReceived] = get(k.events_received);
  (*c)[kScreenedOut] = get(k.events_screened_out);
  (*c)[kCoalesced] = get(k.events_coalesced);
  (*c)[kSourceQueries] = get(k.source_queries);
  (*c)[kObjectsShipped] = get(k.objects_shipped);
  (*c)[kCacheHits] = get(k.cache_hits);
  (*c)[kCacheMisses] = get(k.cache_misses);
  (*c)[kCrossShardExports] = get(k.cross_shard_exports);
}

// Per-warehouse sheets, added to `c`: engine stats of every view, the WAL
// and the commit count.
void SampleWarehouse(gsv::Warehouse& wh,
                     const std::vector<ViewSpec>& views, Counters* c) {
  for (const ViewSpec& view : views) {
    if (const auto* m = wh.maintainer(view.name)) {
      const auto& s = m->stats();
      (*c)[kAlgUpdates] += s.updates;
      (*c)[kAlgMatched] += s.matched;
      (*c)[kAlgRechecks] += s.rechecks;
      (*c)[kAlgDeltas] += s.v_inserts + s.v_deletes;
    }
    if (const auto* g = wh.gdn_engine(view.name)) {
      const auto& s = g->stats();
      (*c)[kGdnPropagations] += s.propagations;
      (*c)[kGdnCreated] += s.matches_created;
      (*c)[kGdnFreed] += s.matches_freed;
    }
  }
  if (const gsv::Wal* wal = wh.wal()) {
    (*c)[kWalBytes] += wal->bytes_written();
    (*c)[kWalRecords] += wal->records_appended();
  }
  (*c)[kCommits] += wh.durability_stats().commits_logged;
}

// The primary: one Warehouse (K=1; delegates on the memory or the paged
// engine) or one ShardedWarehouse (K>1; memory engine). Exactly one of
// warehouse() and sharded() is non-null; each method branches on it once.
class Deployment {
 public:
  Deployment(const Workload& w, gsv::ObjectStore* source, const Oid& root,
             const std::string& scratch)
      : w_(w), source_(source), root_(root) {
    if (w.shards > 1) {
      sharded_ = std::make_unique<gsv::ShardedWarehouse>(w.shards);
      return;
    }
    gsv::ObjectStore::Options options;
    if (w.paged) {
      gsv::PagedEngineOptions paged;
      paged.dir = scratch + "/pages";
      paged.page_bytes = kPageBytes;
      paged.pool_pages = kPoolPages;
      paged.codec = "gsvz";
      paged.wipe_on_close = true;
      // Pages are written back inside eviction and Flush, on the main
      // thread; see Workloads() for why not on the writeback thread.
      paged.background_writeback = false;
      options.engine_factory = gsv::MakePagedEngineFactory(paged);
    }
    store_ = std::make_unique<gsv::ObjectStore>(options);
    warehouse_ = std::make_unique<gsv::Warehouse>(store_.get());
  }

  ~Deployment() {
    warehouse_.reset();  // detaches the monitor before the store goes
  }

  // ConnectSource + deferred mode + EnableDurability (recovering when the
  // home holds state) + DefineView for each view (unless recovering).
  Status Open(const std::string& home, bool define_views) {
    if (sharded_ != nullptr) {
      GSV_RETURN_IF_ERROR(sharded_->init_status());
      GSV_RETURN_IF_ERROR(
          sharded_->ConnectSource(source_, root_, w_.level, kSourceName));
      sharded_->set_deferred(true);
      gsv::ShardedWarehouse::DurabilityOptions durability;
      durability.dir = home;
      durability.fsync = kFsync;
      GSV_RETURN_IF_ERROR(sharded_->EnableDurability(durability));
    } else {
      GSV_RETURN_IF_ERROR(
          warehouse_->ConnectSource(source_, root_, w_.level, kSourceName));
      warehouse_->set_deferred(true);
      gsv::Warehouse::DurabilityOptions durability;
      durability.dir = home;
      durability.fsync = kFsync;
      GSV_RETURN_IF_ERROR(warehouse_->EnableDurability(durability));
    }
    if (!define_views) return Status::Ok();
    for (const ViewSpec& view : w_.views) {
      GSV_RETURN_IF_ERROR(
          sharded_ != nullptr
              ? sharded_->DefineView(Definition(view, root_), kSourceName)
              : warehouse_->DefineView(
                    Definition(view, root_),
                    view.full_cache ? gsv::Warehouse::CacheMode::kFull
                                    : gsv::Warehouse::CacheMode::kNone,
                    kSourceName));
    }
    return Status::Ok();
  }

  Status Drain() {
    if (sharded_ != nullptr) {
      return sharded_->ProcessPendingBatch(w_.drain_threads);
    }
    gsv::Warehouse::BatchOptions options;
    options.threads = w_.drain_threads;
    return warehouse_->ProcessPendingBatch(options);
  }

  Status Checkpoint() {
    return sharded_ != nullptr ? sharded_->WriteCheckpoint()
                               : warehouse_->WriteCheckpoint();
  }

  Lines Contents(const std::string& view) const {
    if (sharded_ != nullptr) return sharded_->ViewContents(view);
    const gsv::MaterializedView* v = warehouse_->view(view);
    return v == nullptr ? Lines{} : gsv::ViewContentLines(*v);
  }

  void Sample(Counters* c) const {
    c->fill(0);
    const gsv::StoreMetrics& src = source_->metrics();
    (*c)[kSrcEdges] = src.edges_traversed.load(std::memory_order_relaxed);
    (*c)[kSrcProbes] = src.index_probes.load(std::memory_order_relaxed);
    (*c)[kSrcFallbacks] = src.index_fallbacks.load(std::memory_order_relaxed);
    if (sharded_ == nullptr) {
      SampleCosts(warehouse_->costs(), c);
      SampleStore(store_->metrics(), c);
      SampleWarehouse(*warehouse_, w_.views, c);
      return;
    }
    SampleCosts(sharded_->MergedCosts(), c);
    SampleStore(sharded_->MergedDelegateMetrics(), c);
    for (uint32_t i = 0; i < sharded_->shard_count(); ++i) {
      SampleWarehouse(sharded_->shard(i), w_.views, c);
    }
  }

  int64_t RecoveredDeltas() const {
    if (sharded_ == nullptr) {
      return static_cast<int64_t>(warehouse_->recovery_report().deltas_redone);
    }
    int64_t total = 0;
    for (uint32_t i = 0; i < sharded_->shard_count(); ++i) {
      total += static_cast<int64_t>(
          sharded_->shard(i).recovery_report().deltas_redone);
    }
    return total;
  }

  // The durable homes under `home`: itself, or one per shard.
  std::vector<std::string> Homes(const std::string& home) const {
    if (sharded_ == nullptr) return {home};
    std::vector<std::string> homes;
    for (uint32_t i = 0; i < w_.shards; ++i) {
      homes.push_back(home + "/shard-" + std::to_string(i));
    }
    return homes;
  }

  gsv::Warehouse* warehouse() const { return warehouse_.get(); }
  gsv::ObjectStore* store() const { return store_.get(); }
  gsv::ShardedWarehouse* sharded() const { return sharded_.get(); }

 private:
  const Workload& w_;
  gsv::ObjectStore* source_;
  Oid root_;
  std::unique_ptr<gsv::ObjectStore> store_;         // K=1
  std::unique_ptr<gsv::Warehouse> warehouse_;       // K=1
  std::unique_ptr<gsv::ShardedWarehouse> sharded_;  // K>1
};

std::unique_ptr<gsv::ShardedReplica> MakeFollower(
    const std::vector<std::string>& primary_homes, const std::string& dir) {
  std::vector<std::unique_ptr<gsv::LogTransport>> transports;
  for (const std::string& home : primary_homes) {
    transports.push_back(std::make_unique<gsv::FileLogTransport>(home));
  }
  gsv::ReplicaOptions options;
  options.dir = dir;
  options.staleness = gsv::StalenessPolicy::kServeStaleWithStatus;
  return std::make_unique<gsv::ShardedReplica>(std::move(transports),
                                               options);
}

void SampleFollower(gsv::ShardedReplica* follower, Counters* c) {
  if (follower == nullptr) return;
  for (uint32_t i = 0; i < follower->shard_count(); ++i) {
    const gsv::Replica& shard = follower->shard(i);
    (*c)[kMirrored] += shard.stats().bytes_mirrored;
    (*c)[kFollowerLookups] +=
        shard.store().metrics().lookups.load(std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Reads

// Value part of a content line ("age 37" -> 37).
bool LineInt(const std::string& text, int64_t* value) {
  size_t space = text.rfind(' ');
  if (space == std::string::npos) return false;
  char* end = nullptr;
  *value = std::strtoll(text.c_str() + space + 1, &end, 10);
  return end != nullptr && *end == '\0';
}

std::string LeafQuery(const std::string& view, int64_t bound) {
  return "SELECT " + view + ".age X WHERE X < " + std::to_string(bound);
}

struct ReadResult {
  Status status;
  size_t rows = 0;
  bool stale = false;
};

class Reader {
 public:
  Reader(const Workload& w, Deployment* primary,
         gsv::ShardedReplica* follower, const Base& base, uint64_t seed)
      : w_(w), primary_(primary), follower_(follower), rng_(seed) {
    for (const ViewSpec& view : w.views) {
      if (view.leaf) leaf_views_.push_back(view.name);
      if (w.dag && view.layer >= 1 && view.layer <= base.layers.size()) {
        point_views_.push_back(view.name);
        point_candidates_.push_back(base.layers[view.layer - 1]);
      }
    }
  }

  // Picks the next read (untimed): its view, its bound, and for point reads
  // a current member, so every timed point read fetches a delegate.
  void Prepare() {
    turn_++;
    bound_ = rng_.UniformInt(10, 90);
    if (w_.reads != ReadKind::kPointRead) return;
    which_ = turn_ % point_views_.size();
    view_ = primary_->warehouse()->view(point_views_[which_]);
    const std::vector<Oid>& candidates = point_candidates_[which_];
    for (int attempt = 0; attempt < 256 && view_ != nullptr; ++attempt) {
      point_ = candidates[rng_.Uniform(candidates.size())];
      if (view_->ContainsBase(point_)) return;
    }
    view_ = nullptr;  // no member found: the read reports the view empty
  }

  // Runs the prepared read (timed).
  ReadResult Run() {
    ReadResult result;
    switch (w_.reads) {
      case ReadKind::kPrimaryQuery: {
        const std::string& view = leaf_views_[turn_ % leaf_views_.size()];
        auto answer =
            gsv::EvaluateQueryText(*primary_->store(), LeafQuery(view, bound_));
        result.status = answer.status();
        if (answer.ok()) result.rows = answer->size();
        break;
      }
      case ReadKind::kPointRead: {
        if (view_ == nullptr) break;
        const gsv::Object* delegate =
            primary_->store()->Get(view_->DelegateOid(point_));
        if (delegate == nullptr) {
          result.status = Status::NotFound("delegate of a member");
        } else {
          result.rows = 1;
        }
        break;
      }
      case ReadKind::kFollowerMix: {
        if (turn_ % 2 == 0) {
          const ViewSpec& view = w_.views[(turn_ / 2) % w_.views.size()];
          auto read = follower_->ReadView(view.name);
          result.status = read.status();
          if (read.ok()) {
            result.rows = read->lines.size();
            result.stale = read->served_stale;
          }
        } else {
          const std::string& view =
              leaf_views_[(turn_ / 2) % leaf_views_.size()];
          const std::string text = LeafQuery(view, bound_);
          for (uint32_t i = 0; i < follower_->shard_count(); ++i) {
            auto answer =
                gsv::EvaluateQueryText(follower_->shard(i).store(), text);
            if (!answer.ok()) {
              result.status = answer.status();
              break;
            }
            result.rows += answer->size();
          }
          result.stale = follower_->staleness().stale;
        }
        break;
      }
    }
    return result;
  }

 private:
  const Workload& w_;
  Deployment* primary_;
  gsv::ShardedReplica* follower_;
  gsv::Random rng_;
  size_t turn_ = 0;
  int64_t bound_ = 0;
  size_t which_ = 0;
  const gsv::MaterializedView* view_ = nullptr;
  Oid point_;
  std::vector<std::string> leaf_views_;
  std::vector<std::string> point_views_;
  std::vector<std::vector<Oid>> point_candidates_;
};

// Checks every read path against the primary's view contents (untimed).
void VerifyReads(const Workload& w, Deployment* primary,
                 gsv::ShardedReplica* follower, const Base& base,
                 Tally* tally) {
  for (const ViewSpec& view : w.views) {
    const Lines lines = primary->Contents(view.name);
    if (follower != nullptr) {
      auto read = follower->ReadView(view.name);
      if (tally->Check(read.status(), "follower ReadView " + view.name)) {
        tally->Expect(!read->served_stale, "follower fresh " + view.name);
        tally->Expect(read->lines == lines,
                      "follower ReadView == primary " + view.name);
      }
    }
    if (view.leaf) {
      for (int64_t bound : {10, 50, 90}) {
        std::vector<std::string> expected;
        for (const auto& [oid, text] : lines) {
          int64_t value = 0;
          if (LineInt(text, &value) && value < bound) {
            expected.push_back(oid.str());
          }
        }
        std::vector<std::string> got;
        const std::string text = LeafQuery(view.name, bound);
        // Answers are delegate OIDs, which name their base object under the
        // view's OID (the view name); map them back to compare with lines.
        const Oid view_oid(view.name);
        auto collect = [&](const gsv::ObjectStore& store) {
          auto answer = gsv::EvaluateQueryText(store, text);
          if (!tally->Check(answer.status(), "query " + text)) return;
          for (const Oid& delegate : *answer) {
            got.push_back(delegate.IsDelegateOf(view_oid)
                              ? delegate.BaseIn(view_oid).str()
                              : delegate.str());
          }
        };
        if (follower != nullptr) {
          for (uint32_t i = 0; i < follower->shard_count(); ++i) {
            collect(follower->shard(i).store());
          }
        } else {
          collect(*primary->store());
        }
        std::sort(expected.begin(), expected.end());
        std::sort(got.begin(), got.end());
        tally->Expect(got == expected, "query read " + text);
      }
    }
    if (w.dag && view.layer >= 1 && view.layer <= base.layers.size()) {
      const gsv::MaterializedView* mv = primary->warehouse()->view(view.name);
      if (!tally->Expect(mv != nullptr, "view " + view.name)) continue;
      std::map<std::string, std::string> by_base;
      for (const auto& [oid, text] : lines) by_base[oid.str()] = text;
      for (const Oid& candidate : base.layers[view.layer - 1]) {
        auto it = by_base.find(candidate.str());
        const bool member = mv->ContainsBase(candidate);
        const gsv::Object* delegate =
            member ? primary->store()->Get(mv->DelegateOid(candidate))
                   : nullptr;
        bool ok = member == (it != by_base.end()) &&
                  (!member || (delegate != nullptr &&
                               delegate->label() + " " +
                                       delegate->value().ToString() ==
                                   it->second));
        if (!tally->Expect(ok, "point read " + view.name + " " +
                                   candidate.str())) {
          break;
        }
      }
    }
  }
}

// §4.4 recompute of every view over the current source state.
void VerifyAgainstRecompute(const Workload& w, const gsv::ObjectStore& source,
                            const Oid& root, Deployment* primary,
                            Tally* tally) {
  for (const ViewSpec& view : w.views) {
    auto def = gsv::ViewDefinition::Parse(Definition(view, root));
    if (!tally->Check(def.status(), "parse " + view.name)) continue;
    gsv::ObjectStore scratch;
    gsv::MaterializedView recomputed(&scratch, *def);
    if (!tally->Check(recomputed.Initialize(source),
                      "recompute " + view.name)) {
      continue;
    }
    tally->Expect(primary->Contents(view.name) ==
                      gsv::ViewContentLines(recomputed),
                  "view " + view.name + " == recompute");
  }
}

// ---------------------------------------------------------------------------
// Statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

struct Window {
  bool traced = false;
  int64_t wall_ns = 0;
  // Host-speed scale of the window's times (HostSpeedProbe::Scale of the
  // probes on either side of it); 1 leaves them as measured.
  double scale = 1.0;
  size_t updates = 0;
  std::vector<double> visible_us;
  std::vector<double> read_us;
  double ups() const {
    return wall_ns > 0 ? static_cast<double>(updates) * 1e9 /
                             (static_cast<double>(wall_ns) * scale)
                       : 0.0;
  }
  double Latency(const std::vector<double>& samples, double q) const {
    return Quantile(samples, q) * scale;
  }
};

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::string FsName(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

// Resident high-water of this process since the last ResetPeakRss (VmHWM
// in /proc/self/status), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  Die("no VmHWM in /proc/self/status");
}

// Hands freed heap pages back to the system, then restarts the resident
// high-water at the current resident size.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the RSS high-water (/proc/self/clear_refs)");
}

// Copies a durable home and syncs the copy, so a restart timed on it does
// not pay for flushing the copy's dirty pages at its first fsync.
void CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(fs::path(to).parent_path(), ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) Die("copy " + from + " -> " + to + ": " + ec.message());
  auto sync = [](const fs::path& path) {
    int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0 || fsync(fd) != 0) Die("sync " + path.string());
    close(fd);
  };
  for (const auto& entry : fs::recursive_directory_iterator(to)) {
    sync(entry.path());
  }
  sync(to);
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".perfbench_work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if ((argc - 1) % 2 != 0) Die("arguments come in --key value pairs");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

// Summary of a per-window figure across windows: a low order statistic,
// the kWindowRank quantile of a lower-is-better figure (1 - kWindowRank of a
// higher-is-better one). Unlike the best window it does not hang on the one
// window whose batches happened to be cheapest.
constexpr double kWindowRank = 0.1;

double Summary(const std::vector<const Window*>& windows,
               const std::function<double(const Window&)>& f,
               bool higher_is_better) {
  std::vector<double> values;
  for (const Window* x : windows) values.push_back(f(*x));
  return Quantile(values,
                  higher_is_better ? 1.0 - kWindowRank : kWindowRank);
}

double UpdatesPerSecond(const std::vector<const Window*>& windows) {
  return Summary(windows, [](const Window& x) { return x.ups(); }, true);
}

double LatencyQuantile(const std::vector<const Window*>& windows,
                       std::vector<double> Window::*samples, double q) {
  return Summary(
      windows, [&](const Window& x) { return x.Latency(x.*samples, q); },
      false);
}

// One run of one workload.
class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : args_(args),
        w_(w),
        window_updates_(w.window_batches * kBatch),
        run_dir_(fs::absolute(args.work_dir).string() + "/" + w.name + "-" +
                 std::to_string(getpid())) {}

  int Run() {
    GenerateInputs();
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
    fs::create_directories(run_dir_, ec);
    if (ec) Die("cannot create " + run_dir_ + ": " + ec.message());
    base_ = BuildBase(w_, args_.seed, &source_);

    tracer_.set_enabled(args_.trace);
    if (!SetUp(&primary_, &follower_, &home_)) Die("setup failed");
    tracer_.set_enabled(false);

    RunSteadyPhase();

    // Correctness gate: §4.4 recompute, read paths, follower.
    VerifyAgainstRecompute(w_, source_, base_.root, primary_.get(), &tally_);
    VerifyReads(w_, primary_.get(), follower_.get(), base_, &tally_);

    std::vector<Metric> metrics = args_.trace ? PerLayer() : EndToEnd();
    PrintEnvironment();
    if (args_.trace) {
      PrintSelfTimes();
      WriteTrace();
    }
    // Tear down before reporting, so every thread the library started has
    // ended when the result is printed.
    follower_.reset();
    primary_.reset();
    fs::remove_all(run_dir_, ec);
    return Report(metrics);
  }

 private:
  // Set-ups and restarts are short (10-500 ms) and their single samples
  // scatter widely on a shared host, so many are taken: setup_s is their
  // median, recover_s the kRestartRank quantile (a low order statistic that
  // is steadier than the fastest).
  static constexpr int kSetupReps = 7;
  static constexpr int kRestartReps = 15;
  static constexpr double kRestartRank = 0.25;
  static constexpr size_t kMinWindows = 6;

  // The stream, generated and checked in a child process, before any clock.
  void GenerateInputs() {
    const size_t windows =
        2 + static_cast<size_t>(w_.stream_rate * args_.seconds /
                                static_cast<double>(window_updates_));
    const size_t count = windows * window_updates_;
    const int64_t start = NowNanos();
    auto feed = StreamFeed::Start([&](int fd) {
      return ProduceStream(w_, args_.seed, count, fd);
    });
    DieIf(feed.status(), "stream generation");
    feed_ = std::move(*feed);
    generate_s_ = static_cast<double>(NowNanos() - start) / 1e9;
  }

  void Sample(Counters* c) {
    primary_->Sample(c);
    SampleFollower(follower_.get(), c);
  }

  // Runs `fn` as one public call covering `ops` operations; traced when the
  // tracer is on.
  bool Call(SpanKind kind, int64_t batch_id, const std::function<Status()>& fn,
            const std::string& what, int64_t ops = 1) {
    if (!tracer_.enabled()) return tally_.Check(fn(), what, ops);
    Counters before{};
    Counters after{};
    Sample(&before);
    const int64_t t0 = NowNanos();
    Status status = fn();
    const int64_t t1 = NowNanos();
    Sample(&after);
    tracer_.Add(kind, t0, t1, batch_id, before, after);
    return tally_.Check(status, what, ops);
  }

  // Sets up `*d` (and `*f` when the workload has a follower) from scratch
  // and records the time as a `setup_s` sample: ConnectSource,
  // EnableDurability, DefineView, first checkpoint, follower seed.
  bool SetUp(std::unique_ptr<Deployment>* d,
             std::unique_ptr<gsv::ShardedReplica>* f, std::string* home) {
    const std::string dir = run_dir_ + "/setup-" + std::to_string(dirs_++);
    *home = dir + "/home";
    *d = std::make_unique<Deployment>(w_, &source_, base_.root, dir);
    const int64_t probe_before = probe_.Nanos();
    const int64_t t0 = NowNanos();
    bool ok = Call(SpanKind::kDefine, -1,
                   [&] { return (*d)->Open(*home, /*define_views=*/true); },
                   "setup: connect, durability, define") &&
              Call(SpanKind::kCheckpoint, -1,
                   [&] { return (*d)->Checkpoint(); },
                   "setup: first checkpoint");
    if (ok && w_.follower) {
      *f = MakeFollower((*d)->Homes(*home), dir + "/follower");
      const int64_t s0 = NowNanos();
      ok = Call(SpanKind::kSeed, -1, [&] { return (*f)->Start(); },
                "setup: follower seed");
      seed_ms_ = static_cast<double>(NowNanos() - s0) / 1e6;
    }
    const double seconds = static_cast<double>(NowNanos() - t0) / 1e9;
    setup_s_.push_back(seconds *
                       HostSpeedProbe::Scale(probe_before, probe_.Nanos()));
    return ok;
  }

  // One restart from a fresh copy of the serving home, whose views must
  // equal the primary's, and at every other call one extra set-up, torn
  // down again. These samples are spread over the steady phase, between
  // windows and off their clocks, so one slow stretch of the host does not
  // skew every sample of a run.
  void SampleSetUpAndRestart() {
    tracer_.set_enabled(args_.trace);
    std::error_code ec;
    if (recover_s_.size() % 2 == 0 &&
        static_cast<int>(setup_s_.size()) < kSetupReps) {
      std::unique_ptr<Deployment> d;
      std::unique_ptr<gsv::ShardedReplica> f;
      std::string home;
      SetUp(&d, &f, &home);
      f.reset();
      d.reset();
      fs::remove_all(fs::path(home).parent_path(), ec);
    }
    const std::string dir = run_dir_ + "/restart-" + std::to_string(dirs_++);
    CopyTree(home_, dir + "/home");
    std::vector<Lines> expected;
    for (const ViewSpec& view : w_.views) {
      expected.push_back(primary_->Contents(view.name));
    }
    std::unique_ptr<Deployment> recovered;
    const int64_t probe_before = probe_.Nanos();
    const int64_t t0 = NowNanos();
    const bool ok = Call(
        SpanKind::kRecover, -1,
        [&] {
          recovered =
              std::make_unique<Deployment>(w_, &source_, base_.root, dir);
          return recovered->Open(dir + "/home", /*define_views=*/false);
        },
        "restart");
    const double seconds = static_cast<double>(NowNanos() - t0) / 1e9;
    recover_s_.push_back(seconds *
                         HostSpeedProbe::Scale(probe_before, probe_.Nanos()));
    if (ok) {
      recovered_deltas_ = recovered->RecoveredDeltas();
      for (size_t v = 0; v < w_.views.size(); ++v) {
        tally_.Expect(recovered->Contents(w_.views[v].name) == expected[v],
                      "restarted " + w_.views[v].name + " == pre-restart");
      }
    }
    recovered.reset();
    fs::remove_all(dir, ec);
    tracer_.set_enabled(false);
  }

  void PagedStatus(gsv::PagedEngineStatus* status) const {
    if (!w_.paged) return;
    gsv::QueryPagedEngineStatus(primary_->store()->storage_engine(), status);
  }

  // Closed loop over windows of batches until --seconds of window time have
  // passed (at least kMinWindows) or the stream runs out.
  void RunSteadyPhase() {
    reader_ = std::make_unique<Reader>(w_, primary_.get(), follower_.get(),
                                       base_, args_.seed ^ 0x5eed);
    if (primary_->sharded() != nullptr) {
      primary_->sharded()->clear_drain_timings();
    }
    Sample(&steady_before_);
    PagedStatus(&paged_before_);
    std::vector<StreamOp> ops(window_updates_);
    // peak_rss_mb covers the serving stretches only: the high-water restarts
    // after each set-up or restart sample, which holds a second deployment,
    // and is read before the next one.
    ResetPeakRss();
    const int64_t start = NowNanos();
    const int64_t budget_ns = static_cast<int64_t>(args_.seconds * 1e9);
    int64_t window_ns = 0;
    for (size_t wi = 0;; ++wi) {
      if (updates_ + window_updates_ > feed_->size()) break;
      if (wi >= kMinWindows && window_ns >= budget_ns) break;
      // Set-up and restart samples fall due at even steps of window time.
      const int64_t slot = static_cast<int64_t>(recover_s_.size());
      if (slot < kRestartReps &&
          window_ns >= (slot + 1) * budget_ns / (kRestartReps + 1)) {
        stretch_rss_mb_.push_back(PeakRssMb());
        SampleSetUpAndRestart();
        ResetPeakRss();
      }
      // The window's updates are read from the feed before its clock starts.
      for (StreamOp& op : ops) DieIf(feed_->Next(&op), "stream read");
      Window window;
      window.traced = args_.trace && wi % 2 == 1;
      const int64_t probe_before = probe_.Nanos();
      tracer_.set_enabled(window.traced);
      const int64_t w0 = NowNanos();
      for (size_t b = 0; b < w_.window_batches; ++b) {
        RunBatch(&ops[b * kBatch], b, &window);
      }
      window.wall_ns = NowNanos() - w0;
      tracer_.set_enabled(false);
      window.scale = HostSpeedProbe::Scale(probe_before, probe_.Nanos());
      window_ns += window.wall_ns;
      windows_.push_back(std::move(window));
    }
    stretch_rss_mb_.push_back(PeakRssMb());
    while (static_cast<int>(recover_s_.size()) < kRestartReps) {
      SampleSetUpAndRestart();
    }
    steady_s_ = static_cast<double>(NowNanos() - start) / 1e9;
    stream_size_ = feed_->size();
    feed_.reset();  // stops the generator process
    Sample(&steady_after_);
    PagedStatus(&paged_after_);
  }

  // One batch: ingest, drain (+ commit), follower poll, the window's
  // checkpoint when due, then the reads.
  void RunBatch(const StreamOp* ops, size_t b, Window* window) {
    const size_t batch = kBatch;
    std::vector<int64_t> apply_ns(batch);
    Call(
        SpanKind::kIngest, batch_id_,
        [&] {
          for (size_t i = 0; i < batch; ++i) {
            Status status = ApplyOp(&source_, ops[i]);
            apply_ns[i] = NowNanos();
            if (!status.ok()) return status;
          }
          return Status::Ok();
        },
        "ingest", static_cast<int64_t>(batch));
    updates_ += batch;
    window->updates += batch;

    Call(SpanKind::kDrain, batch_id_, [&] { return primary_->Drain(); },
         "drain");
    if (window->traced && primary_->sharded() != nullptr) {
      traced_drains_.push_back(primary_->sharded()->drain_timings().size() - 1);
    }
    if (follower_ != nullptr) {
      Call(SpanKind::kShip, batch_id_, [&] { return follower_->Poll(); },
           "follower poll");
      const gsv::ReplicaStaleness staleness = follower_->staleness();
      max_lag_after_poll_ = std::max(max_lag_after_poll_, staleness.lag_bytes);
      tally_.Expect(staleness.lag_bytes == 0 && !staleness.stale,
                    "follower current after poll");
    }
    const int64_t visible_ns = NowNanos();
    for (size_t i = 0; i < batch; ++i) {
      window->visible_us.push_back(
          static_cast<double>(visible_ns - apply_ns[i]) / 1e3);
    }
    if (b + 1 == w_.checkpoint_after) {
      const int64_t c0 = NowNanos();
      Call(SpanKind::kCheckpoint, batch_id_,
           [&] { return primary_->Checkpoint(); }, "checkpoint");
      checkpoint_ms_.push_back(static_cast<double>(NowNanos() - c0) / 1e6);
    }
    for (size_t r = 0; r < w_.reads_per_batch; ++r) {
      ReadResult result;
      reader_->Prepare();
      const int64_t r0 = NowNanos();
      Call(
          SpanKind::kRead, batch_id_,
          [&] {
            result = reader_->Run();
            return result.stale ? Status::Unavailable("read served stale")
                                : result.status;
          },
          "read");
      window->read_us.push_back(static_cast<double>(NowNanos() - r0) / 1e3);
      if (window->traced) {
        read_rows_ += static_cast<int64_t>(result.rows);
        ++traced_reads_;
      }
    }
    ++batch_id_;
  }

  // Windows past warm-up, untraced (measured) or traced.
  std::vector<const Window*> Windows(bool traced) const {
    std::vector<const Window*> out;
    for (size_t i = 1; i < windows_.size(); ++i) {
      if (windows_[i].traced == traced) out.push_back(&windows_[i]);
    }
    return out;
  }

  std::vector<Metric> EndToEnd() const {
    const std::vector<const Window*> measured = Windows(false);
    if (measured.empty()) Die("no measured window");
    return {
        {"setup_s", Median(setup_s_), "s"},
        {"updates_per_s", UpdatesPerSecond(measured), "1/s"},
        {"visible_p50_us", LatencyQuantile(measured, &Window::visible_us, 0.5),
         "us"},
        {"visible_p90_us", LatencyQuantile(measured, &Window::visible_us, 0.9),
         "us"},
        {"read_p50_us", LatencyQuantile(measured, &Window::read_us, 0.5), "us"},
        {"read_p90_us", LatencyQuantile(measured, &Window::read_us, 0.9), "us"},
        {"recover_s", Quantile(recover_s_, kRestartRank), "s"},
        {"peak_rss_mb", Median(stretch_rss_mb_), "MB"},
        {"wal_bytes_per_update",
         Ratio(steady_after_[kWalBytes] - steady_before_[kWalBytes],
               static_cast<int64_t>(updates_)),
         "B"},
    };
  }

  // Self time of each span kind over the traced windows, in ns.
  std::vector<double> SelfNanos() const {
    std::vector<double> self(static_cast<size_t>(SpanKind::kCount), 0.0);
    for (const Span& span : tracer_.spans()) {
      if (span.batch < 0) continue;  // set-up and restart samples
      self[static_cast<size_t>(span.kind)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
    return self;
  }

  size_t TracedUpdates() const {
    size_t n = 0;
    for (const Window* x : Windows(true)) n += x->updates;
    return n;
  }

  std::vector<Metric> PerLayer() const {
    const std::vector<const Window*> traced = Windows(true);
    const std::vector<const Window*> measured = Windows(false);
    if (traced.empty() || measured.empty()) Die("no traced window");
    const std::vector<double> self_ns = SelfNanos();
    // Counter movement inside the traced windows' spans, all and reads.
    Counters d{};
    Counters read_d{};
    for (const Span& span : tracer_.spans()) {
      if (span.batch < 0) continue;
      for (size_t i = 0; i < kCounterCount; ++i) {
        d[i] += span.delta[i];
        if (span.kind == SpanKind::kRead) read_d[i] += span.delta[i];
      }
    }
    const double updates = static_cast<double>(TracedUpdates());
    auto per_update = [&](double v) { return v / updates; };
    auto self_us = [&](SpanKind k) {
      return per_update(self_ns[static_cast<size_t>(k)] / 1e3);
    };
    double covered_ns = 0.0;
    for (double ns : self_ns) covered_ns += ns;
    int64_t traced_wall_ns = 0;
    for (const Window* x : traced) traced_wall_ns += x->wall_ns;

    // Sharding split from the DrainTiming of the traced drains.
    double serial_us = 0.0;
    double eval_max_us = 0.0;
    double skew = 0.0;
    if (primary_->sharded() != nullptr && !traced_drains_.empty()) {
      const auto& timings = primary_->sharded()->drain_timings();
      for (size_t index : traced_drains_) {
        const auto& t = timings[index];
        serial_us += static_cast<double>(t.serial_micros);
        double max_eval = 0.0;
        double sum_eval = 0.0;
        for (int64_t e : t.eval_micros) {
          max_eval = std::max(max_eval, static_cast<double>(e));
          sum_eval += static_cast<double>(e);
        }
        eval_max_us += max_eval;
        if (sum_eval > 0) {
          skew += max_eval /
                  (sum_eval / static_cast<double>(t.eval_micros.size()));
        }
      }
      const double drains = static_cast<double>(traced_drains_.size());
      serial_us /= drains;
      eval_max_us /= drains;
      skew /= drains;
    }
    // Screening counts once per (event, Algorithm 1 view); every tree view
    // is simple (Algorithm 1), every DAG view runs on GDN.
    const int64_t alg1_views =
        w_.dag ? 0 : static_cast<int64_t>(w_.views.size());
    const double reads = static_cast<double>(traced_reads_);
    auto per_read = [&](double v) { return reads > 0 ? v / reads : 0.0; };
    const bool follower_reads = w_.reads == ReadKind::kFollowerMix;
    const double untraced_ups = UpdatesPerSecond(measured);
    return {
        {"oem.ingest_us_per_update", self_us(SpanKind::kIngest), "us"},
        {"oem.index_probes_per_update", per_update(d[kSrcProbes]), "count"},
        {"oem.index_fallback_frac",
         Ratio(d[kSrcFallbacks], d[kSrcProbes] + d[kSrcFallbacks]), "1"},
        {"oem.edges_per_update", per_update(d[kSrcEdges]), "count"},
        {"warehouse.drain_us_per_update", self_us(SpanKind::kDrain), "us"},
        {"warehouse.screened_frac",
         Ratio(d[kScreenedOut], d[kEventsReceived] * alg1_views), "1"},
        {"warehouse.coalesced_frac", Ratio(d[kCoalesced], d[kEventsReceived]),
         "1"},
        {"warehouse.source_queries_per_update", per_update(d[kSourceQueries]),
         "count"},
        {"warehouse.objects_shipped_per_update",
         per_update(d[kObjectsShipped]), "count"},
        {"warehouse.cache_hit_frac",
         Ratio(d[kCacheHits], d[kCacheHits] + d[kCacheMisses]), "1"},
        {"core.alg1_matched_frac", Ratio(d[kAlgMatched], d[kAlgUpdates]), "1"},
        {"core.alg1_rechecks_per_update", per_update(d[kAlgRechecks]),
         "count"},
        {"core.view_deltas_per_update", per_update(d[kAlgDeltas]), "count"},
        {"ivm.propagations_per_update", per_update(d[kGdnPropagations]),
         "count"},
        {"ivm.matches_created_per_update", per_update(d[kGdnCreated]),
         "count"},
        {"ivm.matches_live",
         static_cast<double>(steady_after_[kGdnCreated] -
                             steady_after_[kGdnFreed]),
         "count"},
        {"paged.faults_per_update", per_update(d[kPageFaults]), "count"},
        {"paged.evictions_per_update", per_update(d[kPageEvictions]),
         "count"},
        {"paged.writeback_bytes_per_update", per_update(d[kWritebackBytes]),
         "B"},
        {"paged.swizzle_hit_frac",
         Ratio(d[kSwizzleHits], d[kSwizzleHits] + d[kSwizzleMisses]), "1"},
        {"paged.stored_to_raw",
         Ratio(static_cast<int64_t>(paged_after_.disk_payload_bytes),
               static_cast<int64_t>(paged_after_.disk_raw_bytes)),
         "1"},
        {"paged.sync_fallbacks",
         static_cast<double>(paged_after_.writeback_sync_fallbacks -
                             paged_before_.writeback_sync_fallbacks),
         "count"},
        {"storage.wal_records_per_update", per_update(d[kWalRecords]),
         "count"},
        {"storage.commits_per_update", per_update(d[kCommits]), "count"},
        {"storage.checkpoint_ms", Median(checkpoint_ms_), "ms"},
        {"storage.recover_deltas_redone",
         static_cast<double>(recovered_deltas_), "count"},
        {"sharding.serial_us_per_drain", serial_us, "us"},
        {"sharding.eval_max_us_per_drain", eval_max_us, "us"},
        {"sharding.eval_skew", skew, "1"},
        {"sharding.cross_shard_ops_per_update",
         per_update(d[kCrossShardExports]), "count"},
        {"replication.ship_us_per_update", self_us(SpanKind::kShip), "us"},
        {"replication.bytes_mirrored_per_update", per_update(d[kMirrored]),
         "B"},
        {"replication.lag_bytes_after_poll",
         static_cast<double>(max_lag_after_poll_), "B"},
        {"replication.seed_ms", seed_ms_, "ms"},
        {"query.rows_per_read", per_read(static_cast<double>(read_rows_)),
         "count"},
        {"query.lookups_per_read",
         per_read(static_cast<double>(follower_reads
                                          ? read_d[kFollowerLookups]
                                          : read_d[kDelegateLookups])),
         "count"},
        {"query.faults_per_read",
         per_read(static_cast<double>(read_d[kPageFaults])), "count"},
        {"trace.coverage", covered_ns / static_cast<double>(traced_wall_ns),
         "1"},
        {"trace.overhead_frac",
         1.0 - UpdatesPerSecond(traced) / untraced_ups, "1"},
    };
  }

  void PrintEnvironment() const {
    std::printf("workload %s: %s\n", w_.name.c_str(), w_.why.c_str());
    std::printf(
        "env nproc=%u work_dir=%s fs=%s wal_fsync=%s build=%s seed=%llu "
        "trace=%d\n",
        std::thread::hardware_concurrency(), run_dir_.c_str(),
        FsName(run_dir_).c_str(), gsv::FsyncPolicyName(kFsync),
#ifdef NDEBUG
        "release",
#else
        "debug",
#endif
        static_cast<unsigned long long>(args_.seed), args_.trace ? 1 : 0);
    std::printf(
        "base objects=%zu shards=%u drain_threads=%zu engine=%s views=%zu "
        "level=%d batch=%zu window=%zu batches, checkpoint after batch %zu\n",
        base_.objects, w_.shards, w_.drain_threads,
        w_.paged ? "paged:gsvz" : "memory", w_.views.size(),
        static_cast<int>(w_.level), kBatch, w_.window_batches,
        w_.checkpoint_after);
    if (w_.paged) {
      std::printf("paged pool=%llu pages x %llu B, writeback inline\n",
                  static_cast<unsigned long long>(kPoolPages),
                  static_cast<unsigned long long>(kPageBytes));
    }
    std::printf(
        "stream generated=%zu replayed=%zu generate_s=%.2f steady_s=%.2f "
        "windows=%zu (warm-up 1, measured %zu, traced %zu) "
        "samples/window visible=%zu reads=%zu\n",
        stream_size_, updates_, generate_s_, steady_s_, windows_.size(),
        Windows(false).size(), Windows(true).size(), window_updates_,
        w_.window_batches * w_.reads_per_batch);
    // The window figures before host-speed scaling, for comparison.
    std::vector<double> scales;
    std::vector<Window> unscaled;
    for (const Window* x : Windows(false)) {
      scales.push_back(x->scale);
      unscaled.push_back(*x);
      unscaled.back().scale = 1.0;
    }
    std::vector<const Window*> raw;
    for (const Window& x : unscaled) raw.push_back(&x);
    std::printf(
        "host-speed scale (reference probe %.0f ns, elasticity %.1f) over "
        "measured windows: p10 %.3f, median %.3f, p90 %.3f\n",
        HostSpeedProbe::kReferenceNanos, HostSpeedProbe::kElasticity,
        Quantile(scales, 0.1),
        Median(scales), Quantile(scales, 0.9));
    std::printf(
        "unscaled updates_per_s=%.1f visible_p50_us=%.1f visible_p90_us=%.1f "
        "read_p50_us=%.2f read_p90_us=%.2f\n",
        UpdatesPerSecond(raw), LatencyQuantile(raw, &Window::visible_us, 0.5),
        LatencyQuantile(raw, &Window::visible_us, 0.9),
        LatencyQuantile(raw, &Window::read_us, 0.5),
        LatencyQuantile(raw, &Window::read_us, 0.9));
    std::printf(
        "setup samples=%zu restart samples=%zu attempted=%lld failed=%lld "
        "failed_frac=%g\n",
        setup_s_.size(), recover_s_.size(),
        static_cast<long long>(tally_.attempted),
        static_cast<long long>(tally_.failed),
        Ratio(tally_.failed, tally_.attempted));
  }

  // Layer self time, every span kind (steady phase, per update).
  void PrintSelfTimes() const {
    const std::vector<double> self_ns = SelfNanos();
    const double updates = static_cast<double>(TracedUpdates());
    for (size_t k = 0; k < self_ns.size(); ++k) {
      std::printf("self %-10s %10.2f us/update\n",
                  SpanName(static_cast<SpanKind>(k)),
                  self_ns[k] / 1e3 / updates);
    }
  }

  // Every span with its counter deltas, one JSON object per line.
  void WriteTrace() const {
    std::error_code ec;
    const std::string dir = fs::absolute(args_.work_dir).string() + "/traces";
    fs::create_directories(dir, ec);
    const std::string path =
        dir + "/" + w_.name + "-seed" + std::to_string(args_.seed) + ".jsonl";
    std::ofstream out(path);
    for (const Span& span : tracer_.spans()) {
      out << "{\"span\":\"" << SpanName(span.kind)
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"batch\":" << span.batch << ",\"delta\":[";
      for (size_t i = 0; i < kCounterCount; ++i) {
        out << (i ? "," : "") << span.delta[i];
      }
      out << "]}\n";
    }
    std::printf("trace spans=%zu written to %s\n", tracer_.spans().size(),
                path.c_str());
  }

  int Report(const std::vector<Metric>& metrics) const {
    for (const Metric& m : metrics) {
      std::printf("metric %-40s %14s %s\n", m.name.c_str(),
                  FormatNumber(m.value).c_str(), m.unit.c_str());
    }
    const bool correct = tally_.failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally_.attempted);
    json += ", \"failed\": " + std::to_string(tally_.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " +
              FormatNumber(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  const Args& args_;
  const Workload& w_;
  const size_t window_updates_;
  const std::string run_dir_;

  std::unique_ptr<StreamFeed> feed_;
  double generate_s_ = 0.0;
  size_t stream_size_ = 0;
  gsv::ObjectStore source_;
  Base base_;
  Tally tally_;
  Tracer tracer_;
  std::unique_ptr<Deployment> primary_;
  std::unique_ptr<gsv::ShardedReplica> follower_;
  std::string home_;  // the serving deployment's durable home
  std::unique_ptr<Reader> reader_;
  int dirs_ = 0;
  HostSpeedProbe probe_;

  std::vector<double> setup_s_;
  std::vector<double> recover_s_;
  double seed_ms_ = 0.0;
  int64_t recovered_deltas_ = 0;

  std::vector<Window> windows_;
  int64_t batch_id_ = 0;
  size_t updates_ = 0;
  double steady_s_ = 0.0;
  // Resident high-water of each serving stretch between samples, in MiB.
  std::vector<double> stretch_rss_mb_;
  std::vector<double> checkpoint_ms_;
  uint64_t max_lag_after_poll_ = 0;
  int64_t read_rows_ = 0;
  int64_t traced_reads_ = 0;
  std::vector<size_t> traced_drains_;  // indexes into drain_timings()
  Counters steady_before_{};
  Counters steady_after_{};
  gsv::PagedEngineStatus paged_before_;
  gsv::PagedEngineStatus paged_after_;
};

int Run(const Args& args) {
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) return Bench(args, w).Run();
  }
  Die("unknown workload '" + args.workload + "'");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
