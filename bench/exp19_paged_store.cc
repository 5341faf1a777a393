// E19 — Beyond-RAM warehouse: the paged storage engine under a buffer
// pool far smaller than the store (§4h).
//
// Builds a source tree whose warehouse image is many times the pool
// budget, runs the warehouse's delegate store on the PagedEngine, and
// drives a drain-batched update stream. Three claims are measured:
//
//   footprint   the on-disk store is >= 4x the pool's RAM budget (the
//               warehouse genuinely holds a graph it could not pool) —
//               hard floor, exit 1 when it fails;
//   delta cost  a maintenance drain faults in pages proportional to the
//               delta it integrates, not to the store: faults per drain
//               must undercut the full page sweep a store-wide recompute
//               would pay (floor 1.5x smoke / 3x full);
//   residency   the pool ends every drain within budget (peak resident
//               pages <= pool_pages).
//
// A memory-engine twin warehouse consumes the identical stream; the run
// cross-checks byte-identical store images at the end, so the numbers
// above are measured on a provably correct execution.
//
// Emits one newline-delimited JSON record per pool configuration;
// --json=PATH redirects the records to a file.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "util/stopwatch.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

int main(int argc, char** argv) {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const size_t kLevels = smoke ? 5 : 6;
  const size_t kFanout = 6;
  const size_t kUpdates = smoke ? 320 : 1600;
  const size_t kDrainEvery = 32;
  const uint64_t kPageBytes = 512;
  const double kFootprintFloor = 4.0;
  const double kDeltaFloor = smoke ? 1.5 : 3.0;
  const uint64_t kTreeSeed = 307;
  const uint64_t kUpdateSeed = 311;

  // Pool budgets from starved to comfortable; the footprint floor is
  // enforced on the smallest (the headline beyond-RAM configuration).
  std::vector<uint64_t> pools = smoke ? std::vector<uint64_t>{8, 16, 32}
                                      : std::vector<uint64_t>{16, 64, 256};

  std::printf(
      "E19: beyond-RAM warehouse — paged delegate store vs pool budget "
      "(%s)\ntree levels=%zu fanout=%zu, %zu updates drained every %zu, "
      "page %llu B\nfloors: footprint >= %.1fx pool, drain faults undercut "
      "full sweep by %.1fx\n\n",
      smoke ? "smoke" : "full", kLevels, kFanout, kUpdates, kDrainEvery,
      static_cast<unsigned long long>(kPageBytes), kFootprintFloor,
      kDeltaFloor);

  JsonLines json(json_path, "gsv.exp19.v1", kTreeSeed);
  TablePrinter table({"pool_pages", "objects", "pages", "footprint",
                      "faults/drain", "sweep_ratio", "wb_kb", "drain_us"});

  bool footprint_ok = false;
  double worst_delta_ratio = 0.0;
  bool first_pool = true;

  for (uint64_t pool_pages : pools) {
    // ---- Twin sources, twin streams: memory reference vs paged subject.
    ObjectStore source_m;
    ObjectStore source_p;
    TreeGenOptions tree_options;
    tree_options.levels = kLevels;
    tree_options.fanout = kFanout;
    tree_options.seed = kTreeSeed;
    auto tree_m = GenerateTree(&source_m, tree_options);
    auto tree_p = GenerateTree(&source_p, tree_options);
    Check(tree_m.status());
    Check(tree_p.status());
    const Oid root = tree_p->root;
    // A warehouse's delegate store holds the view members, so the views
    // select whole tree levels (bound above every generated value) to
    // give the warehouse a genuinely beyond-RAM image.
    std::vector<std::string> definitions;
    for (size_t d = 2; d < kLevels; ++d) {
      definitions.push_back(TreeViewDefinition(
          "WV" + std::to_string(d), root, d, kLevels, 1000));
    }

    ObjectStore store_m;
    Warehouse warehouse_m(&store_m);
    Check(warehouse_m.ConnectSource(&source_m, root,
                                    ReportingLevel::kWithValues));
    warehouse_m.set_deferred(true);
    for (const std::string& definition : definitions) {
      Check(warehouse_m.DefineView(definition));
    }

    PagedEngineOptions engine_options;
    engine_options.dir =
        "/tmp/gsv_exp19_pool" + std::to_string(pool_pages);
    std::filesystem::remove_all(engine_options.dir);
    engine_options.page_bytes = kPageBytes;
    engine_options.pool_pages = pool_pages;
    engine_options.wipe_on_close = true;
    ObjectStore::Options store_options;
    store_options.engine_factory = MakePagedEngineFactory(engine_options);
    ObjectStore store_p(store_options);
    Warehouse warehouse_p(&store_p);
    Check(warehouse_p.ConnectSource(&source_p, root,
                                    ReportingLevel::kWithValues));
    warehouse_p.set_deferred(true);
    for (const std::string& definition : definitions) {
      Check(warehouse_p.DefineView(definition));
    }

    UpdateGenOptions gen_options;
    gen_options.seed = kUpdateSeed;
    UpdateGenerator gen_m(&source_m, root, gen_options);
    UpdateGenerator gen_p(&source_p, root, gen_options);

    // ---- Maintenance phase: drain-batched stream, faults metered.
    const int64_t faults_before =
        store_p.metrics().page_faults.load(std::memory_order_relaxed);
    size_t drains = 0;
    double drain_micros = 0.0;
    for (size_t i = 0; i < kUpdates; ++i) {
      Check(gen_m.Step());
      Check(gen_p.Step());
      if ((i + 1) % kDrainEvery == 0) {
        Check(warehouse_m.ProcessPendingBatch());
        Stopwatch timer;
        Check(warehouse_p.ProcessPendingBatch());
        drain_micros += static_cast<double>(timer.ElapsedMicros());
        ++drains;
      }
    }
    Check(warehouse_m.ProcessPendingBatch());
    Check(warehouse_p.ProcessPendingBatch());
    const int64_t faults =
        store_p.metrics().page_faults.load(std::memory_order_relaxed) -
        faults_before;

    // ---- Correctness: byte-identical with the memory twin.
    if (StoreToString(store_p) != StoreToString(store_m)) {
      std::fprintf(stderr,
                   "E19: paged store diverged from memory twin "
                   "(pool=%llu)\n",
                   static_cast<unsigned long long>(pool_pages));
      return 1;
    }

    PagedEngineStatus status;
    if (!QueryPagedEngineStatus(store_p.storage_engine(), &status)) {
      std::fprintf(stderr, "E19: engine is not paged?\n");
      return 1;
    }
    Check(status.io_error);

    const double budget_bytes =
        static_cast<double>(pool_pages * kPageBytes);
    const double footprint =
        static_cast<double>(status.disk_payload_bytes) / budget_bytes;
    const double faults_per_drain =
        drains == 0 ? 0.0
                    : static_cast<double>(faults) / static_cast<double>(drains);
    // A store-wide recompute over the warehouse image would sweep every
    // page once; a drain proportional to its delta must cost less.
    const double sweep_ratio =
        faults_per_drain == 0.0
            ? static_cast<double>(status.pages_total)
            : static_cast<double>(status.pages_total) / faults_per_drain;
    const int64_t writeback =
        store_p.metrics().page_writeback_bytes.load(std::memory_order_relaxed);

    if (first_pool) {
      footprint_ok = footprint >= kFootprintFloor;
      first_pool = false;
    }
    if (worst_delta_ratio == 0.0 || sweep_ratio < worst_delta_ratio) {
      worst_delta_ratio = sweep_ratio;
    }
    if (status.pages_resident > status.pool_pages) {
      std::fprintf(stderr,
                   "E19: pool over budget after drain (%llu > %llu)\n",
                   static_cast<unsigned long long>(status.pages_resident),
                   static_cast<unsigned long long>(status.pool_pages));
      return 1;
    }

    table.Row({Num(static_cast<int64_t>(pool_pages)),
               Num(static_cast<int64_t>(status.objects)),
               Num(static_cast<int64_t>(status.pages_total)),
               Ratio(footprint), Micros(faults_per_drain),
               Ratio(sweep_ratio), Num(writeback / 1024),
               Micros(drains == 0 ? 0.0 : drain_micros / drains)});
    json.Record({{"pool_pages", Num(static_cast<int64_t>(pool_pages))},
                 {"page_bytes", Num(static_cast<int64_t>(kPageBytes))},
                 {"objects", Num(static_cast<int64_t>(status.objects))},
                 {"pages_total", Num(static_cast<int64_t>(status.pages_total))},
                 {"disk_payload_bytes",
                  Num(static_cast<int64_t>(status.disk_payload_bytes))},
                 {"footprint_ratio", Micros(footprint)},
                 {"faults_per_drain", Micros(faults_per_drain)},
                 {"sweep_ratio", Micros(sweep_ratio)},
                 {"writeback_bytes", Num(writeback)},
                 {"drain_us",
                  Micros(drains == 0 ? 0.0 : drain_micros / drains)}});
  }

  std::printf("\n");
  if (!footprint_ok) {
    std::fprintf(stderr,
                 "E19 FAILED: smallest pool's footprint ratio is below "
                 "%.1fx — the store fits in RAM and proves nothing\n",
                 kFootprintFloor);
    return 1;
  }
  if (worst_delta_ratio < kDeltaFloor) {
    std::fprintf(stderr,
                 "E19 FAILED: drain faults came within %.2fx of a full "
                 "page sweep (floor %.1fx) — maintenance is not "
                 "delta-proportional\n",
                 worst_delta_ratio, kDeltaFloor);
    return 1;
  }
  std::printf(
      "E19 ok: beyond-RAM footprint >= %.1fx pool, drains undercut the "
      "full sweep by >= %.2fx\n",
      kFootprintFloor, worst_delta_ratio);
  return 0;
}
