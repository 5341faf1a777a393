// E18 — Replication: WAL-shipped read replicas (DESIGN.md §4g).
//
// Runs a durable primary (WAL + checkpoints, epoch 1) through a
// modify-heavy stream, then measures the follower side of the shipping
// protocol:
//
//   catch-up     a fresh follower seeds from the primary's checkpoint and
//                tails the committed log to the watermark — records/sec,
//                over a clean channel and over a fault-injected one
//                (outages, torn reads, duplicated chunks, bit flips).
//                The floor compares the clean catch-up against the §4.4
//                baseline of defining every view from scratch over the
//                live source: the replica must be cheaper than recompute,
//                or the serving tier has no reason to exist.
//   steady-state a caught-up follower polls once per primary commit; the
//                per-round shipped bytes, apply latency, and the residual
//                lag after the poll (must be zero — the follower is
//                byte-current at every commit watermark).
//   promotion    fence the old primary, open the follower's home as the
//                new primary's WAL (epoch 2), accept the first write —
//                wall-clock from Promote() to the write being durable,
//                split into fence / takeover / first-write. The old
//                primary's next append must die on the fence.
//
// Every phase cross-checks follower view content byte-for-byte against
// the primary. Exit 1 when a cross-check fails or the catch-up ratio
// drops below the floor: 2x full, 1.5x --smoke (CI-sized).
//
// Emits one newline-delimited JSON record per measurement; --json=PATH
// redirects the records to a file.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/materialized_view.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "replication/checksums.h"
#include "replication/log_transport.h"
#include "replication/replica.h"
#include "replication/transport_fault.h"
#include "storage/wal.h"
#include "util/stopwatch.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace {

using namespace gsv;         // NOLINT(build/namespaces)
using namespace gsv::bench;  // NOLINT(build/namespaces)

// Follower view content must match the primary's byte-for-byte.
bool ContentMatches(const Replica& replica, Warehouse& primary,
                    const std::vector<std::string>& names,
                    const char* phase) {
  for (const std::string& name : names) {
    auto read = replica.ReadView(name);
    if (!read.ok()) {
      std::fprintf(stderr, "%s: ReadView(%s): %s\n", phase, name.c_str(),
                   read.status().ToString().c_str());
      return false;
    }
    if (read->lines != ViewContentLines(*primary.view(name))) {
      std::fprintf(stderr, "%s: follower %s diverged from primary\n", phase,
                   name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const size_t kLevels = 6;
  const size_t kFanout = 6;
  const size_t kViews = smoke ? 2 : 4;
  const size_t kUpdates = smoke ? 400 : 2000;
  const size_t kDrainEvery = 32;
  // A mid-stream checkpoint splits catch-up into its two real costs: seed
  // (checkpoint image fetch + adopt) and tail (committed delta redo).
  const uint64_t kCheckpointInterval = kUpdates / 2;
  const size_t kRounds = smoke ? 10 : 50;
  const size_t kRoundBatch = 10;
  const double kFloor = smoke ? 1.5 : 2.0;
  const uint64_t kTreeSeed = 233;
  const uint64_t kUpdateSeed = 239;

  std::printf(
      "E18: replication — WAL-shipped follower catch-up, staleness, "
      "promotion (%s)\n"
      "tree levels=%zu fanout=%zu, %zu views, %zu updates, floor %.1fx\n\n",
      smoke ? "smoke" : "full", kLevels, kFanout, kViews, kUpdates, kFloor);

  JsonLines json(json_path, "gsv.exp18.v1", kTreeSeed);

  const std::string primary_dir = "/tmp/gsv_exp18_primary";
  std::filesystem::remove_all(primary_dir);

  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.levels = kLevels;
  tree_options.fanout = kFanout;
  tree_options.seed = kTreeSeed;
  auto tree = GenerateTree(&source, tree_options);
  Check(tree.status());

  std::vector<std::string> names;
  std::vector<std::string> definitions;
  for (size_t v = 0; v < kViews; ++v) {
    names.push_back("WV" + std::to_string(v));
    definitions.push_back(TreeViewDefinition(
        names.back(), tree->root, 2, kLevels,
        static_cast<int64_t>(10 + v * 20)));
  }

  // ---- The primary: durable, epoch-fenced, checkpointing mid-stream.
  ObjectStore primary_store;
  Warehouse primary(&primary_store);
  Check(primary.ConnectSource(&source, tree->root,
                              ReportingLevel::kWithValues));
  primary.set_deferred(true);
  Warehouse::DurabilityOptions durability;
  durability.dir = primary_dir;
  durability.fsync = FsyncPolicy::kNever;  // timing the follower, not the disk
  durability.checkpoint_interval_events = kCheckpointInterval;
  durability.epoch = 1;
  durability.owner = "primary";
  Check(primary.EnableDurability(durability));
  for (const std::string& definition : definitions) {
    Check(primary.DefineView(definition));
  }

  UpdateGenOptions gen_options;
  gen_options.seed = kUpdateSeed;
  gen_options.p_modify = 0.6;
  gen_options.p_insert = 0.2;
  gen_options.p_delete = 0.2;
  UpdateGenerator generator(&source, tree->root, gen_options);
  for (size_t applied = 0; applied < kUpdates; applied += kDrainEvery) {
    Check(generator.Run(std::min(kDrainEvery, kUpdates - applied)).status());
    Check(primary.ProcessPendingBatch());
  }
  Check(PublishChecksums(primary));

  // ---- §4.4 baseline: the read-scale alternative is another warehouse
  // recomputing every view over the live source (index-free, as E16).
  ObjectStore::Options plain_options;
  plain_options.enable_label_index = false;
  ObjectStore source_plain(plain_options);
  Check(StoreFromString(StoreToString(source), &source_plain));
  auto time_recompute = [&]() {
    ObjectStore store_full;
    Warehouse full(&store_full);
    Check(full.ConnectSource(&source_plain, tree->root,
                             ReportingLevel::kWithValues));
    Stopwatch recompute;
    for (const std::string& definition : definitions) {
      Check(full.DefineView(definition));
    }
    return recompute.ElapsedMicros();
  };
  // The floor compares two runs of a few milliseconds each, so the clean
  // catch-up and the recompute alternate within one trial loop (scheduler
  // noise hits both alike) and each keeps its minimum over the trials.
  const int kReps = 3;
  const int kCleanReps = 5;
  int64_t recompute_micros = 0;

  // ---- Catch-up: fresh follower, clean channel vs faulted channel.
  std::printf("catch-up (seed from checkpoint + tail %zu committed rounds)\n",
              kUpdates / kDrainEvery);
  TablePrinter catchup_table(
      {"channel", "records", "reseeds", "catchup_us", "recomp_us", "rec/sec"});
  int64_t clean_catchup_micros = 0;
  for (const bool faulted : {false, true}) {
    const char* label = faulted ? "faulted" : "clean";
    int64_t catchup_micros = 0;
    int64_t records = 0;
    int64_t reseeds = 0;
    for (int rep = 0; rep < (faulted ? kReps : kCleanReps); ++rep) {
      if (!faulted) {
        const int64_t micros = time_recompute();
        if (rep == 0 || micros < recompute_micros) recompute_micros = micros;
      }
      const std::string dir =
          std::string("/tmp/gsv_exp18_catchup_") + label;
      std::filesystem::remove_all(dir);
      std::unique_ptr<LogTransport> transport =
          std::make_unique<FileLogTransport>(primary_dir);
      if (faulted) {
        TransportFaultProfile profile;
        profile.seed = 77 + static_cast<uint64_t>(rep);
        profile.fail_rate = 0.05;
        profile.fail_burst = 2;
        profile.stale_list_rate = 0.05;
        profile.torn_read_rate = 0.10;
        profile.duplicate_rate = 0.10;
        profile.flip_rate = 0.05;
        transport = std::make_unique<FaultInjectedTransport>(
            std::move(transport), profile);
      }
      ReplicaOptions options;
      options.dir = dir;
      Replica replica(std::move(transport), options);
      Stopwatch catchup;
      Status started = replica.Start();
      for (int attempt = 0; !started.ok() && attempt < 50; ++attempt) {
        started = replica.Start();  // transient seed failures are retryable
      }
      Check(started);
      Check(replica.CatchUp(/*max_polls=*/400));
      int64_t micros = catchup.ElapsedMicros();
      if (rep == 0 || micros < catchup_micros) catchup_micros = micros;
      records = replica.stats().records_applied;
      reseeds = replica.stats().reseeds;
      if (!ContentMatches(replica, primary, names, label)) return 1;
      std::filesystem::remove_all(dir);
    }
    if (!faulted) clean_catchup_micros = catchup_micros;
    double rate = catchup_micros > 0
                      ? static_cast<double>(records) * 1e6 /
                            static_cast<double>(catchup_micros)
                      : 0.0;
    catchup_table.Row({label, Num(records), Num(reseeds), Num(catchup_micros),
                       Num(recompute_micros),
                       Num(static_cast<int64_t>(rate))});
    json.Record({{"exp", Quoted("exp18_catchup")},
                 {"mode", Quoted(smoke ? "smoke" : "full")},
                 {"channel", Quoted(label)},
                 {"levels", Num(kLevels)},
                 {"views", Num(kViews)},
                 {"updates", Num(kUpdates)},
                 {"records_applied", Num(records)},
                 {"reseeds", Num(reseeds)},
                 {"catchup_micros", Num(catchup_micros)},
                 {"recompute_micros", Num(recompute_micros)},
                 {"records_per_sec", Micros(rate)}});
  }

  // ---- Steady state: one poll per primary commit; residual lag must be
  // zero (the follower is byte-current at every commit watermark).
  const std::string steady_dir = "/tmp/gsv_exp18_steady";
  std::filesystem::remove_all(steady_dir);
  ReplicaOptions steady_options;
  steady_options.dir = steady_dir;
  Replica follower(std::make_unique<FileLogTransport>(primary_dir),
                   steady_options);
  Check(follower.Start());
  Check(follower.CatchUp(/*max_polls=*/64));

  int64_t total_poll_micros = 0;
  int64_t max_poll_micros = 0;
  int64_t total_shipped = 0;
  uint64_t max_residual_lag = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    Check(generator.Run(kRoundBatch).status());
    Check(primary.ProcessPendingBatch());
    int64_t before = follower.stats().bytes_mirrored;
    Stopwatch poll;
    Check(follower.Poll());
    int64_t micros = poll.ElapsedMicros();
    total_poll_micros += micros;
    if (micros > max_poll_micros) max_poll_micros = micros;
    total_shipped += follower.stats().bytes_mirrored - before;
    if (follower.staleness().lag_bytes > max_residual_lag) {
      max_residual_lag = follower.staleness().lag_bytes;
    }
  }
  if (max_residual_lag != 0) {
    std::fprintf(stderr,
                 "steady-state: residual lag %llu bytes after poll\n",
                 static_cast<unsigned long long>(max_residual_lag));
    return 1;
  }
  if (follower.applied_lsn() != primary.wal()->next_lsn() - 1) {
    std::fprintf(stderr, "steady-state: follower behind the commit mark\n");
    return 1;
  }
  if (!ContentMatches(follower, primary, names, "steady-state")) return 1;
  double avg_poll = static_cast<double>(total_poll_micros) /
                    static_cast<double>(kRounds);
  std::printf("\nsteady state (%zu rounds of %zu updates per commit)\n",
              kRounds, kRoundBatch);
  TablePrinter steady_table(
      {"rounds", "ship_bytes", "avg_poll_us", "max_poll_us", "lag_after"});
  steady_table.Row({Num(kRounds), Num(total_shipped / (int64_t)kRounds),
                    Micros(avg_poll), Num(max_poll_micros),
                    Num((int64_t)max_residual_lag)});
  json.Record({{"exp", Quoted("exp18_steady_state")},
               {"mode", Quoted(smoke ? "smoke" : "full")},
               {"rounds", Num(kRounds)},
               {"round_batch", Num(kRoundBatch)},
               {"avg_ship_bytes", Num(total_shipped / (int64_t)kRounds)},
               {"avg_poll_micros", Micros(avg_poll)},
               {"max_poll_micros", Num(max_poll_micros)},
               {"max_residual_lag", Num((int64_t)max_residual_lag)}});

  // ---- Promotion: fence the primary, open the follower's home as the
  // next primary's WAL, accept the first write.
  Stopwatch fence_watch;
  auto granted = follower.Promote("promoted");
  Check(granted.status());
  int64_t fence_micros = fence_watch.ElapsedMicros();

  Stopwatch takeover_watch;
  ObjectStore promoted_store;
  Warehouse promoted(&promoted_store);
  Check(promoted.ConnectSource(&source, tree->root,
                               ReportingLevel::kWithValues));
  promoted.set_deferred(true);
  Warehouse::DurabilityOptions takeover;
  takeover.dir = follower.dir();
  takeover.fsync = FsyncPolicy::kNever;
  takeover.epoch = *granted;
  takeover.owner = "promoted";
  Check(promoted.EnableDurability(takeover));
  int64_t takeover_micros = takeover_watch.ElapsedMicros();

  // The new primary starts exactly where the follower stood.
  for (const std::string& name : names) {
    if (ViewContentLines(*promoted.view(name)) !=
        ViewContentLines(*primary.view(name))) {
      std::fprintf(stderr, "promotion: %s lost state in takeover\n",
                   name.c_str());
      return 1;
    }
  }
  // The fenced old primary may never append again.
  if (!IsFencedStatus(primary.wal()->Append(WalRecord{}))) {
    std::fprintf(stderr, "promotion: old primary survived the fence\n");
    return 1;
  }

  Stopwatch write_watch;
  Check(generator.Run(1).status());
  Check(promoted.ProcessPending());
  int64_t first_write_micros = write_watch.ElapsedMicros();

  std::printf("\npromotion (epoch %llu -> %llu, fenced old primary)\n",
              1ull, static_cast<unsigned long long>(*granted));
  TablePrinter promo_table(
      {"fence_us", "takeover_us", "first_wr_us", "total_us"});
  promo_table.Row({Num(fence_micros), Num(takeover_micros),
                   Num(first_write_micros),
                   Num(fence_micros + takeover_micros + first_write_micros)});
  json.Record({{"exp", Quoted("exp18_promotion")},
               {"mode", Quoted(smoke ? "smoke" : "full")},
               {"new_epoch", Num((int64_t)*granted)},
               {"fence_micros", Num(fence_micros)},
               {"takeover_micros", Num(takeover_micros)},
               {"first_write_micros", Num(first_write_micros)},
               {"total_micros", Num(fence_micros + takeover_micros +
                                    first_write_micros)}});

  std::filesystem::remove_all(steady_dir);
  std::filesystem::remove_all(primary_dir);

  double ratio =
      clean_catchup_micros > 0
          ? static_cast<double>(recompute_micros) /
                static_cast<double>(clean_catchup_micros)
          : 0.0;
  if (ratio < kFloor) {
    std::fprintf(stderr,
                 "\nFAIL: clean catch-up is %.2fx recompute, below the "
                 "%.1fx floor\n",
                 ratio, kFloor);
    return 1;
  }
  std::printf("\nclean catch-up %.2fx cheaper than §4.4 recompute "
              "(floor %.1fx); all phases byte-matched the primary\n",
              ratio, kFloor);
  return 0;
}
