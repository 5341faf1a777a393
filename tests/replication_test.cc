// Replication suite (§4g): WAL shipping over a faulty transport, follower
// convergence at commit watermarks, staleness policies, divergence
// self-heal, follower crash recovery, and fenced failover. The headline
// property: a follower is byte-identical with its primary at every commit
// watermark no matter how badly the channel misbehaves — and a promoted
// follower's fence cuts the old primary off at its next log write.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "replication/checksums.h"
#include "replication/log_transport.h"
#include "replication/replica.h"
#include "replication/transport_fault.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/string_util.h"
#include "warehouse/fault_injector.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "workload/dag_gen.h"
#include "workload/person_db.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

std::string TempDir(const std::string& tag) {
  std::string path = ::testing::TempDir() + "gsv_replication_" +
                     std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(path);
  return path;
}

// CI re-points the primaries' delegate stores and every follower at the
// paged engine via GSV_STORAGE_ENGINE=paged (ci.sh "paged" stage); unset,
// the factories are null and the memory default serves.
ObjectStore::Options DelegateStoreOptions() {
  ObjectStore::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void PutU32Le(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// A raw CRC-framed record, exactly as Wal::WriteFrame lays it down.
std::string RawFrame(const WalRecord& record) {
  std::string payload = EncodeWalPayload(record);
  std::string frame;
  PutU32Le(&frame, static_cast<uint32_t>(payload.size()));
  PutU32Le(&frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

// ------------------------------------------------------------- transport

TEST(LogTransportTest, FileTransportListsReadsAndFetches) {
  std::string dir = TempDir("transport_basics");
  {
    Wal::Options wal_options;
    wal_options.fsync = FsyncPolicy::kNever;
    auto wal = Wal::Open(dir, wal_options, 1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 1}})).ok());
    ASSERT_TRUE(wal.value()->Roll().ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 2}})).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }

  FileLogTransport transport(dir);
  auto listing = transport.ListSegments();
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  ASSERT_EQ(listing.value().size(), 2u);
  EXPECT_EQ(listing.value()[0].first_lsn, 1u);
  EXPECT_EQ(listing.value()[1].first_lsn, 2u);
  EXPECT_GT(listing.value()[0].size, 0u);

  // Ranged reads: a prefix, the remainder, and a read past the end.
  const TransportSegment& seg = listing.value()[0];
  auto head = transport.ReadSegment(seg.name, 0, 4);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().offset, 0u);
  EXPECT_EQ(head.value().data.size(), 4u);
  EXPECT_FALSE(head.value().at_end);
  auto rest = transport.ReadSegment(seg.name, 4, 1 << 20);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().offset, 4u);
  EXPECT_EQ(rest.value().data.size(), seg.size - 4);
  EXPECT_TRUE(rest.value().at_end);
  auto past = transport.ReadSegment(seg.name, seg.size, 64);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past.value().data.empty());
  EXPECT_TRUE(past.value().at_end);
  EXPECT_EQ(head.value().data + rest.value().data,
            ReadFileBytes(dir + "/" + seg.name));

  // Whole-file fetches and their error surface.
  EXPECT_EQ(transport.FetchFile("CURRENT").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(transport.ReadSegment("wal-999999999999.log", 0, 64)
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(transport.FetchFile("../escape").ok());

  // Fences: absent reads as epoch 0; publishing never lowers.
  auto fence = transport.FetchFence();
  ASSERT_TRUE(fence.ok());
  EXPECT_EQ(fence.value().epoch, 0u);
  ASSERT_TRUE(transport.PublishFence(3, "new-primary").ok());
  EXPECT_EQ(transport.PublishFence(2, "usurper").code(),
            StatusCode::kFailedPrecondition);
  fence = transport.FetchFence();
  ASSERT_TRUE(fence.ok());
  EXPECT_EQ(fence.value().epoch, 3u);
  EXPECT_EQ(fence.value().owner, "new-primary");
}

TEST(LogTransportTest, FaultInjectorTearsDuplicatesAndFlips) {
  std::string dir = TempDir("transport_faults");
  {
    Wal::Options wal_options;
    wal_options.fsync = FsyncPolicy::kNever;
    auto wal = Wal::Open(dir, wal_options, 1);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          wal.value()->Append(WalRecord::Commit({{"s", uint64_t(i)}})).ok());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  TransportFaultProfile profile;
  profile.seed = 7;
  profile.fail_rate = 0.2;
  profile.fail_burst = 2;
  profile.torn_read_rate = 0.3;
  profile.duplicate_rate = 0.3;
  profile.flip_rate = 0.3;
  FaultInjectedTransport transport(std::make_unique<FileLogTransport>(dir),
                                   profile);

  std::string clean;
  {
    auto listing = FileLogTransport(dir).ListSegments();
    ASSERT_TRUE(listing.ok());
    clean = ReadFileBytes(dir + "/" + listing.value()[0].name);
  }

  int flips_seen = 0;
  for (int round = 0; round < 200; ++round) {
    auto listing = transport.ListSegments();
    if (!listing.ok()) {
      EXPECT_EQ(listing.status().code(), StatusCode::kUnavailable);
      continue;
    }
    ASSERT_EQ(listing.value().size(), 1u);
    auto chunk =
        transport.ReadSegment(listing.value()[0].name, 16, 1 << 20);
    if (!chunk.ok()) {
      EXPECT_EQ(chunk.status().code(), StatusCode::kUnavailable);
      continue;
    }
    // Duplicated reads start early, torn reads stop short — but what
    // arrives is always a contiguous run of the real file unless a bit
    // flipped.
    ASSERT_LE(chunk.value().offset, 16u);
    ASSERT_LE(chunk.value().offset + chunk.value().data.size(),
              clean.size());
    if (chunk.value().data !=
        clean.substr(chunk.value().offset, chunk.value().data.size())) {
      ++flips_seen;
    }
  }
  EXPECT_GT(transport.ops_failed(), 0);
  EXPECT_GT(transport.reads_torn(), 0);
  EXPECT_GT(transport.reads_duplicated(), 0);
  EXPECT_GT(transport.bits_flipped(), 0);
  EXPECT_GT(flips_seen, 0);

  // Scripted faults override the profile; Heal makes the channel perfect.
  transport.set_down(true);
  EXPECT_EQ(transport.ListSegments().status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(transport.FetchFence().status().code(),
            StatusCode::kUnavailable);
  transport.set_down(false);
  transport.Heal();
  for (int i = 0; i < 50; ++i) {
    auto listing = transport.ListSegments();
    ASSERT_TRUE(listing.ok());
    auto chunk = transport.ReadSegment(listing.value()[0].name, 0, 1 << 20);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(chunk.value().data, clean);
  }
}

// ------------------------------------------------------- WAL hardening

TEST(WalHardeningTest, EpochRecordRoundTripsAndStampsSegments) {
  WalRecord record = WalRecord::Epoch(42, "primary-b");
  record.lsn = 9;
  auto decoded = DecodeWalPayload(EncodeWalPayload(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, WalRecordType::kEpoch);
  EXPECT_EQ(decoded.value().lsn, 9u);
  EXPECT_EQ(decoded.value().epoch, 42u);
  EXPECT_EQ(decoded.value().owner, "primary-b");

  // An epoch-bearing WAL leads every segment with its header record.
  std::string dir = TempDir("epoch_headers");
  {
    Wal::Options options;
    options.fsync = FsyncPolicy::kNever;
    options.writer_epoch = 4;
    options.owner = "p";
    auto wal = Wal::Open(dir, options, 1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 1}})).ok());
    ASSERT_TRUE(wal.value()->Roll().ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 2}})).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  auto scan = ScanWal(dir);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().records.size(), 4u);
  EXPECT_EQ(scan.value().records[0].type, WalRecordType::kEpoch);
  EXPECT_EQ(scan.value().records[0].epoch, 4u);
  EXPECT_EQ(scan.value().records[2].type, WalRecordType::kEpoch);

  auto fence = ReadFence(dir);
  ASSERT_TRUE(fence.ok());
  EXPECT_EQ(fence.value().epoch, 4u);
  EXPECT_EQ(fence.value().owner, "p");
}

TEST(WalHardeningTest, RaisedFenceRejectsStaleWriter) {
  std::string dir = TempDir("fence_reject");
  Wal::Options options;
  options.fsync = FsyncPolicy::kNever;
  options.writer_epoch = 1;
  options.owner = "old-primary";
  auto wal = Wal::Open(dir, options, 1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 1}})).ok());

  // A promoted follower raises the fence out from under the old writer.
  ASSERT_TRUE(WriteFence(dir, 2, "new-primary").ok());
  Status append = wal.value()->Append(WalRecord::Commit({{"s", 2}}));
  EXPECT_EQ(append.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(IsFencedStatus(append)) << append.ToString();
  EXPECT_TRUE(IsFencedStatus(wal.value()->Roll()));

  // A writer at the standing epoch may keep the directory.
  Wal::Options resume = options;
  resume.writer_epoch = 2;
  resume.owner = "new-primary";
  auto scan = ScanWal(dir);
  ASSERT_TRUE(scan.ok());
  auto reopened = Wal::Open(dir, resume, scan.value().next_lsn);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->Append(WalRecord::Commit({{"s", 3}})).ok());

  // ...and a lower-epoch open is refused outright.
  auto stale = Wal::Open(dir, options, scan.value().next_lsn);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(IsFencedStatus(stale.status()));
}

TEST(WalHardeningTest, TornTailInNonFinalSegmentIsCorruption) {
  std::string dir = TempDir("nonfinal_torn");
  {
    Wal::Options wal_options;
    wal_options.fsync = FsyncPolicy::kNever;
    auto wal = Wal::Open(dir, wal_options, 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 1}})).ok());
    ASSERT_TRUE(wal.value()->Roll().ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 2}})).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments.value().size(), 2u);

  // A torn final tail is the normal crash shape: silently truncatable.
  {
    const std::string last =
        dir + "/" + segments.value().back().name;
    std::string bytes = ReadFileBytes(last);
    std::ofstream(last, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() - 3);
    auto scan = ScanWal(dir);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_TRUE(scan.value().torn);
    EXPECT_EQ(scan.value().records.size(), 1u);
    std::ofstream(last, std::ios::binary | std::ios::trunc) << bytes;
  }

  // The same tear in a *non-final* segment cannot be a crash artifact —
  // later segments exist, so these bytes were once whole. That is data
  // loss, not truncation.
  const std::string first = dir + "/" + segments.value().front().name;
  std::string bytes = ReadFileBytes(first);
  std::ofstream(first, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() - 3);
  auto scan = ScanWal(dir);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(scan.status().message().find("non-final"), std::string::npos)
      << scan.status().ToString();
}

TEST(WalHardeningTest, ListSkipsStrangersWithWarnings) {
  std::string dir = TempDir("list_strangers");
  {
    Wal::Options wal_options;
    wal_options.fsync = FsyncPolicy::kNever;
    auto wal = Wal::Open(dir, wal_options, 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 1}})).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  std::ofstream(dir + "/notes.txt") << "not a segment\n";
  std::ofstream(dir + "/wal-abc.log") << "bad lsn digits\n";
  std::ofstream(dir + "/wal-000000000009.tmp") << "bad suffix\n";
  std::filesystem::create_directory(dir + "/wal-000000000007.log");

  std::vector<std::string> warnings;
  auto segments = ListWalSegments(dir, &warnings);
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  ASSERT_EQ(segments.value().size(), 1u);
  EXPECT_EQ(segments.value()[0].first_lsn, 1u);
  // Only wal-prefixed strangers warn; unrelated files (CURRENT, CHECKSUMS,
  // notes.txt) are silently legitimate residents of a durability home.
  ASSERT_EQ(warnings.size(), 3u);
}

// ------------------------------------------------------------ replica rig

// One primary warehouse over a generated tree, durable in `primary_dir`.
// Sharded replication gets its own rig below; this one drives the
// single-home Replica through every lifecycle test.
struct PrimaryRig {
  TreeGenOptions tree_options;
  std::string definition;
  Oid root;
  std::string primary_dir;

  ObjectStore source;
  ObjectStore store{DelegateStoreOptions()};
  std::unique_ptr<Warehouse> warehouse;
  std::unique_ptr<UpdateGenerator> gen;

  void Init(const std::string& dir_tag, uint64_t seed, uint64_t epoch = 0,
            const std::string& owner = "") {
    primary_dir = TempDir(dir_tag);
    tree_options.levels = 3;
    tree_options.fanout = 3;
    tree_options.seed = seed;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    root = tree->root;
    definition = TreeViewDefinition("WV", root, 2, 3, 50);

    warehouse = std::make_unique<Warehouse>(&store);
    ASSERT_TRUE(
        warehouse->ConnectSource(&source, root, ReportingLevel::kWithValues)
            .ok());
    warehouse->set_deferred(true);
    Warehouse::DurabilityOptions options;
    options.dir = primary_dir;
    options.fsync = FsyncPolicy::kCommit;
    options.epoch = epoch;
    options.owner = owner;
    ASSERT_TRUE(warehouse->EnableDurability(options).ok());
    ASSERT_TRUE(warehouse->DefineView(definition).ok());

    UpdateGenOptions gen_options;
    gen_options.seed = seed + 1;
    gen = std::make_unique<UpdateGenerator>(&source, root, gen_options);
  }

  // Applies `n` source updates and drains them into one commit group.
  void Advance(size_t n) {
    for (size_t i = 0; i < n; ++i) ASSERT_TRUE(gen->Step().ok());
    ASSERT_TRUE(warehouse->ProcessPending().ok());
  }

  uint64_t committed_lsn() const {
    return warehouse->wal()->next_lsn() - 1;
  }

  void ExpectConverged(const Replica& replica) {
    const MaterializedView* primary_view = warehouse->view("WV");
    const MaterializedView* replica_view = replica.view("WV");
    ASSERT_NE(primary_view, nullptr);
    ASSERT_NE(replica_view, nullptr);
    EXPECT_EQ(ViewContentLines(*replica_view),
              ViewContentLines(*primary_view));
    EXPECT_EQ(StoreToString(replica.store()), StoreToString(store));
    EXPECT_EQ(replica.applied_lsn(), committed_lsn());
  }
};

ReplicaOptions DefaultReplicaOptions(const std::string& dir_tag) {
  ReplicaOptions options;
  options.dir = TempDir(dir_tag);
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

// --------------------------------------------------------- clean channel

TEST(ReplicaTest, ConvergesByteIdenticalOverCleanChannel) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("clean_primary", 11));

  Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                  DefaultReplicaOptions("clean_replica"));
  ASSERT_TRUE(replica.Start().ok());

  for (int round = 0; round < 4; ++round) {
    ASSERT_NO_FATAL_FAILURE(rig.Advance(25));
    Status caught = replica.CatchUp();
    ASSERT_TRUE(caught.ok()) << caught.ToString();
    ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(replica));
  }
  EXPECT_GT(replica.stats().deltas_applied, 0);
  EXPECT_GT(replica.stats().commits_applied, 0);
  EXPECT_EQ(replica.stats().self_heals, 0);

  // The local mirror is byte-identical with the primary's log — the
  // follower's home is itself a valid durability directory.
  auto segments = ListWalSegments(rig.primary_dir);
  ASSERT_TRUE(segments.ok());
  for (const auto& segment : segments.value()) {
    EXPECT_EQ(ReadFileBytes(replica.dir() + "/" + segment.name),
              ReadFileBytes(rig.primary_dir + "/" + segment.name))
        << segment.name;
  }

  // The read surface carries its watermark.
  auto read = replica.ReadView("WV");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().served_stale);
  EXPECT_FALSE(read.value().staleness.stale);
  EXPECT_EQ(read.value().staleness.applied_lsn, rig.committed_lsn());
  EXPECT_EQ(read.value().staleness.lag_bytes, 0u);
  EXPECT_EQ(read.value().lines,
            ViewContentLines(*rig.warehouse->view("WV")));
  EXPECT_TRUE(replica.ReadView("nope").status().code() ==
              StatusCode::kNotFound);
}

TEST(ReplicaTest, SeedsFromPrimaryCheckpointThenTails) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("seed_primary", 13));
  ASSERT_NO_FATAL_FAILURE(rig.Advance(40));
  ASSERT_TRUE(rig.warehouse->WriteCheckpoint().ok());
  ASSERT_NO_FATAL_FAILURE(rig.Advance(30));

  Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                  DefaultReplicaOptions("seed_replica"));
  ASSERT_TRUE(replica.Start().ok());
  EXPECT_EQ(replica.stats().reseeds, 1);
  // The seed already carries the checkpointed state + definitions...
  EXPECT_EQ(replica.view_names(), std::vector<std::string>{"WV"});
  // ...and tailing replays only the post-checkpoint tail.
  ASSERT_TRUE(replica.CatchUp().ok());
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(replica));
  EXPECT_EQ(replica.stats().reseeds, 1);
}

TEST(ReplicaTest, SeededHomeIsTheInstalledCheckpoint) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("installed_primary", 19));
  ASSERT_NO_FATAL_FAILURE(rig.Advance(40));
  ASSERT_TRUE(rig.warehouse->WriteCheckpoint().ok());

  Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                  DefaultReplicaOptions("installed_replica"));
  ASSERT_TRUE(replica.Start().ok());
  EXPECT_EQ(replica.stats().reseeds, 1);

  // CURRENT and every file of the named checkpoint match the primary's.
  const std::string current = ReadFileBytes(rig.primary_dir + "/CURRENT");
  ASSERT_FALSE(current.empty());
  EXPECT_EQ(ReadFileBytes(replica.dir() + "/CURRENT"), current);
  const std::string name = current.substr(0, current.size() - 1);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           rig.primary_dir + "/" + name)) {
    const std::string file = entry.path().filename().string();
    EXPECT_EQ(ReadFileBytes(replica.dir() + "/" + name + "/" + file),
              ReadFileBytes(entry.path().string()))
        << file;
    ++files;
  }
  EXPECT_GE(files, 2u);  // store.gsv + MANIFEST at least
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(
                              replica.dir() + "/" + name),
                          std::filesystem::directory_iterator()),
            static_cast<std::ptrdiff_t>(files));

  // No tmp file or directory survives the install.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(replica.dir())) {
    EXPECT_FALSE(EndsWith(entry.path().filename().string(), ".tmp"))
        << entry.path();
  }

  auto plan = PlanRecovery(replica.dir());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().have_checkpoint);

  // The seeded home checksums as the primary's at the same LSN.
  auto primary_stamp = ChecksumDurabilityHome(rig.primary_dir);
  auto replica_stamp = ChecksumDurabilityHome(replica.dir());
  ASSERT_TRUE(primary_stamp.ok()) << primary_stamp.status().ToString();
  ASSERT_TRUE(replica_stamp.ok()) << replica_stamp.status().ToString();
  EXPECT_EQ(replica_stamp.value().lsn, primary_stamp.value().lsn);
  EXPECT_EQ(EncodeChecksumStamp(replica_stamp.value()),
            EncodeChecksumStamp(primary_stamp.value()));
}

// ------------------------------------------------------------- staleness

TEST(ReplicaTest, StalenessPolicyServesStaleOrRefuses) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("stale_primary", 17));

  auto make_transport = [&rig]() {
    return std::make_unique<FaultInjectedTransport>(
        std::make_unique<FileLogTransport>(rig.primary_dir),
        TransportFaultProfile{});
  };
  auto serve_transport = make_transport();
  auto refuse_transport = make_transport();
  FaultInjectedTransport* serve_channel = serve_transport.get();
  FaultInjectedTransport* refuse_channel = refuse_transport.get();

  ReplicaOptions serve_options = DefaultReplicaOptions("stale_serve");
  serve_options.max_failed_polls = 2;
  Replica serving(std::move(serve_transport), serve_options);

  ReplicaOptions refuse_options = DefaultReplicaOptions("stale_refuse");
  refuse_options.max_failed_polls = 2;
  refuse_options.staleness = StalenessPolicy::kRefuse;
  Replica refusing(std::move(refuse_transport), refuse_options);

  ASSERT_TRUE(serving.Start().ok());
  ASSERT_TRUE(refusing.Start().ok());
  ASSERT_NO_FATAL_FAILURE(rig.Advance(25));
  ASSERT_TRUE(serving.CatchUp().ok());
  ASSERT_TRUE(refusing.CatchUp().ok());
  const auto caught_up_lines = serving.ReadView("WV").value().lines;

  // Channel down, primary keeps committing: after max_failed_polls the
  // watermark flips stale.
  serve_channel->set_down(true);
  refuse_channel->set_down(true);
  ASSERT_NO_FATAL_FAILURE(rig.Advance(25));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(serving.Poll().ok());
    EXPECT_FALSE(refusing.Poll().ok());
  }
  EXPECT_TRUE(serving.staleness().stale);
  EXPECT_TRUE(refusing.staleness().stale);

  // kServeStaleWithStatus: the read succeeds, flagged, with the old lines.
  auto stale_read = serving.ReadView("WV");
  ASSERT_TRUE(stale_read.ok());
  EXPECT_TRUE(stale_read.value().served_stale);
  EXPECT_TRUE(stale_read.value().staleness.stale);
  EXPECT_EQ(stale_read.value().lines, caught_up_lines);

  // kRefuse: reads fail until the follower catches back up.
  EXPECT_EQ(refusing.ReadView("WV").status().code(),
            StatusCode::kUnavailable);

  serve_channel->set_down(false);
  refuse_channel->set_down(false);
  ASSERT_TRUE(serving.CatchUp().ok());
  ASSERT_TRUE(refusing.CatchUp().ok());
  EXPECT_FALSE(serving.staleness().stale);
  auto fresh = refusing.ReadView("WV");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().served_stale);
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(refusing));
}

// ------------------------------------------------- follower crash recovery

TEST(ReplicaTest, FollowerRestartsFromItsOwnHome) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("restart_primary", 19));
  std::string replica_dir = TempDir("restart_replica");

  uint64_t lsn_at_crash = 0;
  {
    ReplicaOptions options;
    options.dir = replica_dir;
    options.engine_factory = MakeEngineFactoryFromEnv();
    Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                    options);
    ASSERT_TRUE(replica.Start().ok());
    ASSERT_NO_FATAL_FAILURE(rig.Advance(30));
    ASSERT_TRUE(replica.CatchUp().ok());
    ASSERT_TRUE(replica.WriteLocalCheckpoint().ok());
    ASSERT_NO_FATAL_FAILURE(rig.Advance(20));
    ASSERT_TRUE(replica.CatchUp().ok());
    lsn_at_crash = replica.applied_lsn();
    EXPECT_EQ(replica.stats().checkpoints_written, 1);
  }  // follower dies

  ASSERT_NO_FATAL_FAILURE(rig.Advance(20));  // primary keeps going

  ReplicaOptions options;
  options.dir = replica_dir;
  options.engine_factory = MakeEngineFactoryFromEnv();
  Replica reborn(std::make_unique<FileLogTransport>(rig.primary_dir),
                 options);
  ASSERT_TRUE(reborn.Start().ok()) << "local recovery";
  // Local recovery, not a transport re-seed: checkpoint + mirrored tail.
  EXPECT_EQ(reborn.stats().reseeds, 0);
  EXPECT_EQ(reborn.applied_lsn(), lsn_at_crash);
  ASSERT_TRUE(reborn.CatchUp().ok());
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(reborn));
}

// ------------------------------------------------------------- self-heal

TEST(ReplicaTest, ChecksumDivergenceTriggersSelfHeal) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("heal_primary", 23));
  ASSERT_NO_FATAL_FAILURE(rig.Advance(30));
  ASSERT_TRUE(rig.warehouse->WriteCheckpoint().ok());
  ASSERT_NO_FATAL_FAILURE(rig.Advance(20));

  Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                  DefaultReplicaOptions("heal_replica"));
  ASSERT_TRUE(replica.Start().ok());
  ASSERT_TRUE(replica.CatchUp().ok());
  const int64_t seeds_before = replica.stats().reseeds;

  // An honest stamp at the current watermark verifies quietly.
  ASSERT_TRUE(PublishChecksums(*rig.warehouse).ok());
  ASSERT_TRUE(replica.Poll().ok());
  EXPECT_EQ(replica.stats().checksum_checks, 1);
  EXPECT_EQ(replica.stats().self_heals, 0);

  // A stamp that disagrees at a matching watermark is proof of divergence:
  // the follower discards its state and re-seeds. (It must sit on a *new*
  // watermark — an already-verified LSN is skipped, by design.)
  ASSERT_NO_FATAL_FAILURE(rig.Advance(10));
  ASSERT_TRUE(replica.CatchUp().ok());
  ChecksumStamp bogus;
  bogus.lsn = rig.committed_lsn();
  bogus.views.push_back({"WV", /*crc=*/0xdeadbeef, /*members=*/1});
  std::ofstream(rig.primary_dir + "/" + ChecksumFileName())
      << EncodeChecksumStamp(bogus);
  ASSERT_TRUE(replica.Poll().ok());
  EXPECT_EQ(replica.stats().self_heals, 1);
  EXPECT_GT(replica.stats().reseeds, seeds_before);

  // With the real stamp restored the healed follower converges again.
  ASSERT_TRUE(PublishChecksums(*rig.warehouse).ok());
  ASSERT_TRUE(replica.CatchUp().ok());
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(replica));
  EXPECT_EQ(replica.stats().self_heals, 1);
}

TEST(ReplicaTest, PersistentMirrorCorruptionSelfHeals) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("corrupt_primary", 29));
  ASSERT_NO_FATAL_FAILURE(rig.Advance(30));
  ASSERT_TRUE(rig.warehouse->WriteCheckpoint().ok());

  ReplicaOptions options = DefaultReplicaOptions("corrupt_replica");
  options.max_corrupt_rounds = 3;
  Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                  options);
  ASSERT_TRUE(replica.Start().ok());
  ASSERT_TRUE(replica.CatchUp().ok());

  // Flip a byte *in the primary's own segment* past the replica's applied
  // point: every refetch sees the same bad CRC — persistent corruption,
  // not a transport blip — so the bounded retry gives up and re-seeds.
  ASSERT_NO_FATAL_FAILURE(rig.Advance(20));
  ASSERT_TRUE(rig.warehouse->WriteCheckpoint().ok());  // heal target
  // The second checkpoint's roll leaves an empty newest segment; the
  // replica's unapplied bytes live in the last non-empty one.
  auto segments = ListWalSegments(rig.primary_dir);
  ASSERT_TRUE(segments.ok());
  std::string last;
  std::string bytes;
  for (auto it = segments.value().rbegin(); it != segments.value().rend();
       ++it) {
    last = rig.primary_dir + "/" + it->name;
    bytes = ReadFileBytes(last);
    if (!bytes.empty()) break;
  }
  ASSERT_GT(bytes.size(), 12u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::ofstream(last, std::ios::binary | std::ios::trunc) << bytes;

  for (int i = 0; i < 6 && replica.stats().self_heals == 0; ++i) {
    (void)replica.Poll();
  }
  EXPECT_EQ(replica.stats().self_heals, 1);
  EXPECT_GE(replica.stats().corrupt_rounds, options.max_corrupt_rounds);
  // The re-seed lands past the corruption (the checkpoint covers it), so
  // the follower converges without ever needing those bytes again.
  ASSERT_TRUE(replica.CatchUp().ok());
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(replica));
}

// ------------------------------------------------------- segment retention

// Asserts the keep-2 rule on one durability home: every WAL segment that
// lies wholly at or below the older retained checkpoint's wal_lsn is gone.
void ExpectCoveredSegmentsRetired(const std::string& dir) {
  auto checkpoints = ListCheckpoints(dir);
  ASSERT_TRUE(checkpoints.ok());
  ASSERT_EQ(checkpoints.value().size(), 2u) << dir;
  auto manifest = DecodeCheckpointManifest(
      ReadFileBytes(checkpoints.value()[0].path + "/MANIFEST"), nullptr);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const uint64_t older_lsn = manifest.value().wal_lsn;
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments.value().empty()) << dir;
  // The first segment the log ever had is below the older checkpoint.
  EXPECT_GT(segments.value().front().first_lsn, 1u) << dir;
  for (size_t i = 0; i + 1 < segments.value().size(); ++i) {
    // Segment i ends just before segment i+1 starts.
    EXPECT_GT(segments.value()[i + 1].first_lsn - 1, older_lsn)
        << dir << ": " << segments.value()[i].name << " should be retired";
  }
}

TEST(ReplicaTest, CheckpointsRetireCoveredSegmentsOnBothHomes) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init("retire_primary", 37));
  ReplicaOptions options = DefaultReplicaOptions("retire_replica");
  options.checkpoint_interval_records = 1;  // one checkpoint per catch-up
  auto replica = std::make_unique<Replica>(
      std::make_unique<FileLogTransport>(rig.primary_dir), options);
  ASSERT_TRUE(replica->Start().ok());

  // Three primary checkpoints with logged groups between them; the
  // follower checkpoints on its own after every catch-up.
  for (int round = 0; round < 3; ++round) {
    ASSERT_NO_FATAL_FAILURE(rig.Advance(20));
    ASSERT_TRUE(rig.warehouse->WriteCheckpoint().ok());
    ASSERT_NO_FATAL_FAILURE(rig.Advance(20));
    ASSERT_TRUE(replica->CatchUp().ok());
  }
  EXPECT_GE(replica->stats().checkpoints_written, 2);
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(*replica));
  ASSERT_NO_FATAL_FAILURE(ExpectCoveredSegmentsRetired(rig.primary_dir));
  ASSERT_NO_FATAL_FAILURE(ExpectCoveredSegmentsRetired(replica->dir()));

  // Both homes still recover byte-identical from what retention left.
  const std::string expected_store = StoreToString(rig.store);
  const auto expected_lines = ViewContentLines(*rig.warehouse->view("WV"));
  rig.warehouse.reset();
  ObjectStore store_r(DelegateStoreOptions());
  Warehouse recovered(&store_r);
  ASSERT_TRUE(
      recovered.ConnectSource(&rig.source, rig.root,
                              ReportingLevel::kWithValues)
          .ok());
  Warehouse::DurabilityOptions durability;
  durability.dir = rig.primary_dir;
  ASSERT_TRUE(recovered.EnableDurability(durability).ok());
  EXPECT_EQ(StoreToString(store_r), expected_store);
  ASSERT_NE(recovered.view("WV"), nullptr);
  EXPECT_EQ(ViewContentLines(*recovered.view("WV")), expected_lines);

  replica.reset();
  Replica reborn(std::make_unique<FileLogTransport>(rig.primary_dir),
                 options);
  ASSERT_TRUE(reborn.Start().ok());
  EXPECT_EQ(reborn.stats().reseeds, 0);  // local recovery
  EXPECT_EQ(StoreToString(reborn.store()), expected_store);
  ASSERT_NE(reborn.view("WV"), nullptr);
  EXPECT_EQ(ViewContentLines(*reborn.view("WV")), expected_lines);
}

// ---------------------------------------------- rejected view definitions

// A DefineView that fails must fail before its kViewDef reaches the log:
// once a commit certified that record, recovery, a follower and the
// offline checksum all re-bootstrapped a view the warehouse never got (or
// got once already) and failed or diverged. Each case fails one DefineView
// of YP, leaves exactly one YP defined, and applies one monitored insert.
TEST(DurabilityHomeTest, FailedDefineViewKeepsTheHomeReopenable) {
  const std::string definition =
      "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45";
  struct Case {
    std::string name;
    std::function<void(Warehouse&, FaultInjector&)> define;
  };
  const std::vector<Case> cases = {
      {"duplicate",
       [&](Warehouse& w, FaultInjector&) {
         ASSERT_TRUE(w.DefineView(definition).ok());
         EXPECT_EQ(w.DefineView(definition).code(),
                   StatusCode::kAlreadyExists);
       }},
      // The corridor cache cannot initialize while the source is down;
      // the retry after it heals must succeed.
      {"cache_init_fails",
       [&](Warehouse& w, FaultInjector& injector) {
         injector.set_down(true);
         EXPECT_EQ(w.DefineView(definition, Warehouse::CacheMode::kFull)
                       .code(),
                   StatusCode::kUnavailable);
         injector.set_down(false);
         ASSERT_TRUE(
             w.DefineView(definition, Warehouse::CacheMode::kFull).ok());
       }},
      // The member evaluation fails (no such WITHIN database) after the
      // network initialized; nothing may be logged or bootstrapped, so the
      // retry under the same name succeeds.
      {"evaluation_fails",
       [&](Warehouse& w, FaultInjector&) {
         EXPECT_EQ(w.DefineView(definition + " WITHIN NOSUCH").code(),
                   StatusCode::kNotFound);
         EXPECT_TRUE(w.view_names().empty());
         ASSERT_TRUE(w.DefineView(definition).ok());
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = TempDir("failed_define_" + c.name);
    ObjectStore source;
    ASSERT_TRUE(BuildPersonDb(&source, /*with_database=*/false).ok());
    ObjectStore store(DelegateStoreOptions());
    Warehouse primary(&store);
    ASSERT_TRUE(primary
                    .ConnectSource(&source, person_db::Root(),
                                   ReportingLevel::kWithValues)
                    .ok());
    FaultInjector injector(FaultProfile{});
    ASSERT_TRUE(primary.SetFaultInjector("source1", &injector).ok());
    Warehouse::DurabilityOptions durability;
    durability.dir = dir;
    ASSERT_TRUE(primary.EnableDurability(durability).ok());
    ASSERT_NO_FATAL_FAILURE(c.define(primary, injector));
    EXPECT_EQ(primary.view_names(), std::vector<std::string>{"YP"});
    // One monitored insert: P2 gains an age and joins YP.
    ASSERT_TRUE(source.PutAtomic(Oid("A2"), "age", Value::Int(30)).ok());
    ASSERT_TRUE(source.Insert(person_db::P2(), Oid("A2")).ok());
    ASSERT_TRUE(primary.last_status().ok())
        << primary.last_status().ToString();
    const auto expected_lines = ViewContentLines(*primary.view("YP"));
    ASSERT_EQ(expected_lines.size(), 2u);

    ObjectStore store_r(DelegateStoreOptions());
    Warehouse recovered(&store_r);
    ASSERT_TRUE(recovered
                    .ConnectSource(&source, person_db::Root(),
                                   ReportingLevel::kWithValues)
                    .ok());
    Status reopened = recovered.EnableDurability(durability);
    ASSERT_TRUE(reopened.ok()) << reopened.ToString();
    EXPECT_EQ(recovered.view_names(), std::vector<std::string>{"YP"});
    EXPECT_EQ(ViewContentLines(*recovered.view("YP")), expected_lines);

    Replica follower(
        std::make_unique<FileLogTransport>(dir),
        DefaultReplicaOptions("failed_define_follower_" + c.name));
    ASSERT_TRUE(follower.Start().ok());
    Status caught = follower.CatchUp();
    ASSERT_TRUE(caught.ok()) << caught.ToString();
    EXPECT_EQ(follower.view_names(), std::vector<std::string>{"YP"});
    EXPECT_EQ(ViewContentLines(*follower.view("YP")), expected_lines);

    auto stamp = ChecksumDurabilityHome(dir);
    ASSERT_TRUE(stamp.ok()) << stamp.status().ToString();
    ASSERT_EQ(stamp.value().views.size(), 1u);
    EXPECT_EQ(stamp.value().views[0].view, "YP");
    EXPECT_EQ(stamp.value().views[0].members, expected_lines.size());
  }
}

// -------------------------------------------------------------- failover

TEST(ReplicaTest, PromotionFencesOldPrimaryAndResumesWrites) {
  PrimaryRig rig;
  ASSERT_NO_FATAL_FAILURE(
      rig.Init("failover_primary", 31, /*epoch=*/1, "primary-a"));
  ASSERT_NO_FATAL_FAILURE(rig.Advance(30));

  Replica replica(std::make_unique<FileLogTransport>(rig.primary_dir),
                  DefaultReplicaOptions("failover_replica"));
  ASSERT_TRUE(replica.Start().ok());
  ASSERT_TRUE(replica.CatchUp().ok());
  EXPECT_EQ(replica.epoch(), 1u);

  auto promoted = replica.Promote("primary-b");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value(), 2u);
  EXPECT_TRUE(replica.promoted());
  EXPECT_FALSE(replica.Poll().ok());  // tailing is over

  // The old primary is cut off at its very next log write — no split
  // brain: it cannot certify another commit group.
  Status stale_append =
      rig.warehouse->wal()->Append(WalRecord::Commit({{"s", 999}}));
  EXPECT_TRUE(IsFencedStatus(stale_append)) << stale_append.ToString();

  // The follower's home now opens as the next primary's durability dir:
  // same sources, epoch = the granted fence — and accepts writes.
  ObjectStore store_b(DelegateStoreOptions());
  Warehouse primary_b(&store_b);
  ASSERT_TRUE(
      primary_b.ConnectSource(&rig.source, rig.root,
                              ReportingLevel::kWithValues)
          .ok());
  primary_b.set_deferred(true);
  Warehouse::DurabilityOptions options;
  options.dir = replica.dir();
  options.fsync = FsyncPolicy::kCommit;
  options.epoch = promoted.value();
  options.owner = "primary-b";
  ASSERT_TRUE(primary_b.EnableDurability(options).ok());
  EXPECT_EQ(StoreToString(store_b), StoreToString(rig.store));

  for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(rig.gen->Step().ok());
  ASSERT_TRUE(primary_b.ProcessPending().ok());
  EXPECT_GT(primary_b.wal()->next_lsn(), replica.applied_lsn() + 1);

  // An old-epoch ghost segment is refused by any follower of the new
  // primary: its kEpoch header regresses below the epoch already seen.
  Replica follower_b(std::make_unique<FileLogTransport>(replica.dir()),
                     DefaultReplicaOptions("failover_follower_b"));
  ASSERT_TRUE(follower_b.Start().ok());
  ASSERT_TRUE(follower_b.CatchUp().ok());
  EXPECT_EQ(follower_b.epoch(), 2u);
  auto new_segments = ListWalSegments(replica.dir());
  ASSERT_TRUE(new_segments.ok());
  WalRecord ghost = WalRecord::Epoch(1, "primary-a");
  ghost.lsn = primary_b.wal()->next_lsn();
  {
    std::ofstream out(
        replica.dir() + "/" + new_segments.value().back().name,
        std::ios::binary | std::ios::app);
    out << RawFrame(ghost);
  }
  Status rejected = follower_b.Poll();
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition)
      << rejected.ToString();
  EXPECT_EQ(follower_b.stats().stale_epoch_rejections, 1);
}

// --------------------------------------- the kill-mid-ship twin property

// The tentpole property test: a sharded primary commits rounds of updates
// while a sharded follower tails it over a channel that fails, delays,
// tears, duplicates, and bit-flips — and the follower process is killed
// and restarted mid-ship. At every commit watermark the follower's merged
// view reads are byte-identical with the primary's.
struct ShipConfig {
  const char* tag;
  bool dag;
  uint32_t shards;
};

class ReplicationPropertyTest : public ::testing::TestWithParam<ShipConfig> {
};

TEST_P(ReplicationPropertyTest, KillMidShipFollowerStaysByteIdentical) {
  const ShipConfig config = GetParam();
  std::string primary_dir = TempDir(std::string("ship_p_") + config.tag);
  std::string replica_dir = TempDir(std::string("ship_r_") + config.tag);

  ObjectStore source;
  Oid root;
  std::string definition;
  UpdateGenOptions gen_options;
  if (config.dag) {
    DagGenOptions dag_options;
    dag_options.levels = 3;
    dag_options.width = 6;
    dag_options.seed = 5;
    auto dag = GenerateDag(&source, dag_options);
    ASSERT_TRUE(dag.ok()) << dag.status().ToString();
    root = dag->root;
    definition = DagViewDefinition("WV", root, 2, 3, 50);
    gen_options.mode = UpdateMode::kDagPreserving;
  } else {
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 3;
    tree_options.seed = 5;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    root = tree->root;
    definition = TreeViewDefinition("WV", root, 2, 3, 50);
  }
  gen_options.seed = 77;

  ShardedWarehouse::Options primary_options;
  primary_options.engine_factory = MakeEngineFactoryFromEnv();
  ShardedWarehouse primary(config.shards, primary_options);
  ASSERT_TRUE(primary.init_status().ok());
  ASSERT_TRUE(
      primary.ConnectSource(&source, root, ReportingLevel::kWithValues)
          .ok());
  primary.set_deferred(true);
  ShardedWarehouse::DurabilityOptions durability;
  durability.dir = primary_dir;
  durability.fsync = FsyncPolicy::kCommit;
  durability.epoch = 1;
  durability.owner = "primary";
  ASSERT_TRUE(primary.EnableDurability(durability).ok());
  ASSERT_TRUE(primary.DefineView(definition).ok());
  UpdateGenerator gen(&source, root, gen_options);

  TransportFaultProfile profile;
  profile.fail_rate = 0.10;
  profile.fail_burst = 2;
  profile.stale_list_rate = 0.10;
  profile.torn_read_rate = 0.15;
  profile.duplicate_rate = 0.15;
  profile.flip_rate = 0.10;

  auto make_replica = [&](uint64_t seed) {
    std::vector<std::unique_ptr<LogTransport>> transports;
    for (uint32_t i = 0; i < config.shards; ++i) {
      TransportFaultProfile shard_profile = profile;
      shard_profile.seed = seed + i;
      transports.push_back(std::make_unique<FaultInjectedTransport>(
          std::make_unique<FileLogTransport>(primary_dir + "/shard-" +
                                             std::to_string(i)),
          shard_profile));
    }
    ReplicaOptions options;
    options.dir = replica_dir;
    options.engine_factory = MakeEngineFactoryFromEnv();
    // Small chunks force many reads through the fault gauntlet.
    options.read_chunk_bytes = 512;
    return std::make_unique<ShardedReplica>(std::move(transports), options);
  };

  // A seed over a faulty channel can fail transiently; Start is retryable.
  auto start_replica = [](ShardedReplica& fleet) {
    Status status = Status::Unavailable("not attempted");
    for (int attempt = 0; attempt < 20 && !status.ok(); ++attempt) {
      status = fleet.Start();
    }
    return status;
  };

  auto replica = make_replica(1);
  {
    Status started = start_replica(*replica);
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  const int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(gen.Step().ok());
    ASSERT_TRUE(primary.ProcessPendingBatch(2).ok());
    ASSERT_TRUE(PublishChecksums(primary).ok());
    // The commit watermark per shard, captured before the checkpoint roll
    // below parks an uncommitted kEpoch header at the tip of a fresh
    // segment (a follower applies only committed records).
    std::vector<uint64_t> commit_lsns;
    for (uint32_t i = 0; i < config.shards; ++i) {
      commit_lsns.push_back(primary.shard(i).wal()->next_lsn() - 1);
    }
    if (round == 2) {
      ASSERT_TRUE(primary.WriteCheckpoint().ok());
    }

    if (round % 2 == 1) {
      // Kill mid-ship: a few fault-ridden polls move partial state into
      // the mirror, then the follower process dies and a new one recovers
      // from whatever the old one had durably committed.
      for (int i = 0; i < 3; ++i) (void)replica->Poll();
      if (round == 3) {
        for (uint32_t i = 0; i < config.shards; ++i) {
          ASSERT_TRUE(replica->shard(i).WriteLocalCheckpoint().ok());
        }
      }
      replica.reset();
      replica = make_replica(100 * (round + 1));
      Status restarted = start_replica(*replica);
      ASSERT_TRUE(restarted.ok()) << "round " << round << ": "
                                  << restarted.ToString();
    }

    Status caught = replica->CatchUp(400);
    ASSERT_TRUE(caught.ok()) << "round " << round << ": "
                             << caught.ToString();

    // Byte-identical at the commit watermark, shard-merged.
    auto read = replica->ReadView("WV");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_FALSE(read.value().served_stale);
    EXPECT_EQ(read.value().lines, primary.ViewContents("WV"))
        << "round " << round;
    for (uint32_t i = 0; i < config.shards; ++i) {
      EXPECT_EQ(replica->shard(i).applied_lsn(), commit_lsns[i])
          << "shard " << i << " round " << round;
      EXPECT_EQ(replica->shard(i).epoch(), 1u)
          << "shard " << i << " round " << round;
    }
  }

  // Finale: fenced failover of the whole fleet at one common epoch.
  auto promoted = replica->Promote("replica");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value(), 2u);
  for (uint32_t i = 0; i < config.shards; ++i) {
    Status fenced =
        primary.shard(i).wal()->Append(WalRecord::Commit({{"s", 1}}));
    EXPECT_TRUE(IsFencedStatus(fenced)) << "shard " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bases, ReplicationPropertyTest,
    ::testing::Values(ShipConfig{"tree_k1", false, 1},
                      ShipConfig{"tree_k4", false, 4},
                      ShipConfig{"dag_k1", true, 1},
                      ShipConfig{"dag_k4", true, 4}),
    [](const ::testing::TestParamInfo<ShipConfig>& info) {
      return std::string(info.param.tag);
    });

}  // namespace
}  // namespace gsv
