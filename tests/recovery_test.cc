// Durability suite: WAL framing/scan/truncation, crash injection, checkpoint
// round trips and fallback, the recovery planner's three zones, and the
// end-to-end guarantee — a warehouse killed at an arbitrary point in a
// batched drain recovers to a state byte-identical to a twin that never
// crashed.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/virtual_view.h"
#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "query/evaluator.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "warehouse/aux_cache.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

std::string TempDir(const std::string& tag) {
  std::string path = ::testing::TempDir() + "gsv_recovery_" +
                     std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(path);
  return path;
}

// CI re-points this suite's durable/recovered warehouse delegate stores at
// the paged engine via GSV_STORAGE_ENGINE=paged (ci.sh "paged" stage);
// unset, the factory is null and the memory default serves. The twin
// warehouses stay memory-resident on purpose, so under the env override
// every byte-identity assertion below doubles as a cross-engine check.
ObjectStore::Options DelegateStoreOptions() {
  ObjectStore::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

ShardedWarehouse::Options ShardedDelegateOptions() {
  ShardedWarehouse::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

UpdateEvent MakeInsertEvent(uint64_t sequence) {
  UpdateEvent event;
  event.kind = UpdateKind::kInsert;
  event.parent = Oid("p1");
  event.child = Oid("c1");
  event.level = ReportingLevel::kWithValues;
  event.sequence = sequence;
  OidSet children;
  children.Insert(Oid("c1"));
  event.parent_object = Object(Oid("p1"), "folder", Value::Set(children));
  event.child_object = Object(Oid("c1"), "age", Value::Int(41));
  RootPathInfo info;
  info.oids = {Oid("r"), Oid("p1")};
  info.labels = Path(std::vector<std::string>{"folder"});
  event.root_path = info;
  return event;
}

// ------------------------------------------------------------------ codec

TEST(WalCodecTest, AllRecordTypesRoundTrip) {
  std::vector<WalRecord> records;
  records.push_back(WalRecord::Event("source1", MakeInsertEvent(7)));
  records.push_back(WalRecord::Delta(
      "WV", ViewDelta::VInsert(Object(Oid("x"), "age", Value::Int(3)))));
  records.push_back(WalRecord::Delta("WV", ViewDelta::VDelete(Oid("x"))));
  records.push_back(WalRecord::Delta(
      "WV", ViewDelta::Sync(
                Update::Modify(Oid("x"), Value::Int(3), Value::Int(4)))));
  records.push_back(WalRecord::Delta(
      "WV", ViewDelta::Refresh(Object(Oid("y"), "name",
                                      Value::Str("a \"quoted\" name\n")))));
  records.push_back(WalRecord::Commit({{"source1", 7}, {"source2", 0}}));
  records.push_back(
      WalRecord::ViewDef("define mview WV as: SELECT r.a X", 2, "source1"));

  uint64_t lsn = 1;
  for (WalRecord& record : records) {
    record.lsn = lsn++;
    auto decoded = DecodeWalPayload(EncodeWalPayload(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(WalRecordToString(decoded.value()), WalRecordToString(record));
    EXPECT_EQ(decoded.value().type, record.type);
    EXPECT_EQ(decoded.value().lsn, record.lsn);
  }

  // Spot checks beyond the string form.
  auto event = DecodeWalPayload(EncodeWalPayload(records[0]));
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event.value().source, "source1");
  EXPECT_EQ(event.value().event.sequence, 7u);
  ASSERT_TRUE(event.value().event.child_object.has_value());
  EXPECT_EQ(event.value().event.child_object->value(), Value::Int(41));
  ASSERT_TRUE(event.value().event.root_path.has_value());
  EXPECT_EQ(event.value().event.root_path->oids.size(), 2u);

  auto commit = DecodeWalPayload(EncodeWalPayload(records[5]));
  ASSERT_TRUE(commit.ok());
  ASSERT_EQ(commit.value().watermarks.size(), 2u);
  EXPECT_EQ(commit.value().watermarks[0].source, "source1");
  EXPECT_EQ(commit.value().watermarks[0].last_sequence, 7u);
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

// One payload per view-delta op, byte for byte: the logged form of the
// V_insert / V_delete / sync / refresh ops is the on-disk WAL format, which
// recovery, the follower and wal_inspect all read.
TEST(WalCodecTest, DeltaPayloadsMatchGoldenBytes) {
  struct Golden {
    const char* hex;
    const char* text;
  };
  const Golden goldens[] = {
      {"02020000000000000002000000575601010000007803000000616765000300000000"
       "000000",
       "lsn=2 delta view=WV vinsert x"},
      {"020300000000000000020000005756020100000078",
       "lsn=3 delta view=WV vdelete x"},
      {"02040000000000000002000000575603020100000078000000000003000000000000"
       "00000400000000000000",
       "lsn=4 delta view=WV sync modify(x, 3, 4)"},
      {"020500000000000000020000005756040100000079040000006e616d650210000000"
       "61202271756f74656422206e616d650a",
       "lsn=5 delta view=WV refresh y"},
      {"02060000000000000002000000575603000100000070010000007804000000000400"
       "000000",
       "lsn=6 delta view=WV sync insert(p, x)"},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.text);
    auto decoded = DecodeWalPayload(FromHex(golden.hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(WalRecordToString(decoded.value()), golden.text);
    EXPECT_EQ(ToHex(EncodeWalPayload(decoded.value())), golden.hex);
  }
}

// ------------------------------------------------------------- append/scan

TEST(WalTest, AppendScanRoundTripAcrossSegments) {
  std::string dir = TempDir("append_scan");
  {
    auto wal = Wal::Open(dir, Wal::Options{FsyncPolicy::kNever}, 1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          wal.value()->Append(WalRecord::Event("s", MakeInsertEvent(i + 1)))
              .ok());
    }
    ASSERT_TRUE(wal.value()->Roll().ok());
    ASSERT_TRUE(wal.value()->Append(WalRecord::Commit({{"s", 5}})).ok());
    EXPECT_EQ(wal.value()->next_lsn(), 7u);
  }

  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments.value().size(), 2u);
  EXPECT_EQ(segments.value()[0].first_lsn, 1u);
  EXPECT_EQ(segments.value()[1].first_lsn, 6u);

  auto scan = ScanWal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().torn);
  ASSERT_EQ(scan.value().records.size(), 6u);
  EXPECT_EQ(scan.value().next_lsn, 7u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(scan.value().records[i].lsn, i + 1);
  }
  EXPECT_EQ(scan.value().records[5].type, WalRecordType::kCommit);

  // Reopen continues the newest segment and the LSN sequence.
  auto reopened = Wal::Open(dir, Wal::Options{FsyncPolicy::kNever},
                            scan.value().next_lsn);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(
      reopened.value()
          ->Append(WalRecord::Delta("WV", ViewDelta::VDelete(Oid("x"))))
          .ok());
  auto rescan = ScanWal(dir);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan.value().records.size(), 7u);
  EXPECT_EQ(rescan.value().records.back().lsn, 7u);
}

TEST(WalTest, ScanDetectsTornTailAndTruncateRepairs) {
  std::string dir = TempDir("torn");
  {
    auto wal = Wal::Open(dir, Wal::Options{FsyncPolicy::kNever}, 1);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          wal.value()
              ->Append(WalRecord::Delta("WV", ViewDelta::VDelete(Oid("x"))))
              .ok());
    }
  }
  // A power loss mid-write: garbage bytes that are not a complete frame.
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments.value().size(), 1u);
  {
    std::ofstream out(segments.value()[0].path,
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00junk", 8);
  }

  auto scan = ScanWal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn);
  EXPECT_EQ(scan.value().records.size(), 3u);
  EXPECT_EQ(scan.value().next_lsn, 4u);
  EXPECT_EQ(scan.value().torn_bytes, 8u);

  ASSERT_TRUE(TruncateWal(dir, scan.value().torn_segment,
                          scan.value().torn_offset)
                  .ok());
  auto rescan = ScanWal(dir);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan.value().torn);
  EXPECT_EQ(rescan.value().records.size(), 3u);
}

TEST(WalTest, CrashInjectionTearsTheTailAndSticks) {
  std::string dir = TempDir("crash");
  auto wal = Wal::Open(dir, Wal::Options{FsyncPolicy::kNever}, 1);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()
                  ->Append(WalRecord::Delta("WV", ViewDelta::VDelete(Oid("x"))))
                  .ok());
  int64_t clean_bytes = wal.value()->bytes_written();

  wal.value()->set_crash_after_bytes(5);  // mid-frame of the next record
  Status torn = wal.value()->Append(
      WalRecord::Delta("WV", ViewDelta::VDelete(Oid("y"))));
  EXPECT_EQ(torn.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(wal.value()->crashed());
  // Sticky: the log stays dead.
  EXPECT_EQ(wal.value()->Append(WalRecord::Commit({})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(wal.value()->Sync().code(), StatusCode::kDataLoss);

  auto scan = ScanWal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn);
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(scan.value().torn_offset), clean_bytes);
}

// Crc32 advances eight bytes per step (slicing-by-8). Every WAL frame,
// checkpoint file and page image carries it, so it must agree bit for bit
// with the bytewise definition it replaced.
uint32_t BytewiseCrc32(const unsigned char* bytes, size_t size,
                       uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buffer(1024 + 8);
  uint32_t state = 12345;
  for (unsigned char& byte : buffer) {
    state = state * 1103515245u + 12345u;
    byte = static_cast<unsigned char>(state >> 16);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, length), BytewiseCrc32(start, length, 0))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32(start, length, 0xdeadbeefu),
                BytewiseCrc32(start, length, 0xdeadbeefu))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, SeedChainsIncrementalComputations) {
  const std::string a = "graph structured views ";
  const std::string b = "and their incremental maintenance, 1998";
  const std::string ab = a + b;
  EXPECT_EQ(Crc32(b.data(), b.size(), Crc32(a.data(), a.size())),
            Crc32(ab.data(), ab.size()));
  // Every split point, including the empty halves.
  for (size_t cut = 0; cut <= ab.size(); ++cut) {
    EXPECT_EQ(Crc32(ab.data() + cut, ab.size() - cut, Crc32(ab.data(), cut)),
              Crc32(ab.data(), ab.size()))
        << "cut " << cut;
  }
}

// One frame decoder serves crash recovery (which treats kIncomplete and
// kCorrupt alike, as a tear) and the follower (which waits on kIncomplete
// and refetches on kCorrupt), so each case pins the exact result.
TEST(WalTest, FrameDecoderSeparatesIncompleteFromCorrupt) {
  auto u32 = [](uint32_t v) {
    std::string out;
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
    return out;
  };
  auto frame_of = [&](const std::string& payload) {
    return u32(static_cast<uint32_t>(payload.size())) +
           u32(Crc32(payload.data(), payload.size())) + payload;
  };
  WalRecord commit = WalRecord::Commit({{"source1", 9}});
  commit.lsn = 42;
  const std::string valid = frame_of(EncodeWalPayload(commit));
  std::string flipped = valid;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  std::string unknown_type = EncodeWalPayload(commit);
  unknown_type[0] = static_cast<char>(0x7f);

  struct Case {
    std::string name;
    std::string data;
    size_t offset;
    WalFrameStatus want;
  };
  const std::vector<Case> cases = {
      {"valid", valid, 0, WalFrameStatus::kRecord},
      {"valid_at_offset", valid + valid, valid.size(),
       WalFrameStatus::kRecord},
      {"empty", "", 0, WalFrameStatus::kIncomplete},
      {"short_header", valid.substr(0, 5), 0, WalFrameStatus::kIncomplete},
      {"short_payload", valid.substr(0, valid.size() - 1), 0,
       WalFrameStatus::kIncomplete},
      {"length_over_cap", u32(0xffffffffu) + u32(0), 0,
       WalFrameStatus::kCorrupt},
      {"crc_mismatch", flipped, 0, WalFrameStatus::kCorrupt},
      {"undecodable_payload", frame_of(unknown_type), 0,
       WalFrameStatus::kCorrupt},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WalFrame frame = DecodeWalFrame(c.data, c.offset);
    EXPECT_EQ(frame.status, c.want);
    if (c.want != WalFrameStatus::kRecord) continue;
    EXPECT_EQ(frame.size, valid.size());
    EXPECT_EQ(frame.record.lsn, 42u);
    EXPECT_EQ(frame.record.type, WalRecordType::kCommit);
    EXPECT_EQ(frame.record.watermarks, commit.watermarks);
  }
}

// ------------------------------------------------------------- checkpoints

CheckpointCapture MakeCapture(uint64_t id, const std::string& marker) {
  CheckpointCapture capture;
  capture.manifest.id = id;
  capture.manifest.wal_lsn = id * 10;
  capture.manifest.watermarks = {{"source1", id * 10}};
  CheckpointViewState view;
  view.name = "WV";
  view.source = "source1";
  view.cache_mode = 2;
  view.stale = false;
  view.definition = "define mview WV as: SELECT r.a X WHERE X.age <= 50";
  capture.manifest.views.push_back(view);
  capture.store_text = "# store " + marker + "\n";
  capture.cache_texts.emplace_back("WV", "# cache " + marker + "\n");
  return capture;
}

TEST(CheckpointTest, PersistLoadRoundTrip) {
  std::string dir = TempDir("ckpt_roundtrip");
  ASSERT_TRUE(PersistCheckpoint(dir, MakeCapture(1, "one")).ok());

  auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest.id, 1u);
  EXPECT_EQ(loaded.value().manifest.wal_lsn, 10u);
  ASSERT_EQ(loaded.value().manifest.watermarks.size(), 1u);
  EXPECT_EQ(loaded.value().manifest.watermarks[0].last_sequence, 10u);
  ASSERT_EQ(loaded.value().manifest.views.size(), 1u);
  EXPECT_EQ(loaded.value().manifest.views[0].definition,
            "define mview WV as: SELECT r.a X WHERE X.age <= 50");
  EXPECT_EQ(loaded.value().store_text, "# store one\n");
  ASSERT_EQ(loaded.value().cache_texts.count("WV"), 1u);
  EXPECT_EQ(loaded.value().cache_texts.at("WV"), "# cache one\n");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CheckpointTest, CorruptNewestFallsBackToPrevious) {
  // Each corruption damages only the newest checkpoint; loading must fall
  // back to the previous one.
  const std::vector<std::pair<std::string, std::function<void(
                                               const std::string&)>>>
      corruptions = {
          // Flip the store file: CRC mismatch.
          {"store_crc",
           [](const std::string& ckpt) {
             std::ofstream out(ckpt + "/store.gsv",
                               std::ios::binary | std::ios::trunc);
             out << "# corrupted\n";
           }},
          // Re-encode the manifest (file CRCs still valid) with a cache
          // mode no writer produces.
          {"cache_mode",
           [](const std::string& ckpt) {
             std::vector<std::pair<std::string, std::pair<uint32_t, uint64_t>>>
                 listed;
             auto manifest =
                 DecodeCheckpointManifest(ReadFile(ckpt + "/MANIFEST"), &listed);
             ASSERT_TRUE(manifest.ok());
             ASSERT_EQ(manifest.value().views.size(), 1u);
             manifest.value().views[0].cache_mode = 8;
             std::vector<std::pair<std::string, std::string>> files;
             for (const auto& entry : listed) {
               files.emplace_back(entry.first,
                                  ReadFile(ckpt + "/" + entry.first));
             }
             std::ofstream out(ckpt + "/MANIFEST", std::ios::trunc);
             out << EncodeCheckpointManifest(manifest.value(), files);
           }},
      };
  for (const auto& [tag, corrupt] : corruptions) {
    SCOPED_TRACE(tag);
    std::string dir = TempDir("ckpt_fallback_" + tag);
    ASSERT_TRUE(PersistCheckpoint(dir, MakeCapture(1, "one")).ok());
    ASSERT_TRUE(PersistCheckpoint(dir, MakeCapture(2, "two")).ok());
    ASSERT_NO_FATAL_FAILURE(corrupt(dir + "/checkpoint-000002"));
    auto loaded = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().manifest.id, 1u);
    EXPECT_EQ(loaded.value().store_text, "# store one\n");
  }
}

TEST(CheckpointTest, RetentionKeepsTheTwoNewest) {
  std::string dir = TempDir("ckpt_retention");
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(
        PersistCheckpoint(dir, MakeCapture(id, std::to_string(id))).ok());
  }
  auto list = ListCheckpoints(dir);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().size(), 2u);
  EXPECT_EQ(list.value()[0].id, 3u);
  EXPECT_EQ(list.value()[1].id, 4u);
}

// ---------------------------------------------------------------- planner

TEST(RecoveryPlanTest, PartitionsCommittedAndUncommittedTail) {
  std::string dir = TempDir("plan");
  {
    auto wal = Wal::Open(dir, Wal::Options{FsyncPolicy::kNever}, 1);
    ASSERT_TRUE(wal.ok());
    Wal& w = *wal.value();
    ASSERT_TRUE(w.Append(WalRecord::Event("source1", MakeInsertEvent(1))).ok());
    ASSERT_TRUE(w.Append(WalRecord::Delta(
                             "WV", ViewDelta::VInsert(Object(
                                       Oid("p1"), "folder",
                                       Value::Set(OidSet())))))
                    .ok());
    ASSERT_TRUE(w.Append(WalRecord::Commit({{"source1", 1}})).ok());
    // Interrupted group: an event and a delta, no commit.
    ASSERT_TRUE(w.Append(WalRecord::Event("source1", MakeInsertEvent(2))).ok());
    ASSERT_TRUE(
        w.Append(WalRecord::Delta("WV", ViewDelta::VDelete(Oid("p1")))).ok());
  }

  auto plan = PlanRecovery(dir);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan.value().have_checkpoint);
  ASSERT_EQ(plan.value().committed.size(), 3u);
  EXPECT_EQ(plan.value().committed[2].type, WalRecordType::kCommit);
  ASSERT_EQ(plan.value().watermarks.size(), 1u);
  EXPECT_EQ(plan.value().watermarks[0].last_sequence, 1u);
  ASSERT_EQ(plan.value().tail.size(), 1u);
  EXPECT_EQ(plan.value().tail[0].type, WalRecordType::kEvent);
  EXPECT_EQ(plan.value().tail[0].event.sequence, 2u);
  EXPECT_EQ(plan.value().tail_deltas_dropped, 1u);
  EXPECT_TRUE(plan.value().need_truncate);
  EXPECT_FALSE(plan.value().log_torn);
  EXPECT_EQ(plan.value().next_lsn, 4u);

  // The truncation physically drops the uncommitted group.
  ASSERT_TRUE(ApplyLogTruncation(dir, plan.value()).ok());
  auto scan = ScanWal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().torn);
  EXPECT_EQ(scan.value().records.size(), 3u);
}

// ---------------------------------------------------------- ApplyFromLog

TEST(ApplyFromLogTest, IdempotentRedoOfBasicUpdates) {
  ObjectStore store;
  ASSERT_TRUE(store.Put(Object(Oid("r"), "root", Value::Set(OidSet()))).ok());
  ASSERT_TRUE(store.Put(Object(Oid("a"), "age", Value::Int(1))).ok());

  Update insert = Update::Insert(Oid("r"), Oid("a"));
  auto first = store.ApplyFromLog(insert);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  auto again = store.ApplyFromLog(insert);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());  // edge already present: skipped

  Update modify = Update::Modify(Oid("a"), Value::Int(1), Value::Int(2));
  ASSERT_TRUE(store.ApplyFromLog(modify).value());
  EXPECT_FALSE(store.ApplyFromLog(modify).value());  // value already 2

  Update remove = Update::Delete(Oid("r"), Oid("a"));
  ASSERT_TRUE(store.ApplyFromLog(remove).value());
  EXPECT_FALSE(store.ApplyFromLog(remove).value());  // edge already gone

  // Preconditions gone entirely: skip, never error.
  auto orphan = store.ApplyFromLog(Update::Insert(Oid("ghost"), Oid("a")));
  ASSERT_TRUE(orphan.ok());
  EXPECT_FALSE(orphan.value());
}

// ------------------------------------------------------- aux cache images

TEST(AuxCachePersistenceTest, SaveLoadRoundTripIsByteStable) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  tree_options.seed = 5;
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  WarehouseCosts costs;
  SourceWrapper wrapper(&source, &costs);
  Path corridor(std::vector<std::string>{"n1_0", "n2_0", "age"});
  AuxiliaryCache cache(AuxiliaryCache::Mode::kFull, tree->root, corridor);
  ASSERT_TRUE(cache.Initialize(&wrapper).ok());
  ASSERT_GT(cache.size(), 1u);

  std::ostringstream saved;
  ASSERT_TRUE(cache.SaveTo(saved).ok());

  AuxiliaryCache reloaded(AuxiliaryCache::Mode::kFull, tree->root, corridor);
  std::istringstream in(saved.str());
  ASSERT_TRUE(reloaded.LoadFrom(in).ok());
  EXPECT_EQ(reloaded.size(), cache.size());

  std::ostringstream resaved;
  ASSERT_TRUE(reloaded.SaveTo(resaved).ok());
  EXPECT_EQ(resaved.str(), saved.str());

  // A fresh (non-empty) cache refuses to load over itself.
  std::istringstream again(saved.str());
  EXPECT_EQ(reloaded.LoadFrom(again).code(), StatusCode::kFailedPrecondition);
}

// ----------------------------------------------------- warehouse end-to-end

struct TwinRig {
  TreeGenOptions tree_options;
  std::string definition;
  Oid root;

  ObjectStore source_twin;
  ObjectStore source_durable;
  ObjectStore store_twin;
  std::unique_ptr<Warehouse> twin;

  std::unique_ptr<UpdateGenerator> gen_twin;
  std::unique_ptr<UpdateGenerator> gen_durable;

  void Init(uint64_t tree_seed, uint64_t update_seed) {
    tree_options.levels = 3;
    tree_options.fanout = 3;
    tree_options.seed = tree_seed;
    auto tree_t = GenerateTree(&source_twin, tree_options);
    auto tree_d = GenerateTree(&source_durable, tree_options);
    ASSERT_TRUE(tree_t.ok());
    ASSERT_TRUE(tree_d.ok());
    ASSERT_EQ(tree_t->root, tree_d->root);
    root = tree_t->root;
    definition = TreeViewDefinition("WV", root, 2, 3, 50);

    twin = std::make_unique<Warehouse>(&store_twin);
    ASSERT_TRUE(
        twin->ConnectSource(&source_twin, root, ReportingLevel::kWithValues)
            .ok());
    twin->set_deferred(true);
    ASSERT_TRUE(twin->DefineView(definition, Warehouse::CacheMode::kFull).ok());

    UpdateGenOptions gen_options;
    gen_options.seed = update_seed;
    gen_twin =
        std::make_unique<UpdateGenerator>(&source_twin, root, gen_options);
    gen_durable =
        std::make_unique<UpdateGenerator>(&source_durable, root, gen_options);
  }

  // Byte-identical convergence between the twin and a recovered warehouse.
  void ExpectConverged(Warehouse& recovered, ObjectStore& store_recovered) {
    EXPECT_EQ(StoreToString(source_durable), StoreToString(source_twin));
    EXPECT_EQ(StoreToString(store_recovered), StoreToString(store_twin));
    const AuxiliaryCache* cache_t = twin->cache("WV");
    const AuxiliaryCache* cache_r = recovered.cache("WV");
    ASSERT_NE(cache_t, nullptr);
    ASSERT_NE(cache_r, nullptr);
    std::ostringstream bytes_t;
    std::ostringstream bytes_r;
    ASSERT_TRUE(cache_t->SaveTo(bytes_t).ok());
    ASSERT_TRUE(cache_r->SaveTo(bytes_r).ok());
    EXPECT_EQ(bytes_r.str(), bytes_t.str());

    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok());
    auto truth = EvaluateView(source_durable, def.value());
    ASSERT_TRUE(truth.ok());
    MaterializedView* view = recovered.view("WV");
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->BaseMembers(), truth.value());
  }
};

TEST(WarehouseDurabilityTest, CleanRestartRestoresByteIdenticalState) {
  std::string dir = TempDir("clean_restart");
  TwinRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/11, /*update_seed=*/201));

  uint64_t twin_watermark = 0;
  {
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kWithValues)
                    .ok());
    durable.set_deferred(true);
    Warehouse::DurabilityOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kCommit;
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(
        durable.DefineView(rig.definition, Warehouse::CacheMode::kFull).ok());

    for (size_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(rig.gen_twin->Step().ok());
      ASSERT_TRUE(rig.gen_durable->Step().ok());
      if ((i + 1) % 25 == 0) {
        ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
        ASSERT_TRUE(durable.ProcessPendingBatch().ok());
      }
    }
    ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    EXPECT_GT(durable.durability_stats().events_logged, 0);
    EXPECT_GT(durable.durability_stats().deltas_logged, 0);
    EXPECT_GT(durable.durability_stats().commits_logged, 0);

    // Graceful shutdown: checkpoint at a quiescent point, then destroy.
    ASSERT_TRUE(durable.WriteCheckpoint().ok());
    EXPECT_EQ(StoreToString(store_d), StoreToString(rig.store_twin));
    twin_watermark = rig.twin->monitor()->last_sequence();
    EXPECT_EQ(durable.monitor()->last_sequence(), twin_watermark);
  }

  // Recover into a fresh warehouse over the same (surviving) source.
  ObjectStore store_r(DelegateStoreOptions());
  Warehouse recovered(&store_r);
  ASSERT_TRUE(recovered
                  .ConnectSource(&rig.source_durable, rig.root,
                                 ReportingLevel::kWithValues)
                  .ok());
  recovered.set_deferred(true);
  Warehouse::DurabilityOptions options;
  options.dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());

  const Warehouse::RecoveryReport& report = recovered.recovery_report();
  EXPECT_TRUE(report.recovered_checkpoint);
  EXPECT_EQ(report.views_restored, 1u);
  EXPECT_EQ(report.deltas_redone, 0u);     // checkpoint was the last action
  EXPECT_EQ(report.events_replayed, 0u);
  EXPECT_TRUE(report.caches_reloaded);     // clean path: image bytes reused
  EXPECT_FALSE(report.log_torn);
  // The clean fast path recovers without a single source query.
  EXPECT_EQ(recovered.costs().source_queries.load(), 0);
  EXPECT_EQ(recovered.costs().cache_maintenance_queries.load(), 0);

  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(recovered, store_r));
  EXPECT_EQ(recovered.monitor()->last_sequence(), twin_watermark);

  // Watermark continuity: post-recovery events keep integrating seamlessly.
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.gen_twin->Step().ok());
    ASSERT_TRUE(rig.gen_durable->Step().ok());
  }
  ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
  ASSERT_TRUE(recovered.ProcessPendingBatch().ok());
  EXPECT_EQ(recovered.costs().events_duplicate_dropped.load(), 0);
  EXPECT_EQ(recovered.costs().events_gap_detected.load(), 0);
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(recovered, store_r));
}

TEST(WarehouseDurabilityTest, UncommittedTailReplaysThroughLiveMaintenance) {
  std::string dir = TempDir("tail_replay");
  TwinRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/13, /*update_seed=*/307));

  {
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kWithValues)
                    .ok());
    durable.set_deferred(true);
    Warehouse::DurabilityOptions options;
    options.dir = dir;
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(
        durable.DefineView(rig.definition, Warehouse::CacheMode::kFull).ok());
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(rig.gen_durable->Step().ok());
    }
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    // Ten more accepted (and logged) events, never drained: the process
    // "dies" with an uncommitted tail in the log.
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(rig.gen_durable->Step().ok());
    }
    EXPECT_EQ(durable.pending_events(), 10u);
  }
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.gen_twin->Step().ok());
  }
  ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());

  ObjectStore store_r(DelegateStoreOptions());
  Warehouse recovered(&store_r);
  ASSERT_TRUE(recovered
                  .ConnectSource(&rig.source_durable, rig.root,
                                 ReportingLevel::kWithValues)
                  .ok());
  recovered.set_deferred(true);
  Warehouse::DurabilityOptions options;
  options.dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());

  const Warehouse::RecoveryReport& report = recovered.recovery_report();
  EXPECT_FALSE(report.log_torn);
  EXPECT_EQ(report.views_redefined, 1u);  // no checkpoint: kViewDef redo
  EXPECT_GT(report.deltas_redone, 0u);
  EXPECT_EQ(report.events_replayed, 10u);
  ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(recovered, store_r));
}

// The headline property test: kill the warehouse at an arbitrary byte of
// its WAL stream — mid-event, mid-delta, mid-commit, mid-batch — recover,
// finish the workload, and the result is byte-identical to the twin.
TEST(WarehouseDurabilityTest, RandomizedKillMidBatchConvergesByteIdentical) {
  constexpr size_t kUpdates = 150;
  constexpr size_t kDrainEvery = 7;

  // Probe run: how many WAL bytes does the full workload produce?
  int64_t total_bytes = 0;
  {
    std::string dir = TempDir("kill_probe");
    TwinRig rig;
    ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/17, /*update_seed=*/501));
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kWithValues)
                    .ok());
    durable.set_deferred(true);
    Warehouse::DurabilityOptions options;
    options.dir = dir;
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(
        durable.DefineView(rig.definition, Warehouse::CacheMode::kFull).ok());
    for (size_t i = 0; i < kUpdates; ++i) {
      ASSERT_TRUE(rig.gen_durable->Step().ok());
      if ((i + 1) % kDrainEvery == 0) {
        ASSERT_TRUE(durable.ProcessPendingBatch().ok());
      }
    }
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    total_bytes = durable.wal()->bytes_written();
    std::filesystem::remove_all(dir);
  }
  ASSERT_GT(total_bytes, 0);

  for (int iteration = 0; iteration < 10; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    // Odd twentieths plus a small skew: crash points spread across the
    // whole stream and land at varying offsets within records.
    int64_t budget =
        total_bytes * (2 * iteration + 1) / 20 + 3 * iteration + 1;
    std::string dir = TempDir("kill_" + std::to_string(iteration));

    TwinRig rig;
    ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/17, /*update_seed=*/501));

    Warehouse::DurabilityOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kCommit;
    options.checkpoint_interval_events = 40;

    size_t applied = 0;
    bool crashed = false;
    {
      ObjectStore store_d(DelegateStoreOptions());
      Warehouse durable(&store_d);
      ASSERT_TRUE(durable
                      .ConnectSource(&rig.source_durable, rig.root,
                                     ReportingLevel::kWithValues)
                      .ok());
      durable.set_deferred(true);
      ASSERT_TRUE(durable.EnableDurability(options).ok());
      ASSERT_TRUE(
          durable.DefineView(rig.definition, Warehouse::CacheMode::kFull)
              .ok());
      durable.wal()->set_crash_after_bytes(budget);
      while (applied < kUpdates) {
        ASSERT_TRUE(rig.gen_durable->Step().ok());
        ++applied;
        if (durable.wal()->crashed()) {
          crashed = true;
          break;
        }
        if (applied % kDrainEvery == 0) {
          durable.ProcessPendingBatch();  // errors surface via last_status_
          if (durable.wal()->crashed()) {
            crashed = true;
            break;
          }
        }
      }
      // The dead warehouse is simply abandoned here (destructor only
      // detaches the monitor — exactly what a process death would leave).
    }

    // Twin processes the identical full workload, uninterrupted.
    for (size_t i = 0; i < kUpdates; ++i) {
      ASSERT_TRUE(rig.gen_twin->Step().ok());
      if ((i + 1) % kDrainEvery == 0) {
        ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
      }
    }
    ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());

    // Recover and finish the workload.
    ObjectStore store_r(DelegateStoreOptions());
    Warehouse recovered(&store_r);
    ASSERT_TRUE(recovered
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kWithValues)
                    .ok());
    recovered.set_deferred(true);
    Warehouse::DurabilityOptions resume = options;
    ASSERT_TRUE(recovered.EnableDurability(resume).ok())
        << recovered.last_status().ToString();
    if (crashed) {
      // A crash mid-write must be visible as a torn log (and trigger the
      // quarantine+resync fallback) unless it cut exactly between records.
      SCOPED_TRACE(recovered.recovery_report().log_torn ? "torn" : "clean");
    }
    while (applied < kUpdates) {
      ASSERT_TRUE(rig.gen_durable->Step().ok());
      ++applied;
      if (applied % kDrainEvery == 0) {
        ASSERT_TRUE(recovered.ProcessPendingBatch().ok())
            << recovered.last_status().ToString();
      }
    }
    ASSERT_TRUE(recovered.ProcessPendingBatch().ok());
    ASSERT_EQ(recovered.stale_view_count(), 0u);

    ASSERT_NO_FATAL_FAILURE(rig.ExpectConverged(recovered, store_r));
  }
}

// ---------------------------------------------------------------------------
// Sharded durability: each shard persists under <dir>/shard-<i>; a restart
// recovers every shard, restores the router's per-shard sequence counters,
// and the coordinator keeps converging byte-identically with a live twin.
// ---------------------------------------------------------------------------

TEST(ShardedDurabilityTest, RestartRestoresEveryShardAndRouterWatermarks) {
  const std::string dir = TempDir("sharded_restart");
  constexpr uint32_t kShards = 4;

  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.seed = 23;
  tree_options.oid_prefix = "sdr_";
  ObjectStore source;
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());
  const std::string definition =
      TreeViewDefinition("SDV", tree->root, 2, 3, 50);

  // Live twin: a plain warehouse that survives the "crash".
  ObjectStore twin_store;
  Warehouse twin(&twin_store);
  ASSERT_TRUE(
      twin.ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  ASSERT_TRUE(twin.DefineView(definition).ok());
  twin.set_deferred(true);

  UpdateGenOptions gen_options;
  gen_options.seed = 307;
  gen_options.oid_prefix = "sdr_u";
  UpdateGenerator gen(&source, tree->root, gen_options);

  {
    ShardedWarehouse durable(kShards, ShardedDelegateOptions());
    ASSERT_TRUE(durable.init_status().ok());
    ASSERT_TRUE(durable
                    .ConnectSource(&source, tree->root,
                                   ReportingLevel::kWithValues)
                    .ok());
    durable.set_deferred(true);
    ShardedWarehouse::DurabilityOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kCommit;
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(durable.DefineView(definition).ok());

    for (int burst = 0; burst < 4; ++burst) {
      ASSERT_TRUE(gen.Run(30).ok());
      ASSERT_TRUE(twin.ProcessPendingBatch().ok());
      ASSERT_TRUE(durable.ProcessPendingBatch(kShards).ok());
    }
    ASSERT_TRUE(durable.WriteCheckpoint().ok());

    // A tail past the checkpoint, committed but not checkpointed: recovery
    // must replay it from the per-shard logs.
    ASSERT_TRUE(gen.Run(30).ok());
    ASSERT_TRUE(twin.ProcessPendingBatch().ok());
    ASSERT_TRUE(durable.ProcessPendingBatch(kShards).ok());

    MaterializedView* view = twin.view("SDV");
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(durable.ViewContents("SDV"), ViewContentLines(*view));
    // Destructor detaches the monitors — the rest is what a process death
    // would leave on disk.
  }

  // Every shard directory exists and holds its own log.
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/shard-" +
                                              std::to_string(i)))
        << "shard " << i;
  }

  ShardedWarehouse recovered(kShards, ShardedDelegateOptions());
  ASSERT_TRUE(recovered.init_status().ok());
  ASSERT_TRUE(
      recovered
          .ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  recovered.set_deferred(true);
  ShardedWarehouse::DurabilityOptions options;
  options.dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());

  MaterializedView* view = twin.view("SDV");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(recovered.ViewContents("SDV"), ViewContentLines(*view));

  // Watermark continuity: the router resumes each shard's sequence domain
  // where the recovered logs end — no duplicates dropped, no gaps.
  ASSERT_TRUE(gen.Run(40).ok());
  ASSERT_TRUE(twin.ProcessPendingBatch().ok());
  ASSERT_TRUE(recovered.ProcessPendingBatch(kShards).ok());
  const WarehouseCosts costs = recovered.MergedCosts();
  EXPECT_EQ(costs.events_duplicate_dropped.load(), 0);
  EXPECT_EQ(costs.events_gap_detected.load(), 0);
  EXPECT_EQ(recovered.stale_view_count(), 0u);
  EXPECT_EQ(recovered.ViewContents("SDV"), ViewContentLines(*twin.view("SDV")));
}

}  // namespace
}  // namespace gsv
