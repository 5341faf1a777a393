// Storage-engine suite (§4h): the StorageEngine contract on both shipped
// engines, PagedEngine residency/eviction bounds, oversized-object
// extents, offline image verification, the GSV_STORAGE_ENGINE env seam —
// and the headline twin property: a store/warehouse/replica on the paged
// engine under a pool small enough to force constant eviction is
// byte-identical with a memory-engine twin at every commit watermark,
// through checkpoints and crash recovery included.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/virtual_view.h"
#include "oem/page_codec.h"
#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/storage_engine.h"
#include "oem/store.h"
#include "query/evaluator.h"
#include "replication/log_transport.h"
#include "replication/replica.h"
#include "storage/checkpoint.h"
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
  std::string path = ::testing::TempDir() + "gsv_engine_" +
                     std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(path);
  return path;
}

// A paged engine small enough that any non-trivial graph overflows the
// pool: 512-byte pages, three frames. wipe_on_close keeps TempDir clean.
PagedEngineOptions TinyPagedOptions(const std::string& tag,
                                    uint64_t pool_pages = 3,
                                    uint64_t page_bytes = 512) {
  PagedEngineOptions options;
  options.dir = TempDir(tag);
  options.page_bytes = page_bytes;
  options.pool_pages = pool_pages;
  options.wipe_on_close = true;
  return options;
}

ObjectStore::Options PagedStoreOptions(PagedEngineOptions engine_options) {
  ObjectStore::Options options;
  options.engine_factory = MakePagedEngineFactory(std::move(engine_options));
  return options;
}

// ------------------------------------------------------- engine contract

void ExerciseEngineContract(StorageEngine* engine) {
  EXPECT_EQ(engine->Size(), 0u);
  // Inserted out of lexicographic order on purpose.
  ASSERT_TRUE(engine->Put(Object(Oid("m"), "age", Value::Int(7))).ok());
  ASSERT_TRUE(engine->Put(Object(Oid("a:2"), "name", Value::Str("x"))).ok());
  OidSet children;
  children.Insert(Oid("m"));
  ASSERT_TRUE(engine->Put(Object(Oid("a:10"), "set", Value::Set(children)))
                  .ok());
  EXPECT_EQ(engine->Size(), 3u);

  // Duplicate put refused; the original survives.
  EXPECT_EQ(engine->Put(Object(Oid("m"), "age", Value::Int(9))).code(),
            StatusCode::kAlreadyExists);
  const Object* got = engine->Get(Oid("m"));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->value().AsInt(), 7);
  EXPECT_EQ(engine->Get(Oid("absent")), nullptr);

  // Mutation through GetMutable sticks.
  Object* mut = engine->GetMutable(Oid("m"));
  ASSERT_NE(mut, nullptr);
  mut->mutable_value() = Value::Int(41);
  EXPECT_EQ(engine->Get(Oid("m"))->value().AsInt(), 41);

  // Ordered scan yields canonical lexicographic OID order.
  std::vector<std::string> order;
  engine->ScanInOrder([&](const Object& object) {
    order.push_back(object.oid().str());
  });
  EXPECT_EQ(order, (std::vector<std::string>{"a:10", "a:2", "m"}));

  // Unordered scan visits the same set.
  size_t visited = 0;
  engine->ScanUnordered([&](const Object&) { ++visited; });
  EXPECT_EQ(visited, 3u);

  // Erase, then re-put under the same OID.
  EXPECT_EQ(engine->Erase(Oid("absent")).code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine->Erase(Oid("m")).ok());
  EXPECT_EQ(engine->Size(), 2u);
  EXPECT_EQ(engine->Get(Oid("m")), nullptr);
  ASSERT_TRUE(engine->Put(Object(Oid("m"), "age", Value::Int(5))).ok());
  EXPECT_EQ(engine->Get(Oid("m"))->value().AsInt(), 5);

  // Safe points and flushes must not disturb contents.
  engine->SafePoint();
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->Size(), 3u);
  EXPECT_EQ(engine->Get(Oid("a:2"))->value().AsString(), "x");
}

TEST(StorageEngineContractTest, InMemoryEngine) {
  auto engine = MakeInMemoryEngine();
  EXPECT_STREQ(engine->EngineName(), "memory");
  ExerciseEngineContract(engine.get());
}

TEST(StorageEngineContractTest, PagedEngine) {
  auto engine = MakePagedEngine(TinyPagedOptions("contract"));
  EXPECT_STREQ(engine->EngineName(), "paged");
  ExerciseEngineContract(engine.get());
}

// A store built without a factory runs on the memory engine; with the
// paged factory it reports the paged engine.
TEST(StorageEngineContractTest, StoreReportsItsEngine) {
  ObjectStore memory_store;
  EXPECT_STREQ(memory_store.engine_name(), "memory");
  ObjectStore paged_store(PagedStoreOptions(TinyPagedOptions("report")));
  EXPECT_STREQ(paged_store.engine_name(), "paged");
}

// ------------------------------------------- dense in-memory engine

// The memory engine indexes objects by their interned OID id in a table
// that grows as higher ids arrive. These pin the contract across growth.

TEST(InMemoryEngineTest, GetPointerSurvivesGrowth) {
  auto engine = MakeInMemoryEngine();
  ASSERT_TRUE(
      engine->Put(Object(Oid("dense_anchor"), "a", Value::Int(1))).ok());
  const Object* anchor = engine->Get(Oid("dense_anchor"));
  ASSERT_NE(anchor, nullptr);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(engine
                    ->Put(Object(Oid("dense_grow_" + std::to_string(i)), "g",
                                 Value::Int(i)))
                    .ok());
  }
  EXPECT_EQ(engine->Get(Oid("dense_anchor")), anchor);
  EXPECT_EQ(anchor->value().AsInt(), 1);
  EXPECT_EQ(anchor->oid(), Oid("dense_anchor"));
  EXPECT_EQ(engine->Size(), 10001u);
}

TEST(InMemoryEngineTest, ScansAreCanonicalAndVisitEachObjectOnce) {
  auto engine = MakeInMemoryEngine();
  // Interned in an order unrelated to the lexicographic one, so id order
  // and canonical order differ.
  std::vector<std::string> spellings;
  for (int i = 0; i < 300; ++i) {
    spellings.push_back("dense_scan_" + std::to_string((i * 7919) % 1000));
  }
  for (const std::string& spelling : spellings) {
    ASSERT_TRUE(engine->Put(Object(Oid(spelling), "s", Value::Int(0))).ok());
  }
  // Erase every third object, then re-put every sixth: holes and refilled
  // slots inside touched leaves.
  for (size_t i = 0; i < spellings.size(); i += 3) {
    ASSERT_TRUE(engine->Erase(Oid(spellings[i])).ok());
    EXPECT_EQ(engine->Get(Oid(spellings[i])), nullptr);
    EXPECT_EQ(engine->Erase(Oid(spellings[i])).code(), StatusCode::kNotFound);
  }
  for (size_t i = 0; i < spellings.size(); i += 6) {
    ASSERT_TRUE(
        engine->Put(Object(Oid(spellings[i]), "r", Value::Int(1))).ok());
    EXPECT_EQ(engine->Put(Object(Oid(spellings[i]), "r", Value::Int(2)))
                  .code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(engine->Get(Oid(spellings[i]))->value().AsInt(), 1);
  }
  std::vector<std::string> live;
  for (size_t i = 0; i < spellings.size(); ++i) {
    if (i % 3 != 0 || i % 6 == 0) live.push_back(spellings[i]);
  }
  std::sort(live.begin(), live.end());
  EXPECT_EQ(engine->Size(), live.size());

  std::vector<std::string> ordered;
  engine->ScanInOrder(
      [&](const Object& object) { ordered.push_back(object.oid().str()); });
  EXPECT_EQ(ordered, live);

  std::vector<std::string> unordered;
  engine->ScanUnordered(
      [&](const Object& object) { unordered.push_back(object.oid().str()); });
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, live);  // each live object exactly once
}

TEST(InMemoryEngineTest, SparseStoreOverFarApartIds) {
  // Push the global id counter forward between puts, as the shard and
  // cache stores see it: a handful of objects thousands of ids apart.
  auto engine = MakeInMemoryEngine();
  std::vector<Oid> oids;
  for (int i = 0; i < 5; ++i) {
    oids.emplace_back("dense_sparse_" + std::to_string(i));
    ASSERT_TRUE(engine->Put(Object(oids.back(), "s", Value::Int(i))).ok());
    for (int filler = 0; filler < 3000; ++filler) {
      OidTable::Global().Intern("dense_sparse_gap_" + std::to_string(i) +
                                "_" + std::to_string(filler));
    }
  }
  ASSERT_GT(oids.back().id() - oids.front().id(), 12000u);
  EXPECT_EQ(engine->Size(), oids.size());
  for (int i = 0; i < 5; ++i) {
    const Object* object = engine->Get(oids[i]);
    ASSERT_NE(object, nullptr);
    EXPECT_EQ(object->value().AsInt(), i);
  }
  // Ids inside a touched leaf and beyond every touched leaf are absent.
  EXPECT_EQ(engine->Get(Oid("dense_sparse_gap_2_7")), nullptr);
  const Oid beyond("dense_sparse_beyond");
  EXPECT_EQ(engine->Get(beyond), nullptr);
  EXPECT_EQ(engine->GetMutable(beyond), nullptr);
  EXPECT_EQ(engine->Erase(beyond).code(), StatusCode::kNotFound);
  size_t visited = 0;
  engine->ScanUnordered([&](const Object&) { ++visited; });
  EXPECT_EQ(visited, oids.size());
}

// --------------------------------------------------- residency / bounds

TEST(PagedEngineTest, BeyondRamStoreStaysWithinPoolBudget) {
  ObjectStore store(PagedStoreOptions(TinyPagedOptions("bounds")));
  // ~200 atoms at ~30 bytes each over 512-byte pages: well past 4x the
  // three-frame budget.
  for (int i = 0; i < 200; ++i) {
    std::ostringstream oid;
    oid << "o" << i;
    ASSERT_TRUE(store.PutAtomic(Oid(oid.str()), "age", Value::Int(i)).ok());
    if (i % 25 == 24) store.StorageSafePoint();
  }
  store.StorageSafePoint();

  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  ASSERT_TRUE(status.io_error.ok()) << status.io_error.ToString();
  EXPECT_EQ(status.objects, 200u);
  EXPECT_GE(status.pages_total, 4 * status.pool_pages);  // beyond-RAM
  EXPECT_LE(status.pages_resident, status.pool_pages);   // post-safe-point

  // Every object reads back despite constant eviction.
  for (int i = 0; i < 200; ++i) {
    std::ostringstream oid;
    oid << "o" << i;
    const Object* object = store.Get(Oid(oid.str()));
    ASSERT_NE(object, nullptr) << oid.str();
    EXPECT_EQ(object->value().AsInt(), i);
  }
  EXPECT_GT(store.metrics().page_faults.load(), 0);
  EXPECT_GT(store.metrics().page_evictions.load(), 0);

  // A full ordered scan of the beyond-RAM store ends within budget again.
  store.StorageSafePoint();
  size_t scanned = 0;
  std::string previous;
  store.ScanInOrder([&](const Object& object) {
    EXPECT_LT(previous, object.oid().str());
    previous = object.oid().str();
    ++scanned;
  });
  EXPECT_EQ(scanned, 200u);
  store.StorageSafePoint();
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  EXPECT_LE(status.pages_resident, status.pool_pages);
}

TEST(PagedEngineTest, OversizedObjectOccupiesMultiSlotExtent) {
  ObjectStore store(
      PagedStoreOptions(TinyPagedOptions("extent", 3, 256)));
  ASSERT_TRUE(store.PutAtomic(Oid("small"), "age", Value::Int(1)).ok());
  // One record several times the 256-byte slot size.
  ASSERT_TRUE(store
                  .PutAtomic(Oid("huge"), "blob",
                             Value::Str(std::string(2000, 'z')))
                  .ok());
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());

  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  auto directory = ReadPageDirectory(status.dir);
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();
  bool saw_extent = false;
  for (const PageDirEntry& page : directory.value().pages) {
    if (page.slot_count > 1) saw_extent = true;
  }
  EXPECT_TRUE(saw_extent);
  EXPECT_TRUE(VerifyPagedImage(status.dir, nullptr).ok());

  // The oversized object reads back intact after eviction pressure.
  store.StorageSafePoint();
  const Object* huge = store.Get(Oid("huge"));
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(huge->value().AsString(), std::string(2000, 'z'));
}

TEST(PagedEngineTest, VerifyPagedImageCatchesCorruption) {
  ObjectStore store(PagedStoreOptions(TinyPagedOptions("corrupt")));
  for (int i = 0; i < 40; ++i) {
    std::ostringstream oid;
    oid << "c" << i;
    ASSERT_TRUE(store.PutAtomic(Oid(oid.str()), "age", Value::Int(i)).ok());
  }
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));

  std::ostringstream report;
  ASSERT_TRUE(VerifyPagedImage(status.dir, &report).ok());
  EXPECT_NE(report.str().find("all pages verify"), std::string::npos);
  // Per-page codec id and stored/raw ratio appear in the dump.
  EXPECT_NE(report.str().find("codec 0(identity)"), std::string::npos);
  EXPECT_NE(report.str().find("ratio"), std::string::npos);

  // Flip one payload byte of the first non-empty page in pages.gsp.
  auto directory = ReadPageDirectory(status.dir);
  ASSERT_TRUE(directory.ok());
  const PageDirEntry* victim = nullptr;
  for (const PageDirEntry& page : directory.value().pages) {
    if (page.payload_bytes > 0) {
      victim = &page;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  {
    std::fstream file(status.dir + "/pages.gsp",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(victim->slot_start *
                                           directory.value().page_bytes));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(victim->slot_start *
                                           directory.value().page_bytes));
    file.put(static_cast<char>(byte ^ 0x40));
  }
  EXPECT_EQ(VerifyPagedImage(status.dir, nullptr).code(),
            StatusCode::kDataLoss);
}

// Reads every PAGEDIR extent's stored bytes from pages.gsp, in directory
// order.
std::vector<std::string> ReadStoredPages(const std::string& dir,
                                         const PageDirectory& directory) {
  std::vector<std::string> pages;
  std::ifstream file(dir + "/pages.gsp", std::ios::binary);
  for (const PageDirEntry& entry : directory.pages) {
    std::string payload(entry.payload_bytes, '\0');
    file.seekg(static_cast<std::streamoff>(entry.slot_start *
                                           directory.page_bytes));
    file.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    pages.push_back(std::move(payload));
  }
  return pages;
}

// The audit parses each page's records and holds them to the directory: a
// PAGEDIR whose `objects` count is wrong — trailer CRC recomputed, so only
// the record check can see it — fails, naming the page.
TEST(PagedEngineTest, VerifyPagedImageChecksRecordsAgainstDirectory) {
  ObjectStore store(PagedStoreOptions(TinyPagedOptions("dir_records")));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store
                    .PutAtomic(Oid("dr" + std::to_string(i)), "age",
                               Value::Int(i))
                    .ok());
  }
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  ASSERT_TRUE(VerifyPagedImage(status.dir, nullptr).ok());

  const std::string path = status.dir + "/PAGEDIR";
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // Bump field 10 (`objects`) of the first page line that holds records.
  std::string body;
  std::string victim_id;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("crc ", 0) == 0) break;
    if (victim_id.empty() && line.rfind("page ", 0) == 0) {
      std::vector<std::string> fields;
      std::istringstream split(line);
      for (std::string field; split >> field;) fields.push_back(field);
      ASSERT_GE(fields.size(), 14u);
      if (fields[10] != "0") {
        victim_id = fields[1];
        fields[10] = std::to_string(std::stoull(fields[10]) + 1);
        line.clear();
        for (size_t i = 0; i < fields.size(); ++i) {
          line += (i == 0 ? "" : " ") + fields[i];
        }
      }
    }
    body += line + "\n";
  }
  ASSERT_FALSE(victim_id.empty());
  {
    std::ofstream out(path, std::ios::trunc);
    out << body << "crc " << Crc32(body.data(), body.size()) << "\n";
  }
  ASSERT_TRUE(ReadPageDirectory(status.dir).ok()) << "trailer must verify";
  Status audit = VerifyPagedImage(status.dir, nullptr);
  EXPECT_EQ(audit.code(), StatusCode::kDataLoss);
  EXPECT_NE(audit.message().find("page " + victim_id + ":"),
            std::string::npos)
      << audit.ToString();
}

// The page format's byte contract (DESIGN.md §4h): with the identity codec
// the flushed pages, read in PAGEDIR order and concatenated, are exactly
// the `obj` lines of the store's checkpoint text.
TEST(PagedEngineTest, InOrderPageWalkReproducesCheckpointLines) {
  ObjectStore store(PagedStoreOptions(TinyPagedOptions("page_walk", 3, 512)));
  TreeGenOptions tree_options;
  tree_options.levels = 4;
  tree_options.fanout = 3;
  tree_options.seed = 41;
  auto tree = GenerateTree(&store, tree_options);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(store.PutAtomic(Oid("pw:real"), "r", Value::Real(-0.0)).ok());
  ASSERT_TRUE(
      store.PutAtomic(Oid("pw:str"), "s", Value::Str("a \"q\"\\\n")).ok());
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  ASSERT_EQ(status.codec, "identity");
  auto directory = ReadPageDirectory(status.dir);
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();
  ASSERT_GT(directory.value().pages.size(), 3u) << "one page proves little";

  std::string walked;
  for (const std::string& page :
       ReadStoredPages(status.dir, directory.value())) {
    walked += page;
  }
  std::string expected;
  std::istringstream checkpoint(StoreToString(store));
  for (std::string line; std::getline(checkpoint, line);) {
    if (line.rfind("obj ", 0) == 0) expected += line + "\n";
  }
  EXPECT_EQ(walked, expected);
}

// ----------------------------------------------------------- page codec

TEST(PageCodecTest, RegistryRoundTrips) {
  EXPECT_EQ(PageCodecById(0), IdentityPageCodec());
  EXPECT_EQ(PageCodecById(1), GsvzPageCodec());
  EXPECT_EQ(PageCodecById(7), nullptr);
  auto identity = PageCodecByName("identity");
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(identity.value()->id(), 0);
  auto gsvz = PageCodecByName("gsvz");
  auto compressed = PageCodecByName("compressed");
  ASSERT_TRUE(gsvz.ok());
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(gsvz.value(), compressed.value());
  EXPECT_EQ(PageCodecByName("zstd").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PageCodecTest, GsvzRoundTripsArbitraryPayloads) {
  const PageCodec* codec = GsvzPageCodec();
  std::vector<std::string> payloads = {
      "",
      "x",
      "ab",
      "abc",
      std::string(5000, 'z'),                    // long self-overlap run
      "obj o1 age int 1\nobj o2 age int 2\n",    // checkpoint-like text
  };
  // Pseudo-random binary including high bytes and NULs.
  std::string binary;
  uint32_t state = 0x2545F491u;
  for (int i = 0; i < 4096; ++i) {
    state = state * 1664525u + 1013904223u;
    binary.push_back(static_cast<char>(state >> 24));
  }
  payloads.push_back(binary);
  for (const std::string& raw : payloads) {
    std::string stored = codec->Encode(raw);
    auto decoded = codec->Decode(stored);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), raw) << "payload size " << raw.size();
  }
}

TEST(PageCodecTest, GsvzCompressesCheckpointText) {
  // A realistic page payload: repetitive record keywords and OID prefixes.
  std::string raw;
  for (int i = 0; i < 200; ++i) {
    raw += "obj warehouse:member:" + std::to_string(i) +
           " folder set { child:" + std::to_string(i) + " }\n";
  }
  const std::string stored = GsvzPageCodec()->Encode(raw);
  EXPECT_LT(stored.size(), raw.size() * 6 / 10)
      << "stored " << stored.size() << " raw " << raw.size();
  auto decoded = GsvzPageCodec()->Decode(stored);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), raw);
}

TEST(PageCodecTest, GsvzRejectsMalformedStreams) {
  const PageCodec* codec = GsvzPageCodec();
  std::string stored = codec->Encode("the quick brown fox the quick brown");
  // Truncations at every prefix either decode to the full payload or fail
  // cleanly — never crash, never return a wrong payload silently.
  for (size_t cut = 0; cut < stored.size(); ++cut) {
    auto decoded = codec->Decode(stored.substr(0, cut));
    if (decoded.ok()) {
      FAIL() << "truncated stream at " << cut << " decoded";
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
  EXPECT_EQ(codec->Decode("").status().code(), StatusCode::kDataLoss);
  // Trailing garbage after the declared size is data loss too.
  EXPECT_EQ(codec->Decode(stored + "x").status().code(),
            StatusCode::kDataLoss);
  // A size header no stream of this length can fill (here 2^63 - 1) is
  // refused before anything is allocated for it.
  const std::string huge_header("\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 9);
  EXPECT_EQ(codec->Decode(huge_header).status().code(),
            StatusCode::kDataLoss);
  // Just past the 9x bound: 1 header byte declaring 10 bytes.
  EXPECT_EQ(codec->Decode(std::string("\x0a", 1)).status().code(),
            StatusCode::kDataLoss);
  // Seeded random streams (and random bytes behind a valid small header):
  // a status every time, never a crash.
  std::mt19937 rng(20261019);
  for (int i = 0; i < 2000; ++i) {
    std::string junk(1 + rng() % 64, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    if (i % 2 == 1) junk[0] = static_cast<char>(rng() % 128);
    auto decoded = codec->Decode(junk);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
}

// The byte-at-a-time gsvz decoder the codec shipped with, kept as the
// reference for the sized, memcpy-based Decode. Callers keep the declared
// size small: this version reserves whatever the header declares.
Result<std::string> ReferenceGsvzDecode(std::string_view stored) {
  size_t pos = 0;
  uint64_t raw_size = 0;
  int shift = 0;
  bool header = false;
  while (pos < stored.size() && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(stored[pos++]);
    raw_size |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      header = true;
      break;
    }
    shift += 7;
  }
  if (!header) return Status::DataLoss("truncated size header");
  std::string out;
  out.reserve(raw_size);
  while (out.size() < raw_size) {
    if (pos >= stored.size()) return Status::DataLoss("truncated stream");
    const uint8_t control = static_cast<uint8_t>(stored[pos++]);
    for (int item = 0; item < 8 && out.size() < raw_size; ++item) {
      if (control & (1u << item)) {
        if (pos >= stored.size()) return Status::DataLoss("truncated");
        out.push_back(stored[pos++]);
      } else {
        if (pos + 1 >= stored.size()) return Status::DataLoss("truncated");
        const uint8_t b0 = static_cast<uint8_t>(stored[pos]);
        const uint8_t b1 = static_cast<uint8_t>(stored[pos + 1]);
        pos += 2;
        const size_t offset = (static_cast<size_t>(b0) << 4) | (b1 >> 4);
        const size_t len = (b1 & 0xF) + 3;
        if (offset == 0 || offset > out.size()) {
          return Status::DataLoss("offset outside window");
        }
        if (out.size() + len > raw_size) return Status::DataLoss("overrun");
        const size_t src = out.size() - offset;
        for (size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
      }
    }
  }
  if (pos != stored.size()) return Status::DataLoss("trailing bytes");
  return out;
}

// Decode agrees with the reference on `stored`: the same bytes, or both
// refuse it as data loss.
void ExpectDecodeMatchesReference(std::string_view stored,
                                  const std::string& what) {
  auto got = GsvzPageCodec()->Decode(stored);
  auto want = ReferenceGsvzDecode(stored);
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": " << (got.ok() ? want : got).status().ToString();
  if (got.ok()) {
    EXPECT_EQ(got.value(), want.value()) << what;
  } else {
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss) << what;
  }
}

TEST(PageCodecTest, GsvzDecodeMatchesBytewiseReference) {
  const PageCodec* codec = GsvzPageCodec();
  std::mt19937 rng(7);
  // Seeded payloads: record-like text with heavy repetition, and binary.
  for (int i = 0; i < 200; ++i) {
    std::string raw;
    const int records = static_cast<int>(rng() % 200);
    for (int r = 0; r < records; ++r) {
      raw += "obj n" + std::to_string(rng() % 50) + ":" +
             std::to_string(rng() % 1000) + " lbl int " +
             std::to_string(static_cast<int32_t>(rng())) + "\n";
    }
    for (size_t b = rng() % 300; b > 0; --b) raw += static_cast<char>(rng());
    const std::string stored = codec->Encode(raw);
    ExpectDecodeMatchesReference(stored, "payload " + std::to_string(i));
    // Damaged copies of a valid stream must fail (or decode) alike.
    for (int flip = 0; flip < 4 && stored.size() > 1; ++flip) {
      std::string damaged = stored;
      damaged[1 + rng() % (damaged.size() - 1)] ^=
          static_cast<char>(1 + rng() % 255);
      ExpectDecodeMatchesReference(damaged, "damaged " + std::to_string(i));
    }
  }
  // Hand-built self-overlapping matches (offset < len): "ab" then a match
  // of 18 at offset 2, then one of 3 at offset 1, then one of 10 at
  // offset 3. One control byte, 0b00011: two literals, then matches.
  auto match = [](size_t offset, size_t len) {
    return std::string{static_cast<char>(offset >> 4),
                       static_cast<char>(((offset & 0xF) << 4) | (len - 3))};
  };
  const std::string overlap = std::string(1, static_cast<char>(33)) +
                              std::string(1, '\x03') + "ab" + match(2, 18) +
                              match(1, 3) + match(3, 10);
  auto decoded = codec->Decode(overlap);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), "abababababababababab" "bbb" "bbbbbbbbbb");
  ExpectDecodeMatchesReference(overlap, "self-overlap");
  // Real page images: every stored page of a compressed store.
  PagedEngineOptions options = TinyPagedOptions("ref_pages", 3, 1024);
  options.codec = "compressed";
  ObjectStore store(PagedStoreOptions(std::move(options)));
  TreeGenOptions tree_options;
  tree_options.levels = 4;
  tree_options.fanout = 4;
  tree_options.seed = 5;
  ASSERT_TRUE(GenerateTree(&store, tree_options).ok());
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  auto directory = ReadPageDirectory(status.dir);
  ASSERT_TRUE(directory.ok());
  ASSERT_GT(directory.value().pages.size(), 3u);
  for (const std::string& page :
       ReadStoredPages(status.dir, directory.value())) {
    ExpectDecodeMatchesReference(page, "page image");
  }
}

// ------------------------------------------------- free-extent coalescing

// Growing pages into multi-slot extents and then shrinking them back frees
// adjacent extents; the free list must merge them and trim runs that reach
// the file tail, so a long-lived home stops fragmenting.
TEST(PagedEngineTest, FreedExtentsCoalesceAndTailTrims) {
  ObjectStore store(PagedStoreOptions(TinyPagedOptions("coalesce", 3, 256)));
  // Ten objects of ~1000 bytes: every page becomes a multi-slot extent.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .PutAtomic(Oid("h" + std::to_string(i)), "blob",
                               Value::Str(std::string(1000, 'a' + i % 26)))
                    .ok());
  }
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  const uint64_t fat_slots = status.disk_slots;
  EXPECT_GT(fat_slots, 10u);

  // Shrink every object to a few bytes: each page's next writeback drops
  // to a 1-slot extent, freeing its old multi-slot run.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Modify(Oid("h" + std::to_string(i)), Value::Int(i)).ok());
  }
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());

  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  ASSERT_TRUE(status.io_error.ok()) << status.io_error.ToString();
  EXPECT_GT(status.extent_merges, 0u) << "no adjacent frees merged";
  EXPECT_GT(status.slots_reclaimed, 0u) << "tail run never trimmed";
  EXPECT_LT(status.disk_slots, fat_slots) << "file never shrank";
  // The shrunken image still verifies offline.
  EXPECT_TRUE(VerifyPagedImage(status.dir, nullptr).ok());
  // And everything still reads back.
  for (int i = 0; i < 10; ++i) {
    const Object* object = store.Get(Oid("h" + std::to_string(i)));
    ASSERT_NE(object, nullptr);
    EXPECT_EQ(object->value().AsInt(), i);
  }
}

// ------------------------------------------------------------ swizzling

TEST(PagedEngineTest, SwizzledReadsHitAfterFirstTouch) {
  ObjectStore store(PagedStoreOptions(TinyPagedOptions("swizzle", 4)));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        store.PutAtomic(Oid("s" + std::to_string(i)), "age", Value::Int(i))
            .ok());
  }
  store.StorageSafePoint();

  // First read of an object takes the routed slow path (a miss); repeats
  // are direct-pointer hits.
  const int64_t hits_before = store.metrics().swizzle_hits.load();
  const Object* first = store.Get(Oid("s7"));
  ASSERT_NE(first, nullptr);
  const Object* second = store.Get(Oid("s7"));
  ASSERT_EQ(first, second);  // same address: served from the swizzle table
  EXPECT_GT(store.metrics().swizzle_hits.load(), hits_before);
  EXPECT_GT(store.metrics().swizzle_misses.load(), 0);

  // A swizzled-path mutation marks the frame dirty for real: the change
  // survives writeback and a full eviction round trip.
  ASSERT_TRUE(store.Modify(Oid("s7"), Value::Int(700)).ok());
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  store.StorageSafePoint();
  EXPECT_EQ(store.Get(Oid("s7"))->value().AsInt(), 700);

  // Erase drops the entry — the OID resolves to null, not a stale pointer.
  ASSERT_TRUE(store.Remove(Oid("s7")).ok());
  EXPECT_EQ(store.Get(Oid("s7")), nullptr);

  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  EXPECT_GT(status.swizzle_entries, 0u);
}

// ---------------------------------------------------- eviction under pin

// A scan whose callback issues point reads forces faults (and evictions)
// while the cursor frame is pinned: the pinned frame must never be
// evicted out from under the scan, and every nested read must be correct.
TEST(PagedEngineTest, EvictionUnderPinStress) {
  PagedEngineOptions options = TinyPagedOptions("pin_stress", 2);
  options.codec = "compressed";
  options.writeback_queue = 2;  // force steals and fallbacks too
  ObjectStore store(PagedStoreOptions(std::move(options)));
  constexpr int kObjects = 120;
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(
        store.PutAtomic(Oid("p" + std::to_string(i)), "age", Value::Int(i))
            .ok());
  }
  store.StorageSafePoint();

  size_t visited = 0;
  store.ScanInOrder([&](const Object& object) {
    // Read a spread of other objects mid-scan; most live on other pages,
    // so this churns the two-frame pool under the scan's pin.
    const int base = static_cast<int>(visited * 37);
    for (int k = 0; k < 3; ++k) {
      const int target = (base + k * 41) % kObjects;
      const Object* other = store.Get(Oid("p" + std::to_string(target)));
      ASSERT_NE(other, nullptr) << "p" << target;
      EXPECT_EQ(other->value().AsInt(), target);
    }
    // The cursor object stays addressable after the nested faults.
    EXPECT_FALSE(object.oid().str().empty());
    ++visited;
  });
  EXPECT_EQ(visited, static_cast<size_t>(kObjects));

  store.StorageSafePoint();
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  ASSERT_TRUE(status.io_error.ok()) << status.io_error.ToString();
  EXPECT_LE(status.pages_resident, status.pool_pages);
  EXPECT_GT(store.metrics().page_faults.load(), 0);
}

// ------------------------------------------------------------- env seam

TEST(PagedEngineTest, StrictSpecParsing) {
  // Well-formed specs.
  auto unset = ParseStorageEngineSpec("");
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset.value(), nullptr);
  auto memory = ParseStorageEngineSpec("memory");
  ASSERT_TRUE(memory.ok());
  EXPECT_EQ(memory.value(), nullptr);
  for (const char* spec :
       {"paged", "paged:8", "paged:8:4096", "paged:8:4096:compressed",
        "paged:8:4096:gsvz", "paged:8:4096:identity"}) {
    auto parsed = ParseStorageEngineSpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.status().ToString();
    ASSERT_NE(parsed.value(), nullptr) << spec;
    auto engine = parsed.value()();
    ASSERT_NE(engine, nullptr) << spec;
    EXPECT_STREQ(engine->EngineName(), "paged");
    ASSERT_TRUE(engine->Put(Object(Oid("e"), "age", Value::Int(1))).ok());
    ASSERT_TRUE(engine->Flush().ok()) << spec;
  }

  // Malformed specs are kInvalidArgument naming the offense — never a
  // silent fall-back to defaults.
  for (const char* spec :
       {"pagedd", "Paged", "paged:", "paged:0", "paged:-2", "paged:x",
        "paged:8:", "paged:8:0", "paged:8:bytes", "paged:8:4096:zstd",
        "paged:8:4096:compressed:extra", "memory:1"}) {
    auto parsed = ParseStorageEngineSpec(spec);
    EXPECT_FALSE(parsed.ok()) << spec << " parsed";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << spec;
    }
  }
}

TEST(PagedEngineTest, EngineFactoryFromEnv) {
  const char* saved = std::getenv("GSV_STORAGE_ENGINE");
  std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("GSV_STORAGE_ENGINE");
  EXPECT_EQ(MakeEngineFactoryFromEnv(), nullptr);
  ::setenv("GSV_STORAGE_ENGINE", "memory", 1);
  EXPECT_EQ(MakeEngineFactoryFromEnv(), nullptr);

  ::setenv("GSV_STORAGE_ENGINE", "paged:4:1024", 1);
  StorageEngineFactory factory = MakeEngineFactoryFromEnv();
  ASSERT_NE(factory, nullptr);
  {
    auto engine = factory();
    ASSERT_NE(engine, nullptr);
    EXPECT_STREQ(engine->EngineName(), "paged");
    ASSERT_TRUE(engine->Put(Object(Oid("e"), "age", Value::Int(1))).ok());
    EXPECT_EQ(engine->Size(), 1u);
  }

  // The 4-field form selects the page codec (what the ci.sh
  // paged:8:4096:compressed stage runs the whole paged suite under).
  ::setenv("GSV_STORAGE_ENGINE", "paged:4:1024:compressed", 1);
  StorageEngineFactory compressed = MakeEngineFactoryFromEnv();
  ASSERT_NE(compressed, nullptr);
  {
    auto engine = compressed();
    ASSERT_TRUE(engine->Put(Object(Oid("e"), "age", Value::Int(1))).ok());
    ASSERT_TRUE(engine->Flush().ok());
    PagedEngineStatus status;
    ASSERT_TRUE(QueryPagedEngineStatus(engine.get(), &status));
    EXPECT_EQ(status.codec, "gsvz");
  }

  if (saved != nullptr) {
    ::setenv("GSV_STORAGE_ENGINE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("GSV_STORAGE_ENGINE");
  }
}

// ------------------------------------------------------- twin: raw store

// The same generated tree and the same random update stream applied to a
// memory-engine store and a paged-engine store (pool so small every batch
// evicts): contents, checkpoint images, and the on-disk page image are
// byte-identical at every watermark. `engine_options` selects the paged
// configuration under test (codec, background writeback, swizzling).
void RunTwinStoreStream(UpdateMode mode, const std::string& tag,
                        uint64_t seed,
                        PagedEngineOptions engine_options) {
  ObjectStore memory_store;
  ObjectStore paged_store(PagedStoreOptions(engine_options));

  TreeGenOptions tree_options;
  tree_options.levels = 4;
  tree_options.fanout = 3;
  tree_options.seed = seed;
  auto tree_m = GenerateTree(&memory_store, tree_options);
  auto tree_p = GenerateTree(&paged_store, tree_options);
  ASSERT_TRUE(tree_m.ok());
  ASSERT_TRUE(tree_p.ok());
  ASSERT_EQ(tree_m->root, tree_p->root);

  UpdateGenOptions gen_options;
  gen_options.mode = mode;
  gen_options.seed = seed + 1;
  UpdateGenerator gen_m(&memory_store, tree_m->root, gen_options);
  UpdateGenerator gen_p(&paged_store, tree_p->root, gen_options);

  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(gen_m.Step().ok());
    ASSERT_TRUE(gen_p.Step().ok());
    if (i % 50 == 49) {
      paged_store.StorageSafePoint();
      ASSERT_EQ(StoreToString(paged_store), StoreToString(memory_store))
          << "diverged at step " << i;
    }
  }
  paged_store.StorageSafePoint();
  EXPECT_GT(paged_store.metrics().page_evictions.load(), 0)
      << "pool never overflowed; twin proves nothing";

  // The checkpoint image round-trips identically through both engines.
  auto image_m = ExportStoreImage(&memory_store);
  auto image_p = ExportStoreImage(&paged_store);
  ASSERT_TRUE(image_m.ok());
  ASSERT_TRUE(image_p.ok());
  EXPECT_EQ(image_p.value(), image_m.value());

  // Bulk-load the image into a fresh paged store (same engine config):
  // same bytes again.
  PagedEngineOptions reload_options = engine_options;
  reload_options.dir = TempDir(tag + "_reload");
  ObjectStore reloaded(PagedStoreOptions(std::move(reload_options)));
  ASSERT_TRUE(ImportStoreImage(image_m.value(), &reloaded).ok());
  reloaded.StorageSafePoint();
  EXPECT_EQ(StoreToString(reloaded), StoreToString(memory_store));

  // And the flushed on-disk image passes offline verification.
  ASSERT_TRUE(paged_store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(paged_store.storage_engine(), &status));
  EXPECT_TRUE(VerifyPagedImage(status.dir, nullptr).ok());
}

TEST(EngineTwinTest, TreeStreamByteIdentical) {
  RunTwinStoreStream(UpdateMode::kTreePreserving, "twin_tree", 17,
                     TinyPagedOptions("twin_tree"));
}

TEST(EngineTwinTest, DagStreamByteIdentical) {
  RunTwinStoreStream(UpdateMode::kDagPreserving, "twin_dag", 23,
                     TinyPagedOptions("twin_dag"));
}

// The same twins with every hot-path feature engaged at once: background
// writeback draining through a 2-deep queue (forcing steals and sync
// fallbacks), the compressed codec on every page, swizzled reads.
void RunHotPathTwin(UpdateMode mode, const std::string& tag, uint64_t seed) {
  PagedEngineOptions options = TinyPagedOptions(tag);
  options.codec = "compressed";
  options.writeback_queue = 2;
  RunTwinStoreStream(mode, tag, seed, std::move(options));
}

TEST(EngineTwinTest, CompressedHotPathTreeStreamByteIdentical) {
  RunHotPathTwin(UpdateMode::kTreePreserving, "twin_hot_tree", 43);
}

TEST(EngineTwinTest, CompressedHotPathDagStreamByteIdentical) {
  RunHotPathTwin(UpdateMode::kDagPreserving, "twin_hot_dag", 47);
}

// The PR 7 baseline configuration (synchronous writeback, no swizzle
// table) must keep producing the same bytes too — E20 uses it as its
// comparison arm.
TEST(EngineTwinTest, SynchronousBaselineTreeStreamByteIdentical) {
  PagedEngineOptions options = TinyPagedOptions("twin_sync_tree");
  options.background_writeback = false;
  options.enable_swizzle = false;
  RunTwinStoreStream(UpdateMode::kTreePreserving, "twin_sync_tree", 17,
                     std::move(options));
}

// -------------------------------------------------- twin: full warehouse

// Two warehouses over identical sources and update streams; one runs its
// delegate store AND its §5.2 corridor caches on the paged engine under a
// two-frame pool. A warehouse's delegate store holds the view members, so
// the views select whole tree levels (high bound, depths 3 and 4 of a
// level-5 tree: ~320 members, dozens of pages) to push it beyond RAM.
// Views, cache images, and checkpoint bytes must match the memory twin at
// every drain watermark, and a restart from the paged warehouse's
// durability home must land byte-identical too.
TEST(EngineTwinTest, WarehouseViewsCachesAndRecoveryByteIdentical) {
  const std::string wal_dir = TempDir("twin_wh_wal");

  TreeGenOptions tree_options;
  tree_options.levels = 5;
  tree_options.fanout = 4;
  tree_options.seed = 29;
  ObjectStore source_m;
  ObjectStore source_p;
  auto tree_m = GenerateTree(&source_m, tree_options);
  auto tree_p = GenerateTree(&source_p, tree_options);
  ASSERT_TRUE(tree_m.ok());
  ASSERT_TRUE(tree_p.ok());
  const Oid root = tree_m->root;
  const std::vector<std::string> definitions = {
      TreeViewDefinition("WV3", root, 3, 5, 1000),
      TreeViewDefinition("WV4", root, 4, 5, 1000)};
  const std::vector<std::string> view_names = {"WV3", "WV4"};

  ObjectStore store_m;
  Warehouse warehouse_m(&store_m);
  ASSERT_TRUE(
      warehouse_m.ConnectSource(&source_m, root, ReportingLevel::kWithValues)
          .ok());
  warehouse_m.set_deferred(true);
  for (const std::string& definition : definitions) {
    ASSERT_TRUE(
        warehouse_m.DefineView(definition, Warehouse::CacheMode::kFull).ok());
  }

  ObjectStore store_p(
      PagedStoreOptions(TinyPagedOptions("twin_wh_store", 2)));
  Warehouse::Options warehouse_options;
  warehouse_options.aux_engine_factory =
      MakePagedEngineFactory(TinyPagedOptions("twin_wh_aux", 2));
  Warehouse warehouse_p(&store_p, warehouse_options);
  ASSERT_TRUE(
      warehouse_p.ConnectSource(&source_p, root, ReportingLevel::kWithValues)
          .ok());
  warehouse_p.set_deferred(true);
  Warehouse::DurabilityOptions durability;
  durability.dir = wal_dir;
  durability.fsync = FsyncPolicy::kCommit;
  ASSERT_TRUE(warehouse_p.EnableDurability(durability).ok());
  for (const std::string& definition : definitions) {
    ASSERT_TRUE(
        warehouse_p.DefineView(definition, Warehouse::CacheMode::kFull).ok());
  }

  UpdateGenOptions gen_options;
  gen_options.seed = 31;
  UpdateGenerator gen_m(&source_m, root, gen_options);
  UpdateGenerator gen_p(&source_p, root, gen_options);

  auto expect_converged = [&](Warehouse& paged, ObjectStore& paged_store) {
    ASSERT_EQ(StoreToString(paged_store), StoreToString(store_m));
    for (size_t v = 0; v < view_names.size(); ++v) {
      const AuxiliaryCache* cache_m = warehouse_m.cache(view_names[v]);
      const AuxiliaryCache* cache_p = paged.cache(view_names[v]);
      ASSERT_NE(cache_m, nullptr);
      ASSERT_NE(cache_p, nullptr);
      std::ostringstream bytes_m;
      std::ostringstream bytes_p;
      ASSERT_TRUE(cache_m->SaveTo(bytes_m).ok());
      ASSERT_TRUE(cache_p->SaveTo(bytes_p).ok());
      EXPECT_EQ(bytes_p.str(), bytes_m.str()) << view_names[v];

      auto def = ViewDefinition::Parse(definitions[v]);
      ASSERT_TRUE(def.ok());
      auto truth = EvaluateView(source_m, def.value());
      ASSERT_TRUE(truth.ok());
      MaterializedView* view = paged.view(view_names[v]);
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->BaseMembers(), truth.value()) << view_names[v];
    }
  };

  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(gen_m.Step().ok());
    ASSERT_TRUE(gen_p.Step().ok());
    if (i % 25 == 24) {
      ASSERT_TRUE(warehouse_m.ProcessPendingBatch().ok());
      ASSERT_TRUE(warehouse_p.ProcessPendingBatch().ok());
      ASSERT_NO_FATAL_FAILURE(expect_converged(warehouse_p, store_p));
    }
  }
  // The paged delegate store is genuinely beyond its two-frame pool, and
  // its paging shows on the delegate store's metrics — on the paged twin
  // only.
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store_p.storage_engine(), &status));
  EXPECT_GT(status.pages_total, status.pool_pages);
  EXPECT_GT(store_p.metrics().page_faults.load(), 0);
  EXPECT_EQ(store_m.metrics().page_faults.load(), 0);

  // Checkpoint, accept a never-drained tail, "crash", recover on a fresh
  // paged store: the tail replays and the twins converge again.
  ASSERT_TRUE(warehouse_p.WriteCheckpoint().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(gen_m.Step().ok());
    ASSERT_TRUE(gen_p.Step().ok());
  }
  EXPECT_EQ(warehouse_p.pending_events(), 10u);

  ObjectStore store_r(
      PagedStoreOptions(TinyPagedOptions("twin_wh_rec", 2)));
  Warehouse::Options recovered_options;
  recovered_options.aux_engine_factory =
      MakePagedEngineFactory(TinyPagedOptions("twin_wh_rec_aux", 2));
  Warehouse recovered(&store_r, recovered_options);
  ASSERT_TRUE(
      recovered.ConnectSource(&source_p, root, ReportingLevel::kWithValues)
          .ok());
  recovered.set_deferred(true);
  Warehouse::DurabilityOptions recovery_options;
  recovery_options.dir = wal_dir;
  ASSERT_TRUE(recovered.EnableDurability(recovery_options).ok());
  EXPECT_TRUE(recovered.recovery_report().recovered_checkpoint);

  ASSERT_TRUE(warehouse_m.ProcessPendingBatch().ok());
  ASSERT_TRUE(recovered.ProcessPendingBatch().ok());
  ASSERT_NO_FATAL_FAILURE(expect_converged(recovered, store_r));
}

// ----------------------------------------------------- twin: replication

// A follower whose delegate store runs on the paged engine seeds from the
// primary's checkpoint through the bulk-load seam and stays byte-identical
// with a memory-engine primary at every commit watermark. The views select
// whole tree levels so the follower's store overflows its two-frame pool.
TEST(EngineTwinTest, ReplicaCatchesUpOnPagedEngine) {
  const std::string primary_dir = TempDir("twin_rep_primary");

  TreeGenOptions tree_options;
  tree_options.levels = 5;
  tree_options.fanout = 4;
  tree_options.seed = 37;
  ObjectStore source;
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());
  const Oid root = tree->root;
  const std::vector<std::string> definitions = {
      TreeViewDefinition("WV3", root, 3, 5, 1000),
      TreeViewDefinition("WV4", root, 4, 5, 1000)};
  const std::vector<std::string> view_names = {"WV3", "WV4"};

  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, root, ReportingLevel::kWithValues)
          .ok());
  warehouse.set_deferred(true);
  Warehouse::DurabilityOptions durability;
  durability.dir = primary_dir;
  durability.fsync = FsyncPolicy::kCommit;
  ASSERT_TRUE(warehouse.EnableDurability(durability).ok());
  for (const std::string& definition : definitions) {
    ASSERT_TRUE(warehouse.DefineView(definition).ok());
  }

  ReplicaOptions replica_options;
  replica_options.dir = TempDir("twin_rep_follower");
  replica_options.engine_factory =
      MakePagedEngineFactory(TinyPagedOptions("twin_rep_engine", 2));
  Replica replica(std::make_unique<FileLogTransport>(primary_dir),
                  std::move(replica_options));
  ASSERT_TRUE(replica.Start().ok());
  EXPECT_STREQ(replica.store().engine_name(), "paged");

  UpdateGenOptions gen_options;
  gen_options.seed = 41;
  UpdateGenerator gen(&source, root, gen_options);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 25; ++i) ASSERT_TRUE(gen.Step().ok());
    ASSERT_TRUE(warehouse.ProcessPending().ok());
    Status caught = replica.CatchUp();
    ASSERT_TRUE(caught.ok()) << caught.ToString();
    EXPECT_EQ(StoreToString(replica.store()), StoreToString(store))
        << "round " << round;
    for (const std::string& name : view_names) {
      const MaterializedView* primary_view = warehouse.view(name);
      const MaterializedView* replica_view = replica.view(name);
      ASSERT_NE(primary_view, nullptr);
      ASSERT_NE(replica_view, nullptr);
      EXPECT_EQ(ViewContentLines(*replica_view),
                ViewContentLines(*primary_view))
          << name;
    }
  }
  EXPECT_GT(replica.store().metrics().page_faults.load(), 0);
  EXPECT_EQ(replica.stats().self_heals, 0);
}

// ------------------------------------------- twin: kill mid-writeback

// The writeback queue is scratch state: killing the process while jobs are
// still queued (simulated by abandon_queue_on_close — queued pages never
// reach pages.gsp) must not perturb recovery, because durable truth is the
// WAL + checkpoints and the engine home is rebuilt by bulk load. A sharded
// warehouse whose shard delegate stores run the full hot path (background
// writeback through a 2-deep queue, compressed codec, 2-frame pools) is
// killed with a committed-but-not-checkpointed tail, recovered, and must
// match a memory-engine twin that never died — then keep matching as new
// events flow. Randomized over seeds per mode/shard-count.
void RunKillMidWritebackRecovery(UpdateMode mode, uint32_t shards,
                                 uint64_t seed, const std::string& tag) {
  const std::string wal_dir = TempDir(tag + "_wal");

  TreeGenOptions tree_options;
  tree_options.levels = 4;
  tree_options.fanout = 3;
  tree_options.seed = seed;
  ObjectStore source;
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());
  const Oid root = tree->root;
  const std::string definition = TreeViewDefinition("KWV", root, 3, 4, 500);

  ObjectStore twin_store;
  Warehouse twin(&twin_store);
  ASSERT_TRUE(
      twin.ConnectSource(&source, root, ReportingLevel::kWithValues).ok());
  twin.set_deferred(true);
  ASSERT_TRUE(twin.DefineView(definition).ok());

  auto paged_factory = [&](const std::string& suffix) {
    PagedEngineOptions options = TinyPagedOptions(tag + suffix, 2);
    options.codec = "compressed";
    options.writeback_queue = 2;
    options.abandon_queue_on_close = true;  // the "kill"
    return MakePagedEngineFactory(std::move(options));
  };

  UpdateGenOptions gen_options;
  gen_options.mode = mode;
  gen_options.seed = seed + 1;
  UpdateGenerator gen(&source, root, gen_options);

  {
    ShardedWarehouse::Options options;
    options.engine_factory = paged_factory("_live");
    ShardedWarehouse durable(shards, options);
    ASSERT_TRUE(durable.init_status().ok());
    ASSERT_TRUE(
        durable.ConnectSource(&source, root, ReportingLevel::kWithValues)
            .ok());
    durable.set_deferred(true);
    ShardedWarehouse::DurabilityOptions durability;
    durability.dir = wal_dir;
    durability.fsync = FsyncPolicy::kCommit;
    ASSERT_TRUE(durable.EnableDurability(durability).ok());
    ASSERT_TRUE(durable.DefineView(definition).ok());

    for (int burst = 0; burst < 3; ++burst) {
      ASSERT_TRUE(gen.Run(25).ok());
      ASSERT_TRUE(twin.ProcessPendingBatch().ok());
      ASSERT_TRUE(durable.ProcessPendingBatch(shards).ok());
    }
    ASSERT_TRUE(durable.WriteCheckpoint().ok());
    // A committed tail past the checkpoint: recovery must replay it.
    ASSERT_TRUE(gen.Run(25).ok());
    ASSERT_TRUE(twin.ProcessPendingBatch().ok());
    ASSERT_TRUE(durable.ProcessPendingBatch(shards).ok());
    MaterializedView* view = twin.view("KWV");
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(durable.ViewContents("KWV"), ViewContentLines(*view));
    // Destructor: engines drop whatever writeback jobs are still queued —
    // on-disk pages.gsp is torn mid-writeback, exactly like a kill.
  }

  ShardedWarehouse::Options recovered_options;
  recovered_options.engine_factory = paged_factory("_rec");
  ShardedWarehouse recovered(shards, recovered_options);
  ASSERT_TRUE(recovered.init_status().ok());
  ASSERT_TRUE(
      recovered.ConnectSource(&source, root, ReportingLevel::kWithValues)
          .ok());
  recovered.set_deferred(true);
  ShardedWarehouse::DurabilityOptions durability;
  durability.dir = wal_dir;
  ASSERT_TRUE(recovered.EnableDurability(durability).ok());

  MaterializedView* view = twin.view("KWV");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(recovered.ViewContents("KWV"), ViewContentLines(*view));

  // The recovered warehouse keeps pace with the twin on fresh events.
  ASSERT_TRUE(gen.Run(25).ok());
  ASSERT_TRUE(twin.ProcessPendingBatch().ok());
  ASSERT_TRUE(recovered.ProcessPendingBatch(shards).ok());
  EXPECT_EQ(recovered.ViewContents("KWV"), ViewContentLines(*twin.view("KWV")));
  const WarehouseCosts costs = recovered.MergedCosts();
  EXPECT_EQ(costs.events_duplicate_dropped.load(), 0);
  EXPECT_EQ(costs.events_gap_detected.load(), 0);
}

TEST(KillMidWritebackTest, TreeK1) {
  for (uint64_t seed : {59u, 61u}) {
    ASSERT_NO_FATAL_FAILURE(RunKillMidWritebackRecovery(
        UpdateMode::kTreePreserving, 1, seed,
        "kill_tree_k1_" + std::to_string(seed)));
  }
}

TEST(KillMidWritebackTest, TreeK4) {
  for (uint64_t seed : {67u, 71u}) {
    ASSERT_NO_FATAL_FAILURE(RunKillMidWritebackRecovery(
        UpdateMode::kTreePreserving, 4, seed,
        "kill_tree_k4_" + std::to_string(seed)));
  }
}

TEST(KillMidWritebackTest, DagK1) {
  for (uint64_t seed : {73u, 79u}) {
    ASSERT_NO_FATAL_FAILURE(RunKillMidWritebackRecovery(
        UpdateMode::kDagPreserving, 1, seed,
        "kill_dag_k1_" + std::to_string(seed)));
  }
}

TEST(KillMidWritebackTest, DagK4) {
  for (uint64_t seed : {83u, 89u}) {
    ASSERT_NO_FATAL_FAILURE(RunKillMidWritebackRecovery(
        UpdateMode::kDagPreserving, 4, seed,
        "kill_dag_k4_" + std::to_string(seed)));
  }
}

}  // namespace
}  // namespace gsv
