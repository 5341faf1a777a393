// Concurrency suite for the paged engine's background writeback thread
// (§4i), built to run under TSan (ctest label "tsan"): a foreground
// mutator races the writeback thread through every seam — job enqueue on
// eviction, fault-time steals from queued jobs, copies from running jobs,
// the Flush ticket barrier, the full-queue inline fallback, and both
// destructor modes (drain and abandoned-queue kill). Correctness is
// checked against a memory-engine twin so the races TSan watches are the
// ones the real store exercises.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>

#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

std::string TempDir(const std::string& tag) {
  std::string path = ::testing::TempDir() + "gsv_paged_conc_" +
                     std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(path);
  return path;
}

// The nastiest configuration: two frames, a two-deep queue (constant
// steals and inline fallbacks), compression on the writeback thread.
PagedEngineOptions HotOptions(const std::string& tag) {
  PagedEngineOptions options;
  options.dir = TempDir(tag);
  options.page_bytes = 512;
  options.pool_pages = 2;
  options.writeback_queue = 2;
  options.codec = "compressed";
  options.wipe_on_close = true;
  return options;
}

ObjectStore::Options StoreOptions(PagedEngineOptions engine_options) {
  ObjectStore::Options options;
  options.engine_factory = MakePagedEngineFactory(std::move(engine_options));
  return options;
}

// Foreground churn vs the writeback thread: puts, modifies, removes, point
// reads, safe points (eviction bursts) and periodic flush barriers, with a
// memory twin asserting content at every barrier.
TEST(PagedConcurrencyTest, WritebackRacesMutatorAndStaysByteIdentical) {
  ObjectStore memory_store;
  ObjectStore paged_store(StoreOptions(HotOptions("churn")));

  TreeGenOptions tree_options;
  tree_options.levels = 4;
  tree_options.fanout = 3;
  tree_options.seed = 97;
  auto tree_m = GenerateTree(&memory_store, tree_options);
  auto tree_p = GenerateTree(&paged_store, tree_options);
  ASSERT_TRUE(tree_m.ok());
  ASSERT_TRUE(tree_p.ok());

  UpdateGenOptions gen_options;
  gen_options.seed = 101;
  UpdateGenerator gen_m(&memory_store, tree_m->root, gen_options);
  UpdateGenerator gen_p(&paged_store, tree_p->root, gen_options);

  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(gen_m.Step().ok());
    ASSERT_TRUE(gen_p.Step().ok());
    if (i % 10 == 9) paged_store.StorageSafePoint();
    if (i % 100 == 99) {
      ASSERT_TRUE(paged_store.FlushStorage().ok());
      ASSERT_EQ(StoreToString(paged_store), StoreToString(memory_store))
          << "diverged at step " << i;
    }
  }
  paged_store.StorageSafePoint();
  ASSERT_TRUE(paged_store.FlushStorage().ok());
  ASSERT_EQ(StoreToString(paged_store), StoreToString(memory_store));

  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(paged_store.storage_engine(), &status));
  ASSERT_TRUE(status.io_error.ok()) << status.io_error.ToString();
  // The configuration actually exercised the contested paths.
  EXPECT_GT(status.writeback_queue_peak, 0u);
  // And the quiescent on-disk image is coherent.
  EXPECT_TRUE(VerifyPagedImage(status.dir, nullptr).ok());
}

// Faulting pages whose jobs are queued or running: tiny pool, reads
// sweeping behind the writeback thread. Steals (cancel a queued job, take
// the map back) and copies (from a started job) both land here.
TEST(PagedConcurrencyTest, FaultsStealFromAndCopyOutOfInflightJobs) {
  ObjectStore store(StoreOptions(HotOptions("steal")));
  constexpr int kObjects = 150;
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(
        store.PutAtomic(Oid("s" + std::to_string(i)), "age", Value::Int(i))
            .ok());
  }
  for (int round = 0; round < 20; ++round) {
    store.StorageSafePoint();  // evicts dirty frames into the queue
    // Immediately read back a stride — some targets' jobs are still in
    // flight, so the fault path must serve them from the queue.
    for (int i = round % 7; i < kObjects; i += 7) {
      const Object* object = store.Get(Oid("s" + std::to_string(i)));
      ASSERT_NE(object, nullptr) << "s" << i;
      ASSERT_EQ(object->value().AsInt(), i);
    }
    // Dirty a stride again so the next round has fresh jobs.
    for (int i = round % 5; i < kObjects; i += 5) {
      ASSERT_TRUE(store.Modify(Oid("s" + std::to_string(i)),
                               Value::Int(i))
                      .ok());
    }
  }
  store.StorageSafePoint();
  ASSERT_TRUE(store.FlushStorage().ok());
  PagedEngineStatus status;
  ASSERT_TRUE(QueryPagedEngineStatus(store.storage_engine(), &status));
  ASSERT_TRUE(status.io_error.ok()) << status.io_error.ToString();
}

// Destruction races: a store dying while its queue is busy, in both modes.
// The drain mode must finish every queued job before the thread exits; the
// abandon mode (simulated kill) must tear down without touching freed
// state. Several iterations to vary the queue depth at death.
TEST(PagedConcurrencyTest, DestructorDrainsOrAbandonsBusyQueue) {
  for (int iteration = 0; iteration < 6; ++iteration) {
    for (bool abandon : {false, true}) {
      PagedEngineOptions options =
          HotOptions("dtor_" + std::to_string(iteration) +
                     (abandon ? "_kill" : "_drain"));
      options.abandon_queue_on_close = abandon;
      ObjectStore store(StoreOptions(std::move(options)));
      for (int i = 0; i < 60 + iteration * 10; ++i) {
        ASSERT_TRUE(store
                        .PutAtomic(Oid("d" + std::to_string(i)), "age",
                                   Value::Int(i))
                        .ok());
      }
      store.StorageSafePoint();  // stack the queue...
      // ...and destroy immediately, with jobs plausibly still in flight.
    }
  }
}

}  // namespace
}  // namespace gsv
