// Fault-tolerance suite: the deterministic fault injector, the wrapper's
// admission control (retry + circuit breaker), the quarantine lifecycle,
// and the end-to-end convergence guarantee — under seeded channel faults a
// warehouse that heals and resyncs ends byte-identical to one that never
// saw a fault.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/consistency.h"
#include "core/virtual_view.h"
#include "oem/store.h"
#include "query/evaluator.h"
#include "util/retry.h"
#include "warehouse/fault_injector.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "warehouse/wrapper.h"
#include "workload/person_db.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, SameSeedSameFaultSchedule) {
  FaultProfile profile;
  profile.seed = 42;
  profile.wrapper_fail_rate = 0.3;
  profile.event_drop_rate = 0.2;
  profile.event_duplicate_rate = 0.2;
  FaultInjector a(profile);
  FaultInjector b(profile);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.OnWrapperCall("op").ok(), b.OnWrapperCall("op").ok()) << i;
    EXPECT_EQ(a.DropEvent(), b.DropEvent()) << i;
    EXPECT_EQ(a.DuplicateEvent(), b.DuplicateEvent()) << i;
  }
  EXPECT_EQ(a.wrapper_faults(), b.wrapper_faults());
  EXPECT_EQ(a.events_dropped(), b.events_dropped());
  EXPECT_EQ(a.events_duplicated(), b.events_duplicated());
  EXPECT_GT(a.wrapper_faults(), 0);
  EXPECT_GT(a.events_dropped(), 0);
}

TEST(FaultInjectorTest, FaultsArriveInBursts) {
  FaultProfile profile;
  profile.seed = 7;
  profile.wrapper_fail_rate = 0.05;
  profile.wrapper_fail_burst = 4;
  FaultInjector injector(profile);
  // Scan for the first fault; the next three attempts must fail too.
  int i = 0;
  while (injector.OnWrapperCall("op").ok()) {
    ASSERT_LT(++i, 10000) << "profile should eventually fault";
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_FALSE(injector.OnWrapperCall("op").ok()) << "burst position " << j;
  }
}

TEST(FaultInjectorTest, ScriptedControlsOverrideTheProfile) {
  FaultInjector injector(FaultProfile{});  // all rates zero
  EXPECT_TRUE(injector.OnWrapperCall("op").ok());
  EXPECT_FALSE(injector.DropEvent());

  injector.FailNextCalls(2);
  EXPECT_EQ(injector.OnWrapperCall("op").code(), StatusCode::kUnavailable);
  EXPECT_FALSE(injector.OnWrapperCall("op").ok());
  EXPECT_TRUE(injector.OnWrapperCall("op").ok());

  injector.DropNextEvents(1);
  EXPECT_TRUE(injector.DropEvent());
  EXPECT_FALSE(injector.DropEvent());

  injector.DuplicateNextEvents(1);
  EXPECT_TRUE(injector.DuplicateEvent());
  EXPECT_FALSE(injector.DuplicateEvent());

  injector.set_down(true);
  EXPECT_FALSE(injector.OnWrapperCall("op").ok());
  injector.Heal();
  EXPECT_TRUE(injector.OnWrapperCall("op").ok());
}

TEST(FaultInjectorTest, HealZeroesScriptedAndProbabilisticFaults) {
  FaultProfile profile;
  profile.seed = 3;
  profile.wrapper_fail_rate = 1.0;
  profile.event_drop_rate = 1.0;
  profile.event_duplicate_rate = 1.0;
  FaultInjector injector(profile);
  injector.FailNextCalls(5);
  injector.DropNextEvents(5);
  EXPECT_FALSE(injector.OnWrapperCall("op").ok());
  EXPECT_TRUE(injector.DropEvent());
  injector.Heal();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.OnWrapperCall("op").ok());
    EXPECT_FALSE(injector.DropEvent());
    EXPECT_FALSE(injector.DuplicateEvent());
  }
}

// ------------------------------------------------------- Wrapper admission

class WrapperFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildPersonDb(&source_, /*with_database=*/false).ok());
    wrapper_ = std::make_unique<SourceWrapper>(&source_, &costs_);
    wrapper_->set_fault_injector(&injector_);
  }

  ObjectStore source_;
  WarehouseCosts costs_;
  FaultInjector injector_{FaultProfile{}};
  std::unique_ptr<SourceWrapper> wrapper_;
};

TEST_F(WrapperFaultTest, TransientFaultsAreRetriedAway) {
  // Two injected failures, then success: one call, two retries, an answer.
  injector_.FailNextCalls(2);
  auto object = wrapper_->FetchObject(P1());
  ASSERT_TRUE(object.ok()) << object.status().ToString();
  EXPECT_EQ(costs_.wrapper_retries, 2);
  EXPECT_EQ(costs_.wrapper_failures, 0);
  EXPECT_EQ(wrapper_->breaker_state(), CircuitBreaker::State::kClosed);
}

TEST_F(WrapperFaultTest, ExhaustedRetriesSurfaceAsFailure) {
  injector_.FailNextCalls(100);
  auto object = wrapper_->FetchObject(P1());
  ASSERT_FALSE(object.ok());
  EXPECT_TRUE(IsSourceFailure(object.status()))
      << object.status().ToString();
  EXPECT_EQ(costs_.wrapper_failures, 1);
  EXPECT_EQ(costs_.wrapper_retries, wrapper_->retry_policy().max_attempts - 1);
}

TEST_F(WrapperFaultTest, BreakerTripsThenFailsFastThenRecovers) {
  injector_.set_down(true);
  CircuitBreaker::Options breaker_options;
  // Every fetch exhausts its retries and counts one breaker failure.
  for (int i = 0; i < breaker_options.failure_threshold; ++i) {
    EXPECT_FALSE(wrapper_->FetchObject(P1()).ok());
  }
  EXPECT_EQ(costs_.breaker_trips, 1);
  EXPECT_EQ(wrapper_->breaker_state(), CircuitBreaker::State::kOpen);

  // While open, calls are rejected without consulting the source: the
  // injector sees no new attempts.
  const int64_t faults_before = injector_.wrapper_faults();
  EXPECT_FALSE(wrapper_->FetchObject(P1()).ok());
  EXPECT_EQ(injector_.wrapper_faults(), faults_before);
  EXPECT_GT(costs_.breaker_rejections, 0);

  // A forced probe bypasses the open breaker; once the source heals it
  // succeeds and closes the breaker again.
  injector_.Heal();
  ASSERT_TRUE(wrapper_->Probe(/*force=*/true).ok());
  EXPECT_EQ(wrapper_->breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(wrapper_->FetchObject(P1()).ok());
}

TEST_F(WrapperFaultTest, OpenBreakerHalfOpensAfterEnoughRejections) {
  injector_.set_down(true);
  CircuitBreaker::Options breaker_options;
  for (int i = 0; i < breaker_options.failure_threshold; ++i) {
    EXPECT_FALSE(wrapper_->Probe().ok());
  }
  ASSERT_EQ(wrapper_->breaker_state(), CircuitBreaker::State::kOpen);

  // The source recovers while the breaker is open. After open_rejections
  // fail-fast calls the breaker lets one probe through, which succeeds and
  // closes the circuit — no forced probe needed.
  injector_.Heal();
  Status last = Status::Ok();
  for (int i = 0; i < breaker_options.open_rejections + 1; ++i) {
    last = wrapper_->Probe();
    if (last.ok()) break;
  }
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(wrapper_->breaker_state(), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------- e2e fault convergence

// The acceptance test of the fault-tolerance layer: drive two warehouses
// with the identical seeded update stream, one over a perfect channel, one
// over a channel that drops deliveries, duplicates deliveries and fails
// query-backs in bursts (at K=4, on one shard's channel only). After the
// faulty channel heals and stale views resync — through an explicit
// ResyncStaleViews() or through the drains that follow — the faulty
// warehouse's content lines (members, delegate labels and values) must
// equal a recompute: the view defined from scratch over the final source
// state. They must also equal the fault-free twin's, and at K=4 the
// fault-free K=1 twin's as well.
enum class Heal { kResync, kNextDrain };

// ConvergenceConfig::fault_shard values relative to the view's host shard.
constexpr int kHostShard = -1;
constexpr int kBesideHost = -2;  // the shard after the host

struct ConvergenceConfig {
  std::string name;
  uint32_t shards = 1;  // > 1 runs a cache-less ShardedWarehouse
  Warehouse::CacheMode cache = Warehouse::CacheMode::kNone;
  bool batched = false;
  Heal heal = Heal::kResync;
  // The view "WV": its definition with ROOT for the source root, or empty
  // for the §4 tree view; and the shard whose channel (at K>1) the fault
  // injector sits on — an index, kHostShard or kBesideHost.
  std::string definition;
  int fault_shard = 1;
};

// One warehouse of either shape behind the calls the check needs.
class Deployment {
 public:
  explicit Deployment(uint32_t shards) {
    if (shards > 1) {
      sharded_ = std::make_unique<ShardedWarehouse>(shards);
    } else {
      plain_ = std::make_unique<Warehouse>(&store_);
    }
  }

  Status Connect(ObjectStore* source, const Oid& root) {
    return sharded_ != nullptr
               ? sharded_->ConnectSource(source, root,
                                         ReportingLevel::kWithValues)
               : plain_->ConnectSource(source, root,
                                       ReportingLevel::kWithValues);
  }
  Status Define(const std::string& definition, Warehouse::CacheMode cache) {
    return sharded_ != nullptr ? sharded_->DefineView(definition)
                               : plain_->DefineView(definition, cache);
  }
  Status SetFaultInjector(FaultInjector* injector, uint32_t shard) {
    return sharded_ != nullptr
               ? sharded_->SetFaultInjector("source1", shard, injector)
               : plain_->SetFaultInjector("source1", injector);
  }
  void set_deferred(bool deferred) {
    if (sharded_ != nullptr) {
      sharded_->set_deferred(deferred);
    } else {
      plain_->set_deferred(deferred);
    }
  }
  Status Drain() {
    return sharded_ != nullptr ? sharded_->ProcessPendingBatch(4)
                               : plain_->ProcessPendingBatch();
  }
  Status Resync() {
    return sharded_ != nullptr ? sharded_->ResyncStaleViews()
                               : plain_->ResyncStaleViews();
  }
  size_t stale_view_count() const {
    return sharded_ != nullptr ? sharded_->stale_view_count()
                               : plain_->stale_view_count();
  }
  // Summed over shards, like the status below.
  size_t buffered_stale_events() {
    size_t total = 0;
    ForEachWarehouse(
        [&](Warehouse& w) { total += w.buffered_stale_events(); });
    return total;
  }
  Status last_status() {
    Status first;
    ForEachWarehouse([&](Warehouse& w) {
      if (first.ok()) first = w.last_status();
    });
    return first;
  }
  std::vector<std::pair<Oid, std::string>> Lines(const std::string& view) {
    return sharded_ != nullptr ? sharded_->ViewContents(view)
                               : ViewContentLines(*plain_->view(view));
  }
  Warehouse* plain() { return plain_.get(); }

 private:
  template <typename Fn>
  void ForEachWarehouse(Fn fn) {
    if (plain_ != nullptr) fn(*plain_);
    if (sharded_ == nullptr) return;
    for (uint32_t i = 0; i < sharded_->shard_count(); ++i) {
      fn(sharded_->shard(i));
    }
  }

  ObjectStore store_;
  std::unique_ptr<Warehouse> plain_;
  std::unique_ptr<ShardedWarehouse> sharded_;
};

void RunConvergenceCheck(const ConvergenceConfig& config,
                         uint64_t fault_seed = 97,
                         uint64_t stream_seed = 211) {
  SCOPED_TRACE(config.name + " fault seed " + std::to_string(fault_seed) +
               " stream seed " + std::to_string(stream_seed));
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.seed = 101;

  ObjectStore source_a;  // perfect channel
  ObjectStore source_b;  // faulty channel
  auto tree_a = GenerateTree(&source_a, tree_options);
  auto tree_b = GenerateTree(&source_b, tree_options);
  ASSERT_TRUE(tree_a.ok());
  ASSERT_TRUE(tree_b.ok());
  ASSERT_EQ(tree_a->root, tree_b->root);
  const bool general = !config.definition.empty();
  std::string definition = TreeViewDefinition("WV", tree_a->root, 2, 3, 50);
  if (general) {
    definition = config.definition;
    definition.replace(definition.find("ROOT"), 4, tree_a->root.str());
  }
  uint32_t fault_shard = static_cast<uint32_t>(config.fault_shard);
  if (config.fault_shard < 0) {
    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok()) << def.status().ToString();
    const uint32_t host = HostShardOf(*def, config.shards - 1);
    fault_shard = config.fault_shard == kHostShard
                      ? host
                      : (host + 1) % config.shards;
  }

  // Fault-free twins: one of the same shape, plus a K=1 one at K>1.
  std::vector<std::unique_ptr<Deployment>> clean;
  clean.push_back(std::make_unique<Deployment>(config.shards));
  if (config.shards > 1) clean.push_back(std::make_unique<Deployment>(1));
  for (auto& twin : clean) {
    ASSERT_TRUE(twin->Connect(&source_a, tree_a->root).ok());
    ASSERT_TRUE(twin->Define(definition, config.cache).ok());
    twin->set_deferred(config.batched);
  }

  Deployment faulty(config.shards);
  ASSERT_TRUE(faulty.Connect(&source_b, tree_b->root).ok());
  ASSERT_TRUE(faulty.Define(definition, config.cache).ok());

  FaultProfile profile;
  profile.seed = fault_seed;
  profile.wrapper_fail_rate = 0.05;
  profile.wrapper_fail_burst = 6;  // longer than the retry budget
  profile.event_drop_rate = 0.05;
  profile.event_duplicate_rate = 0.05;
  FaultInjector injector(profile);
  ASSERT_TRUE(faulty.SetFaultInjector(&injector, fault_shard).ok());
  faulty.set_deferred(config.batched);

  UpdateGenOptions gen_options;
  gen_options.seed = stream_seed;
  UpdateGenerator gen_a(&source_a, tree_a->root, gen_options);
  UpdateGenerator gen_b(&source_b, tree_b->root, gen_options);
  auto step = [&](size_t updates) {
    ASSERT_TRUE(gen_a.Run(updates).ok());
    ASSERT_TRUE(gen_b.Run(updates).ok());
    if (config.batched) {
      for (auto& twin : clean) ASSERT_TRUE(twin->Drain().ok());
      ASSERT_TRUE(faulty.Drain().ok()) << faulty.last_status().ToString();
    }
    // Faults never abort maintenance — they quarantine.
    ASSERT_TRUE(faulty.last_status().ok()) << faulty.last_status().ToString();
  };

  const size_t kUpdates = 600;
  const size_t kDrainEvery = 50;
  for (size_t applied = 0; applied < kUpdates; applied += kDrainEvery) {
    ASSERT_NO_FATAL_FAILURE(step(kDrainEvery));
  }

  // The faulty run must actually have seen faults, or this test is vacuous.
  EXPECT_GT(injector.events_dropped() + injector.events_duplicated() +
                injector.wrapper_faults(),
            0);

  // Recovery: heal the channel, then resync whatever quarantined —
  // explicitly, or in the drains that follow (their prologue probe fails
  // fast while the circuit breaker is still open, so allow a few).
  injector.Heal();
  if (config.heal == Heal::kResync) {
    ASSERT_TRUE(faulty.Resync().ok());
  } else {
    for (int round = 0; round < 12 && faulty.stale_view_count() > 0;
         ++round) {
      ASSERT_NO_FATAL_FAILURE(step(5));
    }
  }
  EXPECT_EQ(faulty.stale_view_count(), 0u);
  EXPECT_EQ(faulty.buffered_stale_events(), 0u);

  // Byte-identical convergence with the fault-free twins and with a
  // recompute over the final source state.
  const auto lines = faulty.Lines("WV");
  for (auto& twin : clean) EXPECT_EQ(lines, twin->Lines("WV"));
  ObjectStore recompute_store;
  Warehouse recompute(&recompute_store);
  ASSERT_TRUE(recompute
                  .ConnectSource(&source_b, tree_b->root,
                                 ReportingLevel::kWithValues)
                  .ok());
  ASSERT_TRUE(recompute.DefineView(definition).ok());
  const auto truth = ViewContentLines(*recompute.view("WV"));
  ASSERT_EQ(lines.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(lines[i], truth[i]) << truth[i].first.str();
  }
  if (faulty.plain() != nullptr) {
    ConsistencyReport report =
        CheckViewConsistency(*faulty.plain()->view("WV"), source_b);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }
}

TEST(FaultConvergenceTest, PerEventNoCache) {
  RunConvergenceCheck({"per-event/no-cache", 1, Warehouse::CacheMode::kNone,
                       /*batched=*/false});
}

TEST(FaultConvergenceTest, PerEventFullCache) {
  RunConvergenceCheck({"per-event/full-cache", 1,
                       Warehouse::CacheMode::kFull, /*batched=*/false});
}

TEST(FaultConvergenceTest, BatchedNoCache) {
  RunConvergenceCheck({"batched/no-cache", 1, Warehouse::CacheMode::kNone,
                       /*batched=*/true});
}

TEST(FaultConvergenceTest, BatchedFullCache) {
  RunConvergenceCheck({"batched/full-cache", 1, Warehouse::CacheMode::kFull,
                       /*batched=*/true});
}

TEST(FaultConvergenceTest, BatchedFullCacheHealsOnNextDrain) {
  RunConvergenceCheck({"batched/full-cache/next-drain", 1,
                       Warehouse::CacheMode::kFull, /*batched=*/true,
                       Heal::kNextDrain});
}

// At K=4 one fault schedule heals cleanly more often than not, so each
// case runs a fixed set of seeded trials; a shard heal that misses updates
// its peers' delegates never saw shows up in a few of them. So does, at
// any K, a §6 drain that re-applies its batch after a prologue resync.
void RunSeededTrials(const ConvergenceConfig& config) {
  for (uint64_t trial = 1; trial <= 20; ++trial) {
    RunConvergenceCheck(config, trial, 300 + trial);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FaultConvergenceTest, FourShardsPerEvent) {
  RunSeededTrials({"k4/per-event", 4, Warehouse::CacheMode::kNone,
                   /*batched=*/false});
}

TEST(FaultConvergenceTest, FourShardsBatched) {
  RunSeededTrials({"k4/batched", 4, Warehouse::CacheMode::kNone,
                   /*batched=*/true});
}

TEST(FaultConvergenceTest, FourShardsBatchedHealsOnNextDrain) {
  RunSeededTrials({"k4/batched/next-drain", 4, Warehouse::CacheMode::kNone,
                   /*batched=*/true, Heal::kNextDrain});
}

// A §6 view: its discrimination network sees every event. At K=4 it runs
// on the view's host, which gets its own events plus the ones forwarded to
// it. A fault on the host's channel loses or repeats events the network
// needs; one beside the host stales a plain slice the host's ops maintain.
const char kGeneralView[] =
    "define mview WV as: SELECT ROOT.* X WHERE X.age <= 50";

TEST(FaultConvergenceTest, GeneralViewPerEvent) {
  RunSeededTrials({"gdn/per-event", 1, Warehouse::CacheMode::kNone,
                   /*batched=*/false, Heal::kResync, kGeneralView});
}

TEST(FaultConvergenceTest, GeneralViewBatched) {
  RunSeededTrials({"gdn/batched", 1, Warehouse::CacheMode::kNone,
                   /*batched=*/true, Heal::kResync, kGeneralView});
}

TEST(FaultConvergenceTest, FourShardsGeneralViewHostPerEvent) {
  RunSeededTrials({"k4/gdn/host/per-event", 4, Warehouse::CacheMode::kNone,
                   /*batched=*/false, Heal::kResync, kGeneralView,
                   kHostShard});
}

TEST(FaultConvergenceTest,
     FourShardsGeneralViewHostPerEventHealsOnNextEvents) {
  RunSeededTrials({"k4/gdn/host/per-event/next-drain", 4,
                   Warehouse::CacheMode::kNone, /*batched=*/false,
                   Heal::kNextDrain, kGeneralView, kHostShard});
}

TEST(FaultConvergenceTest, FourShardsGeneralViewHostBatched) {
  RunSeededTrials({"k4/gdn/host/batched", 4, Warehouse::CacheMode::kNone,
                   /*batched=*/true, Heal::kResync, kGeneralView,
                   kHostShard});
}

TEST(FaultConvergenceTest, FourShardsGeneralViewHostBatchedHealsOnNextDrain) {
  RunSeededTrials({"k4/gdn/host/batched/next-drain", 4,
                   Warehouse::CacheMode::kNone, /*batched=*/true,
                   Heal::kNextDrain, kGeneralView, kHostShard});
}

TEST(FaultConvergenceTest, FourShardsGeneralViewBesideHostPerEvent) {
  RunSeededTrials({"k4/gdn/beside-host/per-event", 4,
                   Warehouse::CacheMode::kNone, /*batched=*/false,
                   Heal::kResync, kGeneralView, kBesideHost});
}

TEST(FaultConvergenceTest,
     FourShardsGeneralViewBesideHostPerEventHealsOnNextEvents) {
  RunSeededTrials({"k4/gdn/beside-host/per-event/next-drain", 4,
                   Warehouse::CacheMode::kNone, /*batched=*/false,
                   Heal::kNextDrain, kGeneralView, kBesideHost});
}

TEST(FaultConvergenceTest, FourShardsGeneralViewBesideHostBatched) {
  RunSeededTrials({"k4/gdn/beside-host/batched", 4,
                   Warehouse::CacheMode::kNone, /*batched=*/true,
                   Heal::kResync, kGeneralView, kBesideHost});
}

TEST(FaultConvergenceTest,
     FourShardsGeneralViewBesideHostBatchedHealsOnNextDrain) {
  RunSeededTrials({"k4/gdn/beside-host/batched/next-drain", 4,
                   Warehouse::CacheMode::kNone, /*batched=*/true,
                   Heal::kNextDrain, kGeneralView, kBesideHost});
}

}  // namespace
}  // namespace gsv
