#ifndef GSV_WAREHOUSE_COST_MODEL_H_
#define GSV_WAREHOUSE_COST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace gsv {

// Warehouse-side cost accounting (§5.1: "querying the sources ... is
// expensive. Sending queries and answers consumes time and network
// bandwidth"). Every interaction between the warehouse and a source passes
// through SourceWrapper, which meters it here; the reporting-level and
// caching experiments (E3, E4, E7) read these counters.
//
// Relaxed atomics: one cost sheet is shared by every view of a warehouse,
// and the batch engine meters from several workers concurrently. Totals
// stay exact; cross-counter ordering is not guaranteed mid-batch.
struct WarehouseCosts {
  // Event traffic.
  std::atomic<int64_t> events_received{0};
  std::atomic<int64_t> events_screened_out{0};  // dropped by screening (§5.1)
  std::atomic<int64_t> events_local_only{0};  // served without source queries
  std::atomic<int64_t> events_coalesced{0};   // cancelled/merged by batching

  // Query-backs to sources.
  std::atomic<int64_t> source_queries{0};   // round trips
  std::atomic<int64_t> objects_shipped{0};  // objects in answers
  std::atomic<int64_t> values_shipped{0};   // atomic values (bytes proxy)

  // Auxiliary-structure upkeep (§5.2).
  std::atomic<int64_t> cache_maintenance_queries{0};
  std::atomic<int64_t> cache_hits{0};    // answered from cache/event
  std::atomic<int64_t> cache_misses{0};  // had to query the source
  std::atomic<int64_t> index_probes{0};      // corridor posting scans
  std::atomic<int64_t> index_fallbacks{0};   // corridor traversal fallbacks

  // Fault tolerance: sequenced delivery, retries, quarantine health.
  std::atomic<int64_t> events_duplicate_dropped{0};  // redelivery, idempotent
  std::atomic<int64_t> events_gap_detected{0};   // lost deliveries observed
  std::atomic<int64_t> events_buffered_stale{0}; // held for post-resync replay
  std::atomic<int64_t> wrapper_retries{0};       // extra attempts after faults
  std::atomic<int64_t> wrapper_failures{0};      // calls failed after retries
  std::atomic<int64_t> breaker_trips{0};         // closed/half-open -> open
  std::atomic<int64_t> breaker_rejections{0};    // fail-fast while open
  std::atomic<int64_t> views_quarantined{0};     // fresh -> stale transitions
  std::atomic<int64_t> view_resyncs{0};          // successful resyncs
  std::atomic<int64_t> resync_failures{0};       // resync attempts that died

  // Cross-shard maintenance (sharded warehouse only; zero otherwise).
  std::atomic<int64_t> cross_shard_exports{0};  // view ops routed to peers
  std::atomic<int64_t> cross_shard_applies{0};  // peer ops applied here
  std::atomic<int64_t> cross_shard_probes{0};   // foreign membership lookups

  // Discrimination networks (§6 view classes; zero when every view is
  // simple). Flushed from the networks' stats at storage quiescent points.
  std::atomic<int64_t> gdn_propagations{0};     // support edges added/removed
  std::atomic<int64_t> gdn_matches_created{0};  // partial matches born
  std::atomic<int64_t> gdn_matches_freed{0};    // partial matches killed
  std::atomic<int64_t> gdn_rebuilds{0};         // full network (re)builds

  // Delegate/cache store buffer pool (paged storage engine; zero on the
  // memory engine). Flushed from StoreMetrics at storage quiescent points
  // so maintenance cost sheets show the paging a drain actually caused.
  std::atomic<int64_t> store_page_faults{0};
  std::atomic<int64_t> store_page_evictions{0};
  std::atomic<int64_t> store_writeback_bytes{0};
  std::atomic<int64_t> store_swizzle_hits{0};    // reads via direct pointer
  std::atomic<int64_t> store_swizzle_misses{0};  // reads via route+probe

  WarehouseCosts() = default;
  WarehouseCosts(const WarehouseCosts& other) { *this = other; }
  WarehouseCosts& operator=(const WarehouseCosts& other) {
    events_received = other.events_received.load(std::memory_order_relaxed);
    events_screened_out =
        other.events_screened_out.load(std::memory_order_relaxed);
    events_local_only =
        other.events_local_only.load(std::memory_order_relaxed);
    events_coalesced =
        other.events_coalesced.load(std::memory_order_relaxed);
    source_queries = other.source_queries.load(std::memory_order_relaxed);
    objects_shipped = other.objects_shipped.load(std::memory_order_relaxed);
    values_shipped = other.values_shipped.load(std::memory_order_relaxed);
    cache_maintenance_queries =
        other.cache_maintenance_queries.load(std::memory_order_relaxed);
    cache_hits = other.cache_hits.load(std::memory_order_relaxed);
    cache_misses = other.cache_misses.load(std::memory_order_relaxed);
    index_probes = other.index_probes.load(std::memory_order_relaxed);
    index_fallbacks =
        other.index_fallbacks.load(std::memory_order_relaxed);
    events_duplicate_dropped =
        other.events_duplicate_dropped.load(std::memory_order_relaxed);
    events_gap_detected =
        other.events_gap_detected.load(std::memory_order_relaxed);
    events_buffered_stale =
        other.events_buffered_stale.load(std::memory_order_relaxed);
    wrapper_retries = other.wrapper_retries.load(std::memory_order_relaxed);
    wrapper_failures = other.wrapper_failures.load(std::memory_order_relaxed);
    breaker_trips = other.breaker_trips.load(std::memory_order_relaxed);
    breaker_rejections =
        other.breaker_rejections.load(std::memory_order_relaxed);
    views_quarantined =
        other.views_quarantined.load(std::memory_order_relaxed);
    view_resyncs = other.view_resyncs.load(std::memory_order_relaxed);
    resync_failures = other.resync_failures.load(std::memory_order_relaxed);
    cross_shard_exports =
        other.cross_shard_exports.load(std::memory_order_relaxed);
    cross_shard_applies =
        other.cross_shard_applies.load(std::memory_order_relaxed);
    cross_shard_probes =
        other.cross_shard_probes.load(std::memory_order_relaxed);
    gdn_propagations =
        other.gdn_propagations.load(std::memory_order_relaxed);
    gdn_matches_created =
        other.gdn_matches_created.load(std::memory_order_relaxed);
    gdn_matches_freed =
        other.gdn_matches_freed.load(std::memory_order_relaxed);
    gdn_rebuilds = other.gdn_rebuilds.load(std::memory_order_relaxed);
    store_page_faults =
        other.store_page_faults.load(std::memory_order_relaxed);
    store_page_evictions =
        other.store_page_evictions.load(std::memory_order_relaxed);
    store_writeback_bytes =
        other.store_writeback_bytes.load(std::memory_order_relaxed);
    store_swizzle_hits =
        other.store_swizzle_hits.load(std::memory_order_relaxed);
    store_swizzle_misses =
        other.store_swizzle_misses.load(std::memory_order_relaxed);
    return *this;
  }

  void Reset() { *this = WarehouseCosts(); }

  // Adds `other`'s counters into this sheet (relaxed loads and adds). A
  // sharded warehouse keeps one sheet per shard; explain and the benches
  // merge them so reported totals cover the whole warehouse, not shard 0.
  WarehouseCosts& Merge(const WarehouseCosts& other);

  std::string ToString() const;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_COST_MODEL_H_
