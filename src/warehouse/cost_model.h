#ifndef GSV_WAREHOUSE_COST_MODEL_H_
#define GSV_WAREHOUSE_COST_MODEL_H_

#include "util/counters.h"

namespace gsv {

// Warehouse-side cost accounting (§5.1: "querying the sources ... is
// expensive. Sending queries and answers consumes time and network
// bandwidth"). Every interaction between the warehouse and a source passes
// through SourceWrapper, which meters it here; the reporting-level and
// caching experiments (E3, E4, E7) read these counters.
//
// Only warehouse-owned work is metered here. Counters other components own
// stay with their owner: discrimination-network upkeep in GdnEngine::Stats
// (Warehouse::gdn_engine), paging and swizzling in the delegate store's
// StoreMetrics, and corridor index probes in each cache store's metrics.
//
// Relaxed atomics: one cost sheet is shared by every view of a warehouse,
// and the batch engine meters from several workers concurrently. Totals
// stay exact; cross-counter ordering is not guaranteed mid-batch. A sharded
// warehouse keeps one sheet per shard; explain and the benches Merge them
// so reported totals cover the whole warehouse, not shard 0.
//
// `events_local_only` is counted per drain: when a drain's evaluation (its
// resync prologue and phases 1-3, not the batch-level sweep) sent the
// sources no query, every event of the batch routed to this shard counts
// (a host shard's forwarded copies for its networks do not, as for
// `events_received`). That is exact for an inline event, which is a drain
// of one, and a lower bound for a larger batch, where one query-back voids
// the count for all its events.
//
// One row per counter: X(field, ToString key, print group, merge kind).
#define GSV_WAREHOUSE_COSTS(X)                                                 \
  /* Event traffic. */                                                         \
  X(events_received, "events", kBase, kSum)                                    \
  X(events_screened_out, "screened", kBase, kSum) /* screening (§5.1) */       \
  X(events_local_only, "local_only", kBase, kSum) /* no source queries */      \
  X(events_coalesced, "coalesced", kBase, kSum)   /* cut by the drain */       \
  /* Query-backs to sources. */                                                \
  X(source_queries, "queries", kBase, kSum)          /* round trips */         \
  X(objects_shipped, "objects_shipped", kBase, kSum) /* objects in answers */  \
  X(values_shipped, "values_shipped", kBase, kSum)   /* bytes proxy */         \
  /* Auxiliary-structure upkeep (§5.2). */                                     \
  X(cache_maintenance_queries, "cache_queries", kBase, kSum)                   \
  X(cache_hits, "cache_hits", kBase, kSum)     /* from cache/event */          \
  X(cache_misses, "cache_misses", kBase, kSum) /* had to query the source */   \
  /* Fault tolerance: sequenced delivery, retries, quarantine health. */       \
  X(events_duplicate_dropped, "dup_dropped", kHealth, kSum) /* redelivery */   \
  X(events_gap_detected, "gaps", kHealth, kSum) /* lost deliveries seen */     \
  X(events_buffered_stale, "buffered_stale", kHealth, kSum) /* stale skips */  \
  X(wrapper_retries, "retries", kHealth, kSum) /* extra tries after faults */  \
  X(wrapper_failures, "wrapper_failures", kHealth, kSum) /* after retries */   \
  X(breaker_trips, "breaker_trips", kHealth, kSum) /* now open */              \
  X(breaker_rejections, "breaker_rejections", kHealth, kSum) /* while open */  \
  X(views_quarantined, "quarantined", kHealth, kSum) /* fresh -> stale */      \
  X(view_resyncs, "resyncs", kHealth, kSum)          /* successful resyncs */  \
  X(resync_failures, "resync_failures", kHealth, kSum) /* resync died */       \
  /* Cross-shard maintenance (sharded warehouse only; zero otherwise). */      \
  X(cross_shard_exports, "xshard_exports", kCrossShard, kSum) /* to peers */   \
  X(cross_shard_applies, "xshard_applies", kCrossShard, kSum) /* from peers */ \
  X(cross_shard_probes, "xshard_probes", kCrossShard, kSum) /* foreign reads */

struct WarehouseCosts {
  GSV_COUNTER_SHEET(WarehouseCosts, GSV_WAREHOUSE_COSTS)
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_COST_MODEL_H_
