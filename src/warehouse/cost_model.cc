#include "warehouse/cost_model.h"

#include <sstream>

namespace gsv {

namespace {
void Accumulate(std::atomic<int64_t>* into, const std::atomic<int64_t>& from) {
  into->fetch_add(from.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}
}  // namespace

WarehouseCosts& WarehouseCosts::Merge(const WarehouseCosts& other) {
  Accumulate(&events_received, other.events_received);
  Accumulate(&events_screened_out, other.events_screened_out);
  Accumulate(&events_local_only, other.events_local_only);
  Accumulate(&events_coalesced, other.events_coalesced);
  Accumulate(&source_queries, other.source_queries);
  Accumulate(&objects_shipped, other.objects_shipped);
  Accumulate(&values_shipped, other.values_shipped);
  Accumulate(&cache_maintenance_queries, other.cache_maintenance_queries);
  Accumulate(&cache_hits, other.cache_hits);
  Accumulate(&cache_misses, other.cache_misses);
  Accumulate(&index_probes, other.index_probes);
  Accumulate(&index_fallbacks, other.index_fallbacks);
  Accumulate(&events_duplicate_dropped, other.events_duplicate_dropped);
  Accumulate(&events_gap_detected, other.events_gap_detected);
  Accumulate(&events_buffered_stale, other.events_buffered_stale);
  Accumulate(&wrapper_retries, other.wrapper_retries);
  Accumulate(&wrapper_failures, other.wrapper_failures);
  Accumulate(&breaker_trips, other.breaker_trips);
  Accumulate(&breaker_rejections, other.breaker_rejections);
  Accumulate(&views_quarantined, other.views_quarantined);
  Accumulate(&view_resyncs, other.view_resyncs);
  Accumulate(&resync_failures, other.resync_failures);
  Accumulate(&cross_shard_exports, other.cross_shard_exports);
  Accumulate(&cross_shard_applies, other.cross_shard_applies);
  Accumulate(&cross_shard_probes, other.cross_shard_probes);
  Accumulate(&gdn_propagations, other.gdn_propagations);
  Accumulate(&gdn_matches_created, other.gdn_matches_created);
  Accumulate(&gdn_matches_freed, other.gdn_matches_freed);
  Accumulate(&gdn_rebuilds, other.gdn_rebuilds);
  Accumulate(&store_page_faults, other.store_page_faults);
  Accumulate(&store_page_evictions, other.store_page_evictions);
  Accumulate(&store_writeback_bytes, other.store_writeback_bytes);
  Accumulate(&store_swizzle_hits, other.store_swizzle_hits);
  Accumulate(&store_swizzle_misses, other.store_swizzle_misses);
  return *this;
}

std::string WarehouseCosts::ToString() const {
  std::ostringstream out;
  out << "events=" << events_received
      << " screened=" << events_screened_out
      << " local_only=" << events_local_only
      << " coalesced=" << events_coalesced
      << " queries=" << source_queries
      << " objects_shipped=" << objects_shipped
      << " values_shipped=" << values_shipped
      << " cache_queries=" << cache_maintenance_queries
      << " cache_hits=" << cache_hits
      << " cache_misses=" << cache_misses
      << " index_probes=" << index_probes
      << " index_fallbacks=" << index_fallbacks;
  // Health counters only appear once the fault-tolerance layer engaged, so
  // the common fault-free string stays short.
  if (events_duplicate_dropped > 0 || events_gap_detected > 0 ||
      events_buffered_stale > 0 || wrapper_failures > 0 ||
      wrapper_retries > 0 || breaker_trips > 0 || breaker_rejections > 0 ||
      views_quarantined > 0 || view_resyncs > 0 || resync_failures > 0) {
    out << " dup_dropped=" << events_duplicate_dropped
        << " gaps=" << events_gap_detected
        << " buffered_stale=" << events_buffered_stale
        << " retries=" << wrapper_retries
        << " wrapper_failures=" << wrapper_failures
        << " breaker_trips=" << breaker_trips
        << " breaker_rejections=" << breaker_rejections
        << " quarantined=" << views_quarantined
        << " resyncs=" << view_resyncs
        << " resync_failures=" << resync_failures;
  }
  if (cross_shard_exports > 0 || cross_shard_applies > 0 ||
      cross_shard_probes > 0) {
    out << " xshard_exports=" << cross_shard_exports
        << " xshard_applies=" << cross_shard_applies
        << " xshard_probes=" << cross_shard_probes;
  }
  // Engine counters only appear when a generalized engine ran, so simple
  // Algorithm 1 deployments (and every golden output) are unchanged.
  if (gdn_propagations > 0 || gdn_matches_created > 0 ||
      gdn_matches_freed > 0 || gdn_rebuilds > 0) {
    out << " gdn_propagations=" << gdn_propagations
        << " gdn_matches_created=" << gdn_matches_created
        << " gdn_matches_freed=" << gdn_matches_freed
        << " gdn_rebuilds=" << gdn_rebuilds;
  }
  // Paging counters only appear when a paged engine actually paged, so the
  // memory-engine string (and every golden output) is unchanged.
  if (store_page_faults > 0 || store_page_evictions > 0 ||
      store_writeback_bytes > 0) {
    out << " page_faults=" << store_page_faults
        << " page_evictions=" << store_page_evictions
        << " writeback_bytes=" << store_writeback_bytes;
  }
  if (store_swizzle_hits > 0 || store_swizzle_misses > 0) {
    out << " swizzle_hits=" << store_swizzle_hits
        << " swizzle_misses=" << store_swizzle_misses;
  }
  return out.str();
}

}  // namespace gsv
