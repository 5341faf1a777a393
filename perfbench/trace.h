#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Harness-level tracing for the pipeline benchmark: one span around each
// public call the harness makes into the library, with the public counter
// sheets sampled at the span's two boundaries. Everything stays in memory
// until the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The public calls the harness times.
enum class SpanKind : uint8_t {
  kIngest,      // source-store mutations (monitor hook queues the events)
  kDrain,       // ProcessPendingBatch: screening, engines, WAL commit
  kCheckpoint,  // WriteCheckpoint
  kShip,        // follower Poll
  kRead,        // one user read of a view
  kRecover,     // restart from a durable home
  kDefine,      // ConnectSource + EnableDurability + DefineView
  kSeed,        // follower Start (checkpoint seed)
  kCount,
};

inline const char* SpanName(SpanKind kind) {
  static const char* const kNames[] = {"ingest", "drain",  "checkpoint",
                                       "ship",   "read",   "recover",
                                       "define", "seed"};
  return kNames[static_cast<size_t>(kind)];
}

// Counter slots sampled from the public sheets (WarehouseCosts,
// StoreMetrics, Algorithm1Maintainer::Stats, GdnEngine::Stats, Wal,
// DurabilityStats, ReplicaStats). Values are cumulative; spans keep deltas.
enum Counter : size_t {
  kSrcEdges,        // source StoreMetrics::edges_traversed
  kSrcProbes,       // source StoreMetrics::index_probes
  kSrcFallbacks,    // source StoreMetrics::index_fallbacks
  kEventsReceived,  // WarehouseCosts
  kScreenedOut,
  kCoalesced,
  kSourceQueries,
  kObjectsShipped,
  kCacheHits,
  kCacheMisses,
  kCrossShardExports,
  kAlgUpdates,  // Algorithm1Maintainer::Stats, summed over views
  kAlgMatched,
  kAlgRechecks,
  kAlgDeltas,        // v_inserts + v_deletes
  kGdnPropagations,  // GdnEngine::Stats, summed over views
  kGdnCreated,
  kGdnFreed,
  kDelegateLookups,  // delegate StoreMetrics (merged over shards)
  kPageFaults,
  kPageEvictions,
  kWritebackBytes,
  kSwizzleHits,
  kSwizzleMisses,
  kWalBytes,    // Wal::bytes_written, summed over homes
  kWalRecords,  // Wal::records_appended
  kCommits,     // DurabilityStats::commits_logged
  kMirrored,    // ReplicaStats::bytes_mirrored, summed over shards
  kFollowerLookups,  // follower stores' StoreMetrics::lookups
  kCounterCount,
};

using Counters = std::array<int64_t, kCounterCount>;

struct Span {
  SpanKind kind = SpanKind::kIngest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Index of the enclosing span; -1 at top level. Each harness span wraps
  // one public call and none nests in another, so all are top level here.
  int32_t parent = -1;
  int64_t batch = -1;   // steady-phase batch id; -1 outside it
  Counters delta{};     // sheet movement between the two boundaries
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  // Records a finished span.
  void Add(SpanKind kind, int64_t start_ns, int64_t end_ns, int64_t batch,
           const Counters& before, const Counters& after) {
    Span span;
    span.kind = kind;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.batch = batch;
    for (size_t i = 0; i < kCounterCount; ++i) {
      span.delta[i] = after[i] - before[i];
    }
    spans_.push_back(span);
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
