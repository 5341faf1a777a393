#ifndef GSV_WAREHOUSE_WRAPPER_H_
#define GSV_WAREHOUSE_WRAPPER_H_

#include <mutex>
#include <vector>

#include "oem/store.h"
#include "path/path.h"
#include "util/retry.h"
#include "util/status.h"
#include "warehouse/cost_model.h"
#include "warehouse/fault_injector.h"

namespace gsv {

// The source wrapper of Figure 6: "the wrapper also translates queries from
// the warehouse to the native queries of the data source and sends the
// results back." Every method is one round trip; results are metered into
// WarehouseCosts (§5.1's fetch-style interface of Example 9).
//
// Round trips are fallible: a FaultInjector (when installed) models the
// unreliable channel / unavailable source, every call is admitted through a
// bounded-exponential-backoff retry policy, and consecutive failures trip a
// per-source circuit breaker that fails fast until the source proves healthy
// again (Probe). Without an injector the admission path is a single branch.
class SourceWrapper {
 public:
  // `source` is the wrapped source store; `costs` is the warehouse's cost
  // sheet. Both must outlive the wrapper.
  SourceWrapper(const ObjectStore* source, WarehouseCosts* costs)
      : source_(source), costs_(costs) {}

  // fetch X where oid(X) = oid — one object with label and value.
  Result<Object> FetchObject(const Oid& oid);

  // fetch X where path(X, y) = p (Example 9's ancestor query).
  Result<std::vector<Oid>> FetchAncestors(const Oid& y, const Path& p);

  // fetch X where path(n, X) = p — all objects in n.p, with values
  // (Example 9: "obtain all objects in N.p, then test cond() locally").
  Result<std::vector<Object>> FetchPathObjects(const Oid& n, const Path& p);

  // Boolean probe: does path(root, y) include exactly p?
  Result<bool> VerifyPath(const Oid& root, const Oid& y, const Path& p);

  // Health check: one admitted no-op round trip. Ok => the source answered.
  // With `force`, bypasses the open-breaker fail-fast (used by explicit
  // resync requests) but still consults the injector, so a genuinely down
  // source stays down; success closes the breaker.
  Status Probe(bool force = false);

  // Install (or remove, with nullptr) the deterministic fault model for
  // this source's channel. The injector must outlive the wrapper or be
  // detached before destruction.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  void set_breaker_options(const CircuitBreaker::Options& options);
  CircuitBreaker::State breaker_state() const;

  const ObjectStore& source() const { return *source_; }
  WarehouseCosts* costs() const { return costs_; }

 private:
  // Admission control for one round trip: breaker fail-fast, injected
  // faults, retry with backoff, breaker bookkeeping. Returns Ok when the
  // call may proceed against the source store.
  Status Admit(const char* op, bool force = false);

  void MeterShipment(size_t objects, size_t values);

  const ObjectStore* source_;
  WarehouseCosts* costs_;

  // Batch workers share one wrapper across threads; the fault machinery is
  // serialized. The common injector-free path never takes the lock.
  mutable std::mutex fault_mutex_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_policy_;
  CircuitBreaker breaker_;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_WRAPPER_H_
