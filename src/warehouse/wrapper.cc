#include "warehouse/wrapper.h"

#include "path/navigate.h"

namespace gsv {

void SourceWrapper::MeterShipment(size_t objects, size_t values) {
  ++costs_->source_queries;
  costs_->objects_shipped += static_cast<int64_t>(objects);
  costs_->values_shipped += static_cast<int64_t>(values);
}

void SourceWrapper::set_fault_injector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  injector_ = injector;
  breaker_.Reset();
}

void SourceWrapper::set_breaker_options(
    const CircuitBreaker::Options& options) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  breaker_ = CircuitBreaker(options);
}

CircuitBreaker::State SourceWrapper::breaker_state() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return breaker_.state();
}

Status SourceWrapper::Admit(const char* op, bool force) {
  // Fast path: a reliable channel. No lock, no breaker consultation — the
  // fault layer costs one branch when it is not in use.
  if (injector_ == nullptr) return Status::Ok();

  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (injector_ == nullptr) return Status::Ok();

  if (!force && !breaker_.AllowRequest()) {
    ++costs_->breaker_rejections;
    return Status::Unavailable(std::string("circuit open for ") + op);
  }

  RetryOutcome outcome;
  Status status = RetryWithBackoff(
      retry_policy_, [&] { return injector_->OnWrapperCall(op); }, &outcome);
  costs_->wrapper_retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;

  if (status.ok()) {
    breaker_.RecordSuccess();
    return status;
  }
  ++costs_->wrapper_failures;
  if (breaker_.RecordFailure()) ++costs_->breaker_trips;
  return status;
}

Status SourceWrapper::Probe(bool force) { return Admit("Probe", force); }

Result<Object> SourceWrapper::FetchObject(const Oid& oid) {
  GSV_RETURN_IF_ERROR(Admit("FetchObject"));
  const Object* object = source_->Get(oid);
  if (object == nullptr) {
    MeterShipment(0, 0);
    return Status::NotFound("source has no object " + oid.str());
  }
  MeterShipment(1, object->IsAtomic() ? 1 : 0);
  return *object;
}

Result<std::vector<Oid>> SourceWrapper::FetchAncestors(const Oid& y,
                                                       const Path& p) {
  GSV_RETURN_IF_ERROR(Admit("FetchAncestors"));
  std::vector<Oid> ancestors = AncestorsByPath(*source_, y, p);
  MeterShipment(ancestors.size(), 0);
  return ancestors;
}

Result<std::vector<Object>> SourceWrapper::FetchPathObjects(const Oid& n,
                                                            const Path& p) {
  GSV_RETURN_IF_ERROR(Admit("FetchPathObjects"));
  std::vector<Object> objects;
  size_t values = 0;
  for (const Oid& oid : EvalPath(*source_, n, p)) {
    const Object* object = source_->Get(oid);
    if (object == nullptr) continue;
    if (object->IsAtomic()) ++values;
    objects.push_back(*object);
  }
  MeterShipment(objects.size(), values);
  return objects;
}

Result<bool> SourceWrapper::VerifyPath(const Oid& root, const Oid& y,
                                       const Path& p) {
  GSV_RETURN_IF_ERROR(Admit("VerifyPath"));
  MeterShipment(1, 0);
  return HasPathFromTo(*source_, root, y, p);
}

}  // namespace gsv
