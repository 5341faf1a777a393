#ifndef GSV_CORE_BUFFERED_VIEW_H_
#define GSV_CORE_BUFFERED_VIEW_H_

#include <unordered_map>
#include <vector>

#include "core/view_delta.h"
#include "core/view_storage.h"
#include "oem/object.h"
#include "oem/oid.h"
#include "oem/update.h"
#include "util/status.h"

namespace gsv {

// A write-buffering ViewStorage decorator for parallel batch maintenance.
//
// A maintenance worker evaluates its share of a batch against a frozen base
// and records the resulting view operations here instead of touching the
// real view: membership questions are answered through an overlay on top of
// the wrapped (read-only) storage, so the worker observes its own effects,
// while the wrapped view — and the shared delegate store underneath it —
// stays untouched until the single-threaded ReplayInto after the barrier.
// This is what lets independent views and independent subtrees of one view
// evaluate concurrently without any locking on the delegate store.
//
// Workers on *different* buffers never see each other's operations. That is
// sound for batch maintenance because every worker evaluates against the
// same frozen final base state, so any two workers that reach the same
// selected object reach the same verdict about it; replaying their op logs
// in any per-buffer order yields the same view (duplicate V_insert/V_delete
// are no-ops, §4.3).
class BufferedViewStorage : public ViewStorage {
 public:
  // `base` must outlive the buffer and not change while it is in use.
  explicit BufferedViewStorage(const ViewStorage* base) : base_(base) {}

  // ---- ViewStorage ----
  const Oid& view_oid() const override { return base_->view_oid(); }
  bool ContainsBase(const Oid& base_oid) const override;
  Status VInsert(const Object& base_object) override;
  Status VDelete(const Oid& base_oid) override;
  OidSet BaseMembers() const override;
  Status SyncUpdate(const Update& update) override;

  // Applies the recorded operations to `target` in order. Returns the first
  // error but keeps applying (a batch must not half-stop).
  Status ReplayInto(ViewStorage* target) const;

  const std::vector<ViewDelta>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

 private:
  const ViewStorage* base_;
  // Membership decisions made by this worker (true = inserted, false =
  // deleted); absent means "whatever the wrapped view says".
  std::unordered_map<Oid, bool, OidHash> overlay_;
  std::vector<ViewDelta> ops_;
};

}  // namespace gsv

#endif  // GSV_CORE_BUFFERED_VIEW_H_
