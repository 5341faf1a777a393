#ifndef GSV_WAREHOUSE_UPDATE_BATCH_H_
#define GSV_WAREHOUSE_UPDATE_BATCH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "warehouse/update_event.h"

namespace gsv {

// A batch of source update events awaiting maintenance. The warehouse
// coalesces the batch before fanning it out to the views, so redundant
// traffic from a bursty source is paid once instead of once per view. This
// is the warehouse's only coalescer; every deferred drain runs it:
//
//  * an insert(P,C) and a later delete(P,C) of the same edge at the same
//    source cancel (and symmetrically delete-then-insert) — the net effect
//    on the final source state is nil, and batch maintenance evaluates
//    against that final state — unless an event between the two names P,
//    as parent or as child. Such an event may carry a snapshot of P that
//    holds the transient edge; a delegate built from it would keep C, and
//    with the pair gone no sync would ever take C out;
//  * consecutive-in-batch modifies of the same object merge last-writer-
//    wins: the survivor keeps the newest snapshot and new value, and the
//    oldest old value, preserving the net transition.
//
// Events of different sources never interact. The relative order of
// surviving events is preserved.
class UpdateBatch {
 public:
  UpdateBatch() = default;

  void Add(size_t source_index, UpdateEvent event) {
    events_.emplace_back(source_index, std::move(event));
  }

  // Bulk-load (e.g. a drained pending queue).
  void Add(std::vector<std::pair<size_t, UpdateEvent>> events);

  // Applies the cancellation/merge rules above; returns the number of
  // events eliminated.
  size_t Coalesce();

  const std::vector<std::pair<size_t, UpdateEvent>>& events() const {
    return events_;
  }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<std::pair<size_t, UpdateEvent>> events_;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_UPDATE_BATCH_H_
