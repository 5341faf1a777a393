#ifndef GSV_WAREHOUSE_VIEW_ENGINE_H_
#define GSV_WAREHOUSE_VIEW_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/algorithm1.h"
#include "core/materialized_view.h"
#include "ivm/gdn_network.h"
#include "query/explain.h"
#include "util/retry.h"
#include "warehouse/aux_cache.h"
#include "warehouse/path_knowledge.h"
#include "warehouse/wrapper.h"

namespace gsv {

// The maintenance engine behind one warehouse view: every call the drain,
// the sweep, the resync, the recovery rebuild and the explain path make on
// a view's membership logic. Warehouse::BuildViewEntry picks the engine;
// nothing else asks which one a view holds. Three implementations:
//   * Algorithm1Engine — a simple view (§4.2): §5.1 screening, then
//     Algorithm 1 (§4.3) over a RemoteAccessor per drain task;
//   * MakeNetworkEngine — a §6 view on its discrimination network;
//   * MakeSliceEngine — a shard's part of a §6 view another shard hosts.
class ViewEngine {
 public:
  enum class Kind {
    kAlgorithm1,
    kGdn,
  };

  // What one event means to this view, decided from the event alone.
  enum class Verdict {
    kSkip,      // not this view's event here: no accounting at all
    kSync,      // screened out (§5.1): only delegate values sync
    kEvaluate,  // run maintenance
  };

  struct ScreenedEvent {
    const UpdateEvent* event;
    Verdict verdict;  // kSync or kEvaluate
  };

  // OK iff an engine can maintain `def`: Algorithm 1 a simple definition,
  // the network any other §6 shape but ANS INT.
  static Status Validate(const ViewDefinition& def);

  ViewEngine() = default;
  ViewEngine(const ViewEngine&) = delete;
  ViewEngine& operator=(const ViewEngine&) = delete;
  virtual ~ViewEngine() = default;
  virtual Kind kind() const = 0;

  // Called single-threaded, in batch order, before the view's stale
  // accounting and cache absorption.
  virtual Verdict Screen(const UpdateEvent& event) = 0;
  // Maintains one drain task's events (batch order) into `out`. Tasks of
  // one Splittable() view may run at once on the worker pool.
  virtual Status Apply(const std::vector<ScreenedEvent>& events,
                       ViewStorage* out) = 0;
  // True when a failed Apply must quarantine the view: its buffered deltas
  // then never replay, and the resync recompute + Heal repair it.
  virtual bool Quarantines(const Status& failure) const {
    return IsSourceFailure(failure);
  }
  // Seeds engine state from the current base (DefineView).
  virtual Status Initialize() { return Status::Ok(); }
  // Rebuilds engine state from the current base and fixes `out` to match
  // (a resync after its recompute; recovery after the load).
  virtual Status Heal(ViewStorage* /*out*/) { return Status::Ok(); }
  // The members a drain's evaluated `events` can have made underivable,
  // appended to `scope` (read-only; the drain navigates them before the
  // corridor cache prunes detached subtrees). The drain adds the members
  // its own V_inserts put in.
  virtual Status SweepScope(const std::vector<ScreenedEvent>& /*events*/,
                            std::vector<Oid>* /*scope*/) {
    return Status::Ok();
  }
  // The verification sweep, read-only and parallel across views: collects
  // the current members in `scope` (every member when null), in member
  // order, whose derivation no longer holds.
  virtual Status Sweep(const OidSet* /*scope*/,
                       std::vector<Oid>* /*doomed*/) {
    return Status::Ok();
  }
  // Whether a drain may split the events into independent root subtrees.
  virtual bool Splittable() const { return false; }
  // True when the engine must also see events routed to other shards; a
  // sharded coordinator forwards every event of the source here.
  virtual bool NeedsForwardedEvents() const { return false; }
  virtual void SetPathKnowledge(const PathKnowledge& /*knowledge*/) {}
  // Fills the engine name and its network counters.
  virtual void Explain(ShardedViewExplanation* out) const = 0;
  // The discrimination network this engine runs (null when none).
  virtual const GdnEngine* network() const { return nullptr; }
};

// A simple view in the §5 warehouse. Screening runs on the constant
// sel_path.cond_path corridor; Algorithm 1 asks the current event, then the
// §5.2 corridor cache (borrowed; may be null), then the source through
// metered query-backs.
class Algorithm1Engine : public ViewEngine {
 public:
  // A shard-bound warehouse's slot: events routed to another shard are
  // skipped. Unbound, mask and index are 0 and every event routes here.
  struct Shard {
    uint32_t index = 0;
    uint32_t mask = 0;
  };

  // `def` must be simple; every pointer must outlive the engine. `source`
  // supplies the root's label for screening, `view` the sweep's members.
  Algorithm1Engine(const ViewDefinition& def, const ObjectStore* source,
                   Oid root, SourceWrapper* wrapper, WarehouseCosts* costs,
                   AuxiliaryCache* cache, const MaterializedView* view,
                   const PathKnowledge& knowledge, Shard shard);

  Kind kind() const override { return Kind::kAlgorithm1; }
  Verdict Screen(const UpdateEvent& event) override;
  Status Apply(const std::vector<ScreenedEvent>& events,
               ViewStorage* out) override;
  Status SweepScope(const std::vector<ScreenedEvent>& events,
                    std::vector<Oid>* scope) override;
  Status Sweep(const OidSet* scope, std::vector<Oid>* doomed) override;
  bool Splittable() const override { return true; }
  void SetPathKnowledge(const PathKnowledge& knowledge) override;
  void Explain(ShardedViewExplanation* out) const override {
    out->engine = "algorithm1";
  }

  // Algorithm 1 counters summed over every drain task.
  const Algorithm1Maintainer::Stats& stats() const { return stats_; }

 private:
  Status Level1ModifyRecheck(const UpdateEvent& event, ViewStorage* out,
                             BaseAccessor* accessor);

  ViewDefinition def_;
  std::optional<Predicate> pred_;
  const ObjectStore* source_;
  Oid root_;
  SourceWrapper* wrapper_;
  WarehouseCosts* costs_;
  AuxiliaryCache* cache_;
  const MaterializedView* view_;
  Shard shard_;
  Path sel_path_;
  Path cond_path_;
  Path full_path_;
  std::set<std::string> relevant_labels_;  // feasible corridor labels
  bool modify_relevant_ = false;           // can a modify affect membership?
  // Verdicts per distinct label: a pure function of the label until the
  // path knowledge changes.
  std::unordered_map<std::string, bool> edge_labels_;
  std::unordered_map<std::string, bool> modify_labels_;
  std::mutex stats_mutex_;  // drain tasks of one view merge concurrently
  Algorithm1Maintainer::Stats stats_;
};

// A §6 view on its discrimination network, which reads `base` directly
// (centralized setting; not metered — DESIGN.md §4j). It sees every event
// and never splits: one stateful network per view.
std::unique_ptr<ViewEngine> MakeNetworkEngine(const ObjectStore* base,
                                              const ViewDefinition& def,
                                              Oid root);
// A shard's slice of a §6 view hosted elsewhere: it skips every event (the
// host's network exports every op the slice needs, membership and value
// syncs alike) and explains as "gdn" with zero network counters.
std::unique_ptr<ViewEngine> MakeSliceEngine();

}  // namespace gsv

#endif  // GSV_WAREHOUSE_VIEW_ENGINE_H_
