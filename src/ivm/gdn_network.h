#ifndef GSV_IVM_GDN_NETWORK_H_
#define GSV_IVM_GDN_NETWORK_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/view_definition.h"
#include "core/view_storage.h"
#include "oem/store.h"
#include "oem/update.h"
#include "path/path_expression.h"
#include "query/condition.h"
#include "util/status.h"

namespace gsv {

// A generalized discrimination network (GDN, after Beyhl & Giese; Rete-style
// property-graph IVM, Szárnyas) for the §6 view classes Algorithm 1 cannot
// maintain: path-expression select paths, AND/OR condition trees, WITHIN
// scoping, and DAG bases with multiple derivations per object.
//
// The view definition compiles into a small network of memo nodes:
//
//   * one *reach* node — the select-path NFA run forward from the view
//     root. A partial match (N, s) means "some WITHIN-scoped path from the
//     root to N drives the NFA into state s"; N is a select candidate iff
//     an accepting-state match is alive at N.
//   * one *sat* node per WHERE predicate — the predicate's path NFA run
//     backward from its witnesses. A match (N, s) means "from N, state s
//     can reach an accepting state at an atomic object whose value
//     satisfies the comparison"; the predicate holds at X iff a start-state
//     match is alive at X. The leaves feeding these nodes are the PR 3
//     label and value-predicate postings (Initialize seeds witnesses from
//     one posting sweep when the predicate path ends in a concrete label).
//
// Every match records its *support set*: the axiom sentinel and/or the
// matches one graph edge away that derive it. Multi-derivation (DAG) bases
// just mean several supports; a match dies only when reevaluation of its
// support region finds no path back to an axiom (plain counting would leak
// self-sustaining support cycles). Presence in the memo table == alive.
//
// Updates apply by *reconciliation*: each event names an edge (or value)
// whose truth is re-read from the base store and the incident support edges
// are re-derived, so application is idempotent, order-robust across
// coalesced batches, and tolerant of at-least-once redelivery — the same
// contract the warehouse channel already demands. Membership changes emit
// through a ViewStorage, so deltas ride the existing WAL kViewDelta path.
//
// Objects Put() into the store are silent, so the engine keeps a *known
// set*: the objects whose value and child edges it has absorbed. Initialize
// marks every base object; an edge event whose child is unknown absorbs the
// whole unknown region below it (witness axioms plus every child edge, also
// edges into known objects), so a fresh subtree linked by one insert is
// exact. A known child costs one bit probe. ANS INT views are rejected by
// ValidateDefinition.
class GdnEngine {
 public:
  struct Options {
    // Safety valve: when one Apply() touches more support edges than this,
    // the engine declares itself poisoned and the caller falls back to
    // quarantine + §4.4 resync + Rebuild().
    size_t max_propagations_per_update = size_t{1} << 22;
  };

  struct Stats {
    int64_t updates = 0;          // Apply() calls processed
    int64_t propagations = 0;     // support-edge additions + removals
    int64_t matches_created = 0;  // partial matches born
    int64_t matches_freed = 0;    // partial matches killed
    int64_t v_inserts = 0;        // membership deltas emitted
    int64_t v_deletes = 0;
    int64_t rebuilds = 0;         // Initialize()/Rebuild() runs
  };

  // OK iff this engine can maintain `def` (any §6 relaxation except
  // ANS INT, whose intersection database is not event-monitored).
  static Status ValidateDefinition(const ViewDefinition& def);

  // `root` is the resolved entry object of the view query. The store and
  // the definition's shared condition tree must outlive the engine.
  GdnEngine(const ObjectStore* base, const ViewDefinition& def, Oid root);
  GdnEngine(const ObjectStore* base, const ViewDefinition& def, Oid root,
            Options options);

  GdnEngine(const GdnEngine&) = delete;
  GdnEngine& operator=(const GdnEngine&) = delete;

  // Builds all memo tables and the member set from the current base state.
  // Also the recovery path: a poisoned or stale network Rebuild()s.
  Status Initialize();
  Status Rebuild() { return Initialize(); }

  // Applies one basic update: re-derives the affected support edges,
  // cascades aliveness changes, and emits exactly the membership deltas
  // (plus a value sync for a modified member) into `out`. Event values are
  // ignored — the engine re-reads the base store, so reporting level 1
  // suffices. Returns FailedPrecondition once poisoned.
  Status Apply(const Update& update, ViewStorage* out);

  // Diffs the engine's member set against `out` and emits the fixes; a
  // no-op when they already agree. Recovery runs this after Rebuild() so
  // tail-replayed events become convergent no-ops.
  Status Reconcile(ViewStorage* out);

  const OidSet& members() const { return members_; }
  // Live partial matches across all memo nodes.
  size_t match_count() const;
  // Network nodes: the reach node plus one sat node per predicate.
  size_t node_count() const { return 1 + sats_.size(); }
  const Stats& stats() const { return stats_; }
  bool poisoned() const { return poisoned_; }

 private:
  // A partial match's support links. Keys are (oid id << 32 | state) of
  // peer matches in the same memo node, or kAxiom. Invariant: a match is
  // present in its table iff it is alive, and `in`/`out` reference only
  // present matches (plus kAxiom in `in`).
  struct Match {
    std::unordered_set<uint64_t> in;   // matches (or axiom) deriving this
    std::unordered_set<uint64_t> out;  // matches this one derives
  };
  using MemoTable = std::unordered_map<uint64_t, Match>;

  struct MemoNode {
    path_internal::PathNfa nfa;
    const Predicate* pred;  // nullptr for the reach node
    MemoTable table;
  };

  static constexpr uint64_t kAxiom = ~uint64_t{0};
  static uint64_t KeyOf(const Oid& oid, int state) {
    return (static_cast<uint64_t>(oid.id()) << 32) |
           static_cast<uint32_t>(state);
  }
  static Oid OidOf(uint64_t key) {
    return Oid::FromId(static_cast<uint32_t>(key >> 32));
  }
  static int StateOf(uint64_t key) {
    return static_cast<int>(key & 0xffffffffu);
  }

  // WITHIN scoping; the root is exempt (it is the supplied entry point).
  bool PassesFilter(const Oid& oid) const;

  // Links src -> dst (creating dst when absent) and cascades: a newly
  // alive match derives its own out-supports via DeriveOut.
  void AddSupport(MemoNode& node, uint64_t src, uint64_t dst);
  // Unlinks src -> dst; when dst loses its last *proven* support the
  // affected region is reevaluated and unreachable matches die.
  void RemoveSupport(MemoNode& node, uint64_t src, uint64_t dst);
  // Derives the support edges a newly created match sources (reach: down
  // the select NFA into children; sat: up the predicate NFA into parents).
  void DeriveOut(MemoNode& node, uint64_t key);
  // Region reevaluation after a support removal: collect the out-closure
  // of `seed`, re-prove aliveness from external/axiom supports, and erase
  // everything unreached (handles support cycles that counting cannot).
  void ReevaluateRegion(MemoNode& node, uint64_t seed);

  // Re-reads edge parent->child from the base and re-derives every
  // incident support edge in every memo node.
  void ReconcileEdge(const Oid& parent, const Oid& child);
  // Re-reads `oid`'s value and sets each sat node's axiom support at its
  // accepting states to the current truth of the predicate.
  void RefreshSatAxioms(const Oid& oid);
  // WITHIN flip: re-derives every edge whose filtered endpoint is `child`
  // (its membership in the scoping database just changed).
  void RefreshFilterAt(const Oid& event_parent, const Oid& child);
  // Absorbs `top` and every unknown object below it: witness axioms, all
  // child edges, then marks each known. Descends into unknown children only.
  void AbsorbUnknown(const Oid& top);
  bool IsKnown(const Oid& oid) const {
    const uint32_t id = oid.id();
    return id / 64 < known_.size() && (known_[id / 64] >> (id % 64) & 1) != 0;
  }
  void MarkKnown(const Oid& oid);

  void SeedSatAxioms(MemoNode& sat, const Oid& oid);
  bool ReachAccepting(const Oid& oid) const;
  bool CondHolds(const Oid& oid) const;
  bool IsMember(const Oid& oid) const;
  // Rechecks membership of every touched OID and emits the deltas.
  Status EmitChanges(ViewStorage* out);
  void ChargeBudget(size_t units);

  const ObjectStore* base_;
  ViewDefinition def_;
  Oid root_;
  Options options_;
  Oid within_oid_;            // invalid when the view has no WITHIN clause
  std::string within_name_;   // database name for InDatabase probes

  MemoNode reach_;
  std::vector<MemoNode> sats_;  // one per predicate, Predicates() order
  std::unordered_map<const Predicate*, size_t> sat_index_;

  OidSet members_;
  std::vector<uint64_t> known_;  // bit per interned OID id (see class note)
  Stats stats_;
  bool poisoned_ = false;

  // Per-Apply scratch.
  std::unordered_set<uint32_t> touched_;  // oid ids whose matches changed
  std::deque<uint64_t> pending_;          // cascade worklist
  bool cascading_ = false;
  size_t budget_used_ = 0;
  size_t budget_ = 0;  // 0 = unlimited (Initialize)
};

// Maintains one view from a store's listener chain: each basic update the
// store reports is applied to a GdnEngine whose deltas land in `out`. The
// standalone counterpart of a warehouse drain for the §6 view classes, as
// Algorithm1Maintainer::OnUpdate is for simple views; the most recent
// failure is kept in last_status().
class GdnListener : public UpdateListener {
 public:
  // Pointers must outlive the listener. `out` may already hold members
  // (e.g. an initialized MaterializedView); Initialize() reconciles it.
  GdnListener(ViewStorage* out, const ObjectStore* base,
              const ViewDefinition& def, Oid root)
      : engine_(base, def, std::move(root)), out_(out) {}

  // Builds the network from the current base and fixes `out` to match.
  Status Initialize();

  void OnUpdate(const ObjectStore& store, const Update& update) override;

  const GdnEngine& engine() const { return engine_; }
  const Status& last_status() const { return last_status_; }

 private:
  GdnEngine engine_;
  ViewStorage* out_;
  Status last_status_;
};

}  // namespace gsv

#endif  // GSV_IVM_GDN_NETWORK_H_
