#ifndef GSV_WAREHOUSE_UPDATE_EVENT_H_
#define GSV_WAREHOUSE_UPDATE_EVENT_H_

#include <optional>
#include <string>
#include <vector>

#include "oem/object.h"
#include "oem/oid.h"
#include "oem/store.h"
#include "oem/update.h"
#include "path/path.h"

namespace gsv {

// How much a source monitor reports with each update (§5.1's three
// scenarios).
enum class ReportingLevel {
  // 1. Only the update type and the OIDs of the directly affected objects.
  kOidsOnly = 1,
  // 2. Additionally the label, type and value of the directly affected
  //    objects (enables local screening; carries modify old/new values).
  kWithValues = 2,
  // 3. Additionally path(ROOT, N) with the OIDs along it (the source
  //    "records the path to the updated object" while applying it).
  kWithRootPath = 3,
};

const char* ReportingLevelName(ReportingLevel level);

// One root-to-object derivation: interleaved OIDs and labels.
struct RootPathInfo {
  std::vector<Oid> oids;  // root, x1, ..., N (size = labels.size() + 1)
  Path labels;            // path(ROOT, N)
};

// What a source monitor sends to the warehouse for one base update.
struct UpdateEvent {
  UpdateKind kind = UpdateKind::kInsert;
  Oid parent;  // N1; the target N for modify
  Oid child;   // N2; invalid for modify
  ReportingLevel level = ReportingLevel::kOidsOnly;

  // Per-source monotone sequence number, stamped by the SourceMonitor
  // (1-based). The warehouse integrator uses it to drop duplicate
  // deliveries idempotently and to detect gaps (lost deliveries), which
  // quarantine the affected views for resync. 0 = unsequenced: events
  // constructed directly (tests, batch helpers) bypass both checks.
  uint64_t sequence = 0;

  // Level >= 2: snapshots of the directly affected objects, taken right
  // after the update was applied at the source.
  std::optional<Object> parent_object;
  std::optional<Object> child_object;
  // Level >= 2, modify only.
  std::optional<Value> old_value;
  std::optional<Value> new_value;

  // Level 3: path(ROOT, N1) for insert/delete, path(ROOT, N) for modify.
  // Absent when the object is unreachable from the source root.
  std::optional<RootPathInfo> root_path;

  // The update as an Update struct (modify values only when level >= 2).
  Update ToUpdate() const;
  // The same, with a modify's new value re-read from `store` (the source's
  // current truth), so a level-1 event can still sync a delegate value.
  Update ToUpdateAt(const ObjectStore& store) const;

  std::string ToString() const;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_UPDATE_EVENT_H_
