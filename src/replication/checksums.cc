#include "replication/checksums.h"

#include <sstream>
#include <utility>

#include "core/materialized_view.h"
#include "oem/store.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/file_io.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"

namespace gsv {

ViewChecksum ChecksumView(const std::string& name,
                          const MaterializedView& view) {
  ViewChecksum checksum;
  checksum.view = name;
  for (const auto& [oid, line] : ViewContentLines(view)) {
    const std::string& base = oid.str();
    checksum.crc = Crc32(base.data(), base.size(), checksum.crc);
    checksum.crc = Crc32(" ", 1, checksum.crc);
    checksum.crc = Crc32(line.data(), line.size(), checksum.crc);
    checksum.crc = Crc32("\n", 1, checksum.crc);
    ++checksum.members;
  }
  return checksum;
}

std::string EncodeChecksumStamp(const ChecksumStamp& stamp) {
  std::ostringstream out;
  out << "lsn " << stamp.lsn << "\n";
  for (const ViewChecksum& view : stamp.views) {
    out << "view " << view.crc << " " << view.members << " " << view.view
        << "\n";
  }
  return out.str();
}

Result<ChecksumStamp> DecodeChecksumStamp(const std::string& text) {
  ChecksumStamp stamp;
  std::istringstream in(text);
  std::string line;
  bool saw_lsn = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "lsn") {
      if (!(fields >> stamp.lsn)) {
        return Status::DataLoss("checksums: malformed lsn line");
      }
      saw_lsn = true;
    } else if (tag == "view") {
      ViewChecksum view;
      if (!(fields >> view.crc >> view.members)) {
        return Status::DataLoss("checksums: malformed view line");
      }
      std::getline(fields, view.view);
      if (!view.view.empty() && view.view.front() == ' ') {
        view.view.erase(0, 1);
      }
      if (view.view.empty()) {
        return Status::DataLoss("checksums: view line without a name");
      }
      stamp.views.push_back(std::move(view));
    } else {
      return Status::DataLoss("checksums: unknown line tag '" + tag + "'");
    }
  }
  if (!saw_lsn) return Status::DataLoss("checksums: missing lsn line");
  return stamp;
}

Result<ChecksumStamp> ChecksumDurabilityHome(const std::string& dir) {
  GSV_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(dir));
  ObjectStore store;
  MaterializedViewSet views(&store);
  GSV_RETURN_IF_ERROR(RedoCommitted(plan, &store, &views));
  ChecksumStamp stamp;
  stamp.lsn = plan.next_lsn - 1;
  for (const MaterializedViewSet::Entry& entry : views.entries()) {
    stamp.views.push_back(ChecksumView(entry.state.name, *entry.view));
  }
  return stamp;
}

Status PublishChecksums(Warehouse& warehouse) {
  if (!warehouse.durable()) {
    return Status::FailedPrecondition(
        "checksums: warehouse has no durability home");
  }
  if (warehouse.pending_events() != 0) {
    return Status::FailedPrecondition(
        "checksums: drain pending events first (the stamp must sit on a "
        "commit watermark)");
  }
  ChecksumStamp stamp;
  stamp.lsn = warehouse.wal()->next_lsn() - 1;
  for (const std::string& name : warehouse.view_names()) {
    const MaterializedView* view = warehouse.view(name);
    if (view != nullptr) stamp.views.push_back(ChecksumView(name, *view));
  }
  return PublishFile(warehouse.wal()->dir() + "/" + ChecksumFileName(),
                     EncodeChecksumStamp(stamp));
}

Status PublishChecksums(ShardedWarehouse& warehouse) {
  for (uint32_t i = 0; i < warehouse.shard_count(); ++i) {
    GSV_RETURN_IF_ERROR(PublishChecksums(warehouse.shard(i)));
  }
  return Status::Ok();
}

}  // namespace gsv
