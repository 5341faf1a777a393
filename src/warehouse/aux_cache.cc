#include "warehouse/aux_cache.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "oem/serialize.h"
#include "path/navigate.h"
#include "path/path_index.h"

namespace gsv {

namespace {
// Separates the known-value preamble from the serialized corridor store.
constexpr char kCacheHeader[] = "# gsv-aux-cache v1";
constexpr char kStoreMarker[] = "%%store";

ObjectStore::Options CacheStoreOptions(StorageEngineFactory engine_factory) {
  ObjectStore::Options options;
  options.engine_factory = std::move(engine_factory);
  return options;
}
}  // namespace

AuxiliaryCache::AuxiliaryCache(Mode mode, Oid root, Path corridor,
                               StorageEngineFactory engine_factory)
    : mode_(mode),
      root_(std::move(root)),
      corridor_(std::move(corridor)),
      store_(CacheStoreOptions(std::move(engine_factory))) {}

bool AuxiliaryCache::ValueKnown(const Oid& oid) const {
  const Object* object = store_.Get(oid);
  if (object == nullptr) return false;
  if (object->IsSet()) return true;  // children are tracked via events
  return values_known_.Contains(oid);
}

Status AuxiliaryCache::AddToCorridor(const Object& object, size_t depth,
                                     SourceWrapper* wrapper) {
  const Oid& oid = object.oid();
  bool fresh_at_depth = depths_[oid.id()].insert(depth).second;
  if (!store_.Contains(oid)) {
    Value stored = object.value();
    if (object.IsAtomic()) {
      if (mode_ == Mode::kFull) {
        values_known_.Insert(oid);
      } else {
        stored = Value::Int(0);  // placeholder; value intentionally unknown
      }
    }
    GSV_RETURN_IF_ERROR(store_.Put(Object(oid, object.label(), stored)));
  }
  if (!fresh_at_depth) return Status::Ok();
  if (depth >= corridor_.size() || object.IsAtomic()) return Status::Ok();

  // Pull the children that continue the corridor (Example 10's "direct
  // subobjects" query).
  Path next_label(std::vector<std::string>{corridor_.label(depth)});
  ++wrapper->costs()->cache_maintenance_queries;
  GSV_ASSIGN_OR_RETURN(std::vector<Object> children,
                       wrapper->FetchPathObjects(oid, next_label));
  for (const Object& child : children) {
    GSV_RETURN_IF_ERROR(AddToCorridor(child, depth + 1, wrapper));
  }
  return Status::Ok();
}

void AuxiliaryCache::Reset() {
  std::vector<Oid> all;
  store_.ForEach([&](const Object& object) { all.push_back(object.oid()); });
  for (const Oid& oid : all) {
    store_.Remove(oid);
    values_known_.Erase(oid);
  }
  depths_.clear();
}

Status AuxiliaryCache::Initialize(SourceWrapper* wrapper) {
  ++wrapper->costs()->cache_maintenance_queries;
  GSV_ASSIGN_OR_RETURN(Object root_object, wrapper->FetchObject(root_));
  return AddToCorridor(root_object, 0, wrapper);
}

void AuxiliaryCache::RecomputeMembership() {
  std::unordered_map<uint32_t, std::set<size_t>> new_depths;
  new_depths[root_.id()].insert(0);

  // Warm from the cache store's label index: each corridor level is one
  // posting wave instead of a per-child Get + label check.
  if (LabelIndexSnapshotPtr snapshot = store_.AcquireIndexSnapshot()) {
    const Object* root_object = store_.Get(root_);
    if (root_object != nullptr) {
      std::vector<uint32_t> frontier{root_.id()};
      const std::string* prev_label = &root_object->label();
      for (size_t depth = 0; depth < corridor_.size() && !frontier.empty();
           ++depth) {
        frontier = IndexStepDownIds(*snapshot, *prev_label,
                                    corridor_.label(depth), frontier,
                                    &store_.metrics());
        for (uint32_t id : frontier) {
          new_depths[id].insert(depth + 1);
        }
        prev_label = &corridor_.label(depth);
      }
    }
    depths_ = std::move(new_depths);
    return;
  }

  std::vector<Oid> frontier{root_};
  for (size_t depth = 0; depth < corridor_.size() && !frontier.empty();
       ++depth) {
    std::vector<Oid> next;
    for (const Oid& oid : frontier) {
      const Object* object = store_.Get(oid);
      if (object == nullptr || !object->IsSet()) continue;
      for (const Oid& child_oid : object->children()) {
        const Object* child = store_.Get(child_oid);
        if (child == nullptr || child->label() != corridor_.label(depth)) {
          continue;
        }
        if (new_depths[child_oid.id()].insert(depth + 1).second) {
          next.push_back(child_oid);
        }
      }
    }
    frontier = std::move(next);
  }

  depths_ = std::move(new_depths);
}

void AuxiliaryCache::Prune() {
  std::vector<Oid> orphans;
  store_.ForEach([&](const Object& object) {
    if (depths_.find(object.oid().id()) == depths_.end()) {
      orphans.push_back(object.oid());
    }
  });
  for (const Oid& oid : orphans) {
    store_.Remove(oid);
    values_known_.Erase(oid);
  }
}

Status AuxiliaryCache::OnEvent(const UpdateEvent& event,
                               SourceWrapper* wrapper) {
  if (!store_.Contains(event.parent)) return Status::Ok();
  switch (event.kind) {
    case UpdateKind::kInsert: {
      GSV_RETURN_IF_ERROR(store_.AddChildRaw(event.parent, event.child));
      if (!OnCorridor(event.parent)) return Status::Ok();
      // Does the child continue the corridor from any of the parent's
      // depths? We need its label: from the event (level >= 2) or by
      // asking the source (level 1).
      std::set<size_t> parent_depths = depths_.at(event.parent.id());
      bool label_needed = false;
      for (size_t depth : parent_depths) {
        if (depth < corridor_.size()) label_needed = true;
      }
      if (!label_needed) return Status::Ok();
      Object child_object;
      if (event.child_object.has_value()) {
        child_object = *event.child_object;
      } else {
        ++wrapper->costs()->cache_maintenance_queries;
        GSV_ASSIGN_OR_RETURN(child_object,
                             wrapper->FetchObject(event.child));
      }
      for (size_t depth : parent_depths) {
        if (depth < corridor_.size() &&
            child_object.label() == corridor_.label(depth)) {
          GSV_RETURN_IF_ERROR(
              AddToCorridor(child_object, depth + 1, wrapper));
        }
      }
      return Status::Ok();
    }
    case UpdateKind::kDelete: {
      GSV_RETURN_IF_ERROR(store_.RemoveChildRaw(event.parent, event.child));
      if (OnCorridor(event.parent) && OnCorridor(event.child)) {
        RecomputeMembership();
      }
      return Status::Ok();
    }
    case UpdateKind::kModify: {
      if (mode_ != Mode::kFull) return Status::Ok();
      Value new_value;
      if (event.new_value.has_value()) {
        new_value = *event.new_value;
      } else {
        ++wrapper->costs()->cache_maintenance_queries;
        GSV_ASSIGN_OR_RETURN(Object object,
                             wrapper->FetchObject(event.parent));
        new_value = object.value();
      }
      GSV_RETURN_IF_ERROR(store_.SetValueRaw(event.parent, new_value));
      values_known_.Insert(event.parent);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

Status AuxiliaryCache::SaveTo(std::ostream& out) const {
  out << kCacheHeader << '\n';
  for (const Oid& oid : values_known_) {
    out << "known " << oid.str() << '\n';
  }
  out << kStoreMarker << '\n';
  return WriteStore(store_, out);
}

Status AuxiliaryCache::LoadFrom(std::istream& in) {
  if (store_.size() != 0 || !depths_.empty()) {
    return Status::FailedPrecondition(
        "AuxiliaryCache::LoadFrom requires an empty cache");
  }
  std::string line;
  if (!std::getline(in, line) || line != kCacheHeader) {
    return Status::DataLoss("aux cache image: bad header");
  }
  bool store_section = false;
  while (std::getline(in, line)) {
    if (line == kStoreMarker) {
      store_section = true;
      break;
    }
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("known ", 0) != 0) {
      return Status::DataLoss("aux cache image: unexpected line '" + line +
                              "'");
    }
    values_known_.Insert(Oid(line.substr(6)));
  }
  if (!store_section) {
    return Status::DataLoss("aux cache image: missing store section");
  }
  GSV_RETURN_IF_ERROR(ReadStore(in, &store_));
  RecomputeMembership();
  return Status::Ok();
}

std::vector<Oid> AuxiliaryCache::Ancestors(const Oid& n,
                                           const Path& p) const {
  return AncestorsByPath(store_, n, p);
}

bool AuxiliaryCache::VerifyPath(const Oid& y, const Path& p) const {
  auto it = depths_.find(y.id());
  if (it == depths_.end()) return false;
  return it->second.count(p.size()) > 0 && corridor_.Prefix(p.size()) == p;
}

std::optional<std::vector<Object>> AuxiliaryCache::EvalObjects(
    const Oid& n, const Path& p) const {
  std::vector<Object> objects;
  for (const Oid& oid : EvalPath(store_, n, p)) {
    const Object* object = store_.Get(oid);
    if (object == nullptr) continue;
    if (object->IsAtomic() && !ValueKnown(oid)) {
      return std::nullopt;  // partial cache: value must come from the source
    }
    objects.push_back(*object);
  }
  return objects;
}

Result<Object> AuxiliaryCache::Fetch(const Oid& oid) const {
  const Object* object = store_.Get(oid);
  if (object == nullptr) {
    return Status::NotFound("not cached: " + oid.str());
  }
  if (object->IsAtomic() && !ValueKnown(oid)) {
    return Status::FailedPrecondition("value not cached for " + oid.str());
  }
  return *object;
}

}  // namespace gsv
