#include "oem/storage_engine.h"

#include <algorithm>
#include <array>
#include <vector>

namespace gsv {

namespace {

// The memory-resident store: a two-level table indexed by the dense
// interned OID id (Oid::id()). The top level is a growable vector of
// leaves; a leaf is a fixed array of 512 object slots, allocated on first
// touch and kept for the life of the engine. Each object is its own
// heap allocation, so a Get pointer survives safe points and unrelated
// Put/Erase calls, and every point operation is two array indexings.
//
// Leaves are small because ids are global: an auxiliary cache, a shard's
// delegate store or a follower shard holds few objects spread over the
// whole id space, and pays one leaf per touched id range.
class InMemoryEngine final : public StorageEngine {
 public:
  const char* EngineName() const override { return "memory"; }

  const Object* Get(const Oid& oid) override { return Slot(oid.id()); }

  Object* GetMutable(const Oid& oid) override { return Slot(oid.id()); }

  Status Put(Object object) override {
    const Oid oid = object.oid();
    const uint32_t leaf = oid.id() >> kLeafBits;
    if (leaf >= leaves_.size()) leaves_.resize(leaf + 1);
    if (leaves_[leaf] == nullptr) leaves_[leaf] = std::make_unique<Leaf>();
    std::unique_ptr<Object>& slot = (*leaves_[leaf])[oid.id() & kLeafMask];
    if (slot != nullptr) {
      return Status::AlreadyExists("object " + oid.str() + " already exists");
    }
    slot = std::make_unique<Object>(std::move(object));
    ++size_;
    return Status::Ok();
  }

  Status Erase(const Oid& oid) override {
    if (Slot(oid.id()) == nullptr) {
      return Status::NotFound("object " + oid.str() + " does not exist");
    }
    (*leaves_[oid.id() >> kLeafBits])[oid.id() & kLeafMask].reset();
    --size_;
    return Status::Ok();
  }

  size_t Size() const override { return size_; }

  void ScanInOrder(const std::function<void(const Object&)>& fn) override {
    std::vector<const Object*> sorted;
    sorted.reserve(size_);
    ScanUnordered(
        [&sorted](const Object& object) { sorted.push_back(&object); });
    std::sort(sorted.begin(), sorted.end(),
              [](const Object* a, const Object* b) {
                return a->oid() < b->oid();  // lexicographic (Oid contract)
              });
    for (const Object* object : sorted) fn(*object);
  }

  // Walks the leaves, so objects come in id order.
  void ScanUnordered(const std::function<void(const Object&)>& fn) override {
    for (const std::unique_ptr<Leaf>& leaf : leaves_) {
      if (leaf == nullptr) continue;
      for (const std::unique_ptr<Object>& object : *leaf) {
        if (object != nullptr) fn(*object);
      }
    }
  }

 private:
  static constexpr uint32_t kLeafBits = 9;
  static constexpr uint32_t kLeafMask = (1u << kLeafBits) - 1;
  using Leaf = std::array<std::unique_ptr<Object>, 1u << kLeafBits>;

  Object* Slot(uint32_t id) const {
    const uint32_t leaf = id >> kLeafBits;
    if (leaf >= leaves_.size() || leaves_[leaf] == nullptr) return nullptr;
    return (*leaves_[leaf])[id & kLeafMask].get();
  }

  std::vector<std::unique_ptr<Leaf>> leaves_;
  size_t size_ = 0;
};

}  // namespace

std::unique_ptr<StorageEngine> MakeInMemoryEngine() {
  return std::make_unique<InMemoryEngine>();
}

}  // namespace gsv
