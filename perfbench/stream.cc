#include "stream.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>

namespace perfbench {

namespace {

// Values of modified and fresh leaves are drawn from [0, kMaxValue).
constexpr int64_t kMaxValue = 100;
// Tree shape: deletes only cut edges below this depth, so one update never
// detaches a sizable share of the base.
constexpr int kMinDeleteParentDepth = 2;
// Inserts and deletes come at matched rates, and two small controllers keep
// the graph's shape and size fixed over a stream of any length, so the
// views keep their sizes and late windows cost what early ones do. A delete
// unlinks a fresh leaf while more than kFreshTarget are linked, otherwise it
// detaches a base edge; an insert re-attaches a detached subtree or leaf
// under the parent it was cut from while more than kDetachedTarget wait,
// otherwise it links a fresh leaf (on the DAG it first restores the edge
// count, adding an edge between adjacent layers while shared edges cut
// outnumber edges added).
constexpr size_t kFreshTarget = 64;
constexpr size_t kDetachedTarget = 16;

}  // namespace

using gsv::Oid;
using gsv::Status;
using gsv::Update;
using gsv::UpdateKind;

Status ApplyOp(gsv::ObjectStore* store, const StreamOp& op) {
  if (op.create) {
    GSV_RETURN_IF_ERROR(store->PutAtomic(op.update.child, op.create_label,
                                         gsv::Value::Int(op.create_value)));
  }
  return store->Apply(op.update);
}

void AppendOpText(const StreamOp& op, std::string* out) {
  const Update& u = op.update;
  if (op.create) {
    *out += "C " + u.child.str() + " " + op.create_label + " " +
            std::to_string(op.create_value) + "\n";
  }
  switch (u.kind) {
    case UpdateKind::kInsert:
      *out += "I " + u.parent.str() + " " + u.child.str() + "\n";
      break;
    case UpdateKind::kDelete:
      *out += "D " + u.parent.str() + " " + u.child.str() + "\n";
      break;
    case UpdateKind::kModify:
      *out += "M " + u.parent.str() + " " +
              std::to_string(u.new_value.AsInt()) + "\n";
      break;
  }
}

// ---- StreamFeed ----

namespace {

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (start <= line.size()) {
    size_t space = line.find(' ', start);
    if (space == std::string::npos) space = line.size();
    fields.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return fields;
}

bool ParseInt(const std::string& text, int64_t* value) {
  char* end = nullptr;
  *value = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end != nullptr && *end == '\0';
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

gsv::Result<std::unique_ptr<StreamFeed>> StreamFeed::Start(
    const std::function<int(int)>& produce) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("stream: pipe failed");
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) return Status::Internal("stream: fork failed");
  if (pid == 0) {
    close(fds[0]);
    // A reader that stops early closes the pipe: writes then fail instead
    // of killing the child.
    std::signal(SIGPIPE, SIG_IGN);
    int code = produce(fds[1]);
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  std::unique_ptr<StreamFeed> feed(new StreamFeed(fds[0], pid));
  std::string line;
  std::vector<std::string> fields;
  int64_t count = 0;
  if (!feed->ReadLine(&line) || (fields = Split(line)).size() != 2 ||
      fields[0] != "READY" || !ParseInt(fields[1], &count) || count < 0) {
    return Status::Internal("stream: generator failed before READY");
  }
  feed->count_ = static_cast<size_t>(count);
  return feed;
}

StreamFeed::~StreamFeed() {
  if (fd_ >= 0) close(fd_);
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

int StreamFeed::Serve(int fd, size_t count, const std::string& text) {
  const std::string header = "READY " + std::to_string(count) + "\n";
  if (!WriteAll(fd, header.data(), header.size())) return 1;
  WriteAll(fd, text.data(), text.size());  // fails once the reader is done
  return 0;
}

bool StreamFeed::ReadLine(std::string* line) {
  for (;;) {
    size_t newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      line->assign(buffer_, pos_, newline - pos_);
      pos_ = newline + 1;
      return true;
    }
    buffer_.erase(0, pos_);
    pos_ = 0;
    char chunk[1 << 16];
    ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status StreamFeed::Next(StreamOp* op) {
  if (served_ >= count_) return Status::NotFound("stream: end");
  *op = StreamOp();
  std::string line;
  for (;;) {
    if (!ReadLine(&line)) return Status::DataLoss("stream: truncated");
    const std::vector<std::string> f = Split(line);
    int64_t value = 0;
    if (f[0] == "C" && f.size() == 4 && ParseInt(f[3], &value)) {
      op->create = true;
      op->update.child = Oid(f[1]);
      op->create_label = f[2];
      op->create_value = value;
      continue;
    }
    if ((f[0] == "I" || f[0] == "D") && f.size() == 3) {
      op->update = f[0] == "I" ? Update::Insert(Oid(f[1]), Oid(f[2]))
                               : Update::Delete(Oid(f[1]), Oid(f[2]));
      if (op->create && (f[0] != "I" || op->update.child != Oid(f[2]))) {
        return Status::DataLoss("stream: creation without its insert");
      }
    } else if (f[0] == "M" && f.size() == 3 && ParseInt(f[2], &value)) {
      op->update =
          Update::Modify(Oid(f[1]), gsv::Value(), gsv::Value::Int(value));
    } else {
      return Status::DataLoss("stream: bad record '" + line + "'");
    }
    if (op->create && op->update.kind != UpdateKind::kInsert) {
      return Status::DataLoss("stream: creation without its insert");
    }
    break;
  }
  ++served_;
  return Status::Ok();
}

// ---- StreamRecorder ----

StreamRecorder::StreamRecorder(const gsv::ObjectStore& store) {
  store.ForEach([this](const gsv::Object& object) {
    known_.insert(object.oid());
  });
}

void StreamRecorder::OnUpdate(const gsv::ObjectStore& store,
                              const Update& update) {
  StreamOp op;
  op.update = update;
  if (update.kind == UpdateKind::kInsert &&
      known_.insert(update.child).second) {
    const gsv::Object* object = store.Get(update.child);
    op.create = true;
    op.create_label = object->label();
    op.create_value = object->value().AsInt();
  }
  ops_.push_back(std::move(op));
}

// ---- StreamGenerator ----

void StreamGenerator::Pool::Add(const Oid& oid) {
  if (pos.emplace(oid, items.size()).second) items.push_back(oid);
}

void StreamGenerator::Pool::Remove(const Oid& oid) {
  auto it = pos.find(oid);
  if (it == pos.end()) return;
  size_t index = it->second;
  pos.erase(it);
  if (index + 1 != items.size()) {
    items[index] = items.back();
    pos[items[index]] = index;
  }
  items.pop_back();
}

StreamGenerator::StreamGenerator(gsv::ObjectStore* twin, Oid root,
                                 StreamOptions options)
    : twin_(twin),
      root_(std::move(root)),
      options_(std::move(options)),
      rng_(options_.seed) {
  TrackSubtree(root_, 0);
}

void StreamGenerator::TrackSubtree(const Oid& top, int depth) {
  // Breadth-first, so in a DAG every object gets its shortest depth — the
  // layer index of a layered DAG, which orders every edge.
  std::deque<std::pair<Oid, int>> frontier{{top, depth}};
  std::unordered_set<Oid, gsv::OidHash> seen{top};
  while (!frontier.empty()) {
    auto [oid, d] = frontier.front();
    frontier.pop_front();
    const gsv::Object* object = twin_->Get(oid);
    if (object == nullptr) continue;
    depth_[oid] = d;
    if (!object->IsSet()) {
      atoms_.Add(oid);
      continue;
    }
    sets_.Add(oid);
    for (const Oid& child : object->children()) {
      if (seen.insert(child).second) frontier.emplace_back(child, d + 1);
    }
  }
}

void StreamGenerator::UntrackSubtree(const Oid& top) {
  std::vector<Oid> stack{top};
  while (!stack.empty()) {
    Oid oid = stack.back();
    stack.pop_back();
    sets_.Remove(oid);
    atoms_.Remove(oid);
    const gsv::Object* object = twin_->Get(oid);
    if (object == nullptr || !object->IsSet()) continue;
    for (const Oid& child : object->children()) stack.push_back(child);
  }
}

bool StreamGenerator::TryModify() {
  if (atoms_.items.empty()) return false;
  const Oid target = atoms_.items[rng_.Uniform(atoms_.items.size())];
  int64_t value = rng_.UniformInt(0, kMaxValue - 1);
  return twin_->Modify(target, gsv::Value::Int(value)).ok();
}

bool StreamGenerator::TryDelete() {
  if (fresh_.items.size() > kFreshTarget) {
    const Oid leaf = fresh_.items[rng_.Uniform(fresh_.items.size())];
    const Oid parent = fresh_parent_[leaf];
    fresh_.Remove(leaf);
    fresh_parent_.erase(leaf);
    atoms_.Remove(leaf);
    return twin_->Delete(parent, leaf).ok();
  }
  if (sets_.items.empty()) return false;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const Oid parent = sets_.items[rng_.Uniform(sets_.items.size())];
    const gsv::Object* object = twin_->Get(parent);
    if (object == nullptr || object->children().empty()) continue;
    const auto& children = object->children().elements();
    const Oid child = children[rng_.Uniform(children.size())];
    if (fresh_.pos.count(child) != 0) continue;  // unlinked above only
    if (options_.shape == StreamShape::kTree) {
      if (depth_[parent] < kMinDeleteParentDepth) continue;
      if (!twin_->Delete(parent, child).ok()) return false;
      UntrackSubtree(child);
      detached_.emplace_back(child, parent);
      return true;
    }
    // DAG: cut an edge whose child keeps another parent, or detach an
    // atomic leaf; sets never become unreachable.
    const bool shared = twin_->Parents(child).size() >= 2;
    const gsv::Object* child_object = twin_->Get(child);
    if (!shared && (child_object == nullptr || !child_object->IsAtomic())) {
      continue;
    }
    if (!twin_->Delete(parent, child).ok()) return false;
    if (shared) {
      --extra_edges_;
    } else {
      atoms_.Remove(child);
      detached_.emplace_back(child, parent);
    }
    return true;
  }
  return false;
}

bool StreamGenerator::TryInsert() {
  if (sets_.items.empty()) return false;
  if (detached_.size() > kDetachedTarget) {
    // The old parent cannot lie inside the detached subtree: every edge the
    // stream adds is a base edge restored, a fresh leaf, or (DAG) an edge
    // down one layer, so the graph stays a tree (a DAG).
    const size_t index = rng_.Uniform(detached_.size());
    const auto [child, old_parent] = detached_[index];
    detached_[index] = detached_.back();
    detached_.pop_back();
    if (!twin_->Insert(old_parent, child).ok()) return false;
    // A subtree re-attached inside one still detached is tracked when that
    // one returns.
    if (sets_.pos.count(old_parent) != 0) {
      TrackSubtree(child, depth_[old_parent] + 1);
    }
    return true;
  }

  const Oid parent = sets_.items[rng_.Uniform(sets_.items.size())];
  const int parent_depth = depth_[parent];
  if (options_.shape == StreamShape::kDag && extra_edges_ < 0) {
    // Add a missing edge down to the next layer: no cycle.
    const gsv::Object* parent_object = twin_->Get(parent);
    for (int attempt = 0; attempt < 8 && parent_object != nullptr;
         ++attempt) {
      const Pool& pool = rng_.Bernoulli(0.5) ? atoms_ : sets_;
      if (pool.items.empty()) continue;
      const Oid child = pool.items[rng_.Uniform(pool.items.size())];
      if (depth_[child] != parent_depth + 1) continue;
      if (fresh_.pos.count(child) != 0) continue;
      if (parent_object->children().Contains(child)) continue;
      if (!twin_->Insert(parent, child).ok()) return false;
      ++extra_edges_;
      return true;
    }
  }

  // Link a fresh atomic leaf.
  auto next_fresh = [this] {
    std::string oid = "F";
    oid += std::to_string(fresh_counter_++);
    return Oid(oid);
  };
  Oid fresh = next_fresh();
  while (twin_->Contains(fresh)) fresh = next_fresh();
  int64_t value = rng_.UniformInt(0, kMaxValue - 1);
  if (!twin_->PutAtomic(fresh, options_.fresh_label, gsv::Value::Int(value))
           .ok() ||
      !twin_->Insert(parent, fresh).ok()) {
    return false;
  }
  atoms_.Add(fresh);
  fresh_.Add(fresh);
  fresh_parent_[fresh] = parent;
  depth_[fresh] = parent_depth + 1;
  return true;
}

Status StreamGenerator::Step() {
  double total = options_.p_insert + options_.p_delete + options_.p_modify;
  double draw = rng_.NextDouble() * total;
  int first = draw < options_.p_insert
                  ? 0
                  : (draw < options_.p_insert + options_.p_delete ? 1 : 2);
  for (int offset = 0; offset < 3; ++offset) {
    bool applied = false;
    switch ((first + offset) % 3) {
      case 0:
        applied = TryInsert();
        break;
      case 1:
        applied = TryDelete();
        break;
      default:
        applied = TryModify();
        break;
    }
    if (applied) return Status::Ok();
  }
  return Status::FailedPrecondition("stream: no valid update possible");
}

}  // namespace perfbench
