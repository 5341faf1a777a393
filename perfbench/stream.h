#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

// Seeded source-update streams for the pipeline benchmark.
//
// A stream is generated against a *twin* of the source store and recorded
// through an UpdateListener on that twin, so each recorded update is exactly
// what the store applied and announced. Objects created by the generator
// (fresh leaves) are recorded as a creation carried by the insert that first
// links them. The measured process receives only the recorded stream and
// replays it against its own copy of the base graph.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "oem/store.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

// One recorded source mutation. When `create` is set, the insert's child is
// a fresh atomic object that must be created (label, value) before the
// insert is applied.
struct StreamOp {
  gsv::Update update;
  bool create = false;
  std::string create_label;
  int64_t create_value = 0;
};

// Applies a recorded op to a source store.
gsv::Status ApplyOp(gsv::ObjectStore* store, const StreamOp& op);

// Line-oriented text form, one op per line ("C oid label value" precedes
// the insert of a fresh object; "I p c", "D p c", "M oid value").
void AppendOpText(const StreamOp& op, std::string* out);

// A stream produced by a child process and read op by op through a pipe,
// so neither the generator nor the recorded stream occupies the reader's
// memory. The child writes "READY <count>\n" once the stream is generated
// and checked, then the ops in text form; it blocks (idle) on the pipe
// while the reader works through them.
class StreamFeed {
 public:
  // Forks a child that runs `produce(write_fd)` and exits with its return
  // value; returns once the child reported READY.
  static gsv::Result<std::unique_ptr<StreamFeed>> Start(
      const std::function<int(int)>& produce);
  ~StreamFeed();  // closes the pipe, stops the child and waits for it
  StreamFeed(const StreamFeed&) = delete;
  StreamFeed& operator=(const StreamFeed&) = delete;

  size_t size() const { return count_; }
  // The next op; kNotFound past the end of the stream.
  gsv::Status Next(StreamOp* op);

  // Child side: announces `text` (ops in text form) and writes it out.
  static int Serve(int fd, size_t count, const std::string& text);

 private:
  StreamFeed(int fd, pid_t pid) : fd_(fd), pid_(pid) {}
  bool ReadLine(std::string* line);

  int fd_ = -1;
  pid_t pid_ = -1;
  size_t count_ = 0;
  size_t served_ = 0;
  std::string buffer_;
  size_t pos_ = 0;
};

// Records every update the twin store announces.
class StreamRecorder : public gsv::UpdateListener {
 public:
  // Every object already in `store` counts as known (never re-created).
  explicit StreamRecorder(const gsv::ObjectStore& store);
  void OnUpdate(const gsv::ObjectStore& store,
                const gsv::Update& update) override;
  const std::vector<StreamOp>& ops() const { return ops_; }

 private:
  std::unordered_set<gsv::Oid, gsv::OidHash> known_;
  std::vector<StreamOp> ops_;
};

enum class StreamShape {
  // The region below the root stays a tree: deletes detach subtrees or
  // unlink fresh leaves, inserts re-attach a detached subtree or link a
  // fresh leaf.
  kTree,
  // The graph stays layered and every set object reachable: deletes drop
  // an edge whose child keeps another parent or detach an atomic leaf;
  // inserts re-attach a detached leaf, add an edge down one layer, or link
  // a fresh leaf.
  kDag,
};

struct StreamOptions {
  StreamShape shape = StreamShape::kTree;
  double p_insert = 0.125;
  double p_delete = 0.125;
  double p_modify = 0.75;
  uint64_t seed = 1;
  std::string fresh_label = "note";  // label of fresh leaves ("F<n>")
};

// Generates valid updates against the twin store. Unlike the library's
// UpdateGenerator it keeps its candidate lists incrementally, so a
// structural update costs the size of the subtree it moves rather than a
// rescan of the whole graph.
class StreamGenerator {
 public:
  // `twin` must outlive the generator; `root` is the base's root object.
  StreamGenerator(gsv::ObjectStore* twin, gsv::Oid root,
                  StreamOptions options);

  // Applies one update to the twin (falls back across kinds when the drawn
  // kind is impossible).
  gsv::Status Step();

 private:
  struct Pool {
    std::vector<gsv::Oid> items;
    std::unordered_map<gsv::Oid, size_t, gsv::OidHash> pos;
    void Add(const gsv::Oid& oid);
    void Remove(const gsv::Oid& oid);
  };

  bool TryModify();
  bool TryDelete();
  bool TryInsert();
  // Adds (or removes) `top` and everything below it to the candidate pools;
  // `depth` is the depth of `top`.
  void TrackSubtree(const gsv::Oid& top, int depth);
  void UntrackSubtree(const gsv::Oid& top);

  gsv::ObjectStore* twin_;
  gsv::Oid root_;
  StreamOptions options_;
  gsv::Random rng_;
  uint64_t fresh_counter_ = 0;
  Pool sets_;
  Pool atoms_;
  std::unordered_map<gsv::Oid, int, gsv::OidHash> depth_;
  // Detached subtree roots (tree) or leaves (DAG), with their old parent.
  std::vector<std::pair<gsv::Oid, gsv::Oid>> detached_;
  // Fresh leaves still linked, and the parent that links each.
  Pool fresh_;
  std::unordered_map<gsv::Oid, gsv::Oid, gsv::OidHash> fresh_parent_;
  // DAG: edges added between adjacent layers minus shared edges cut.
  int64_t extra_edges_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
