#ifndef GSV_SHELL_SHELL_H_
#define GSV_SHELL_SHELL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregate_view.h"
#include "core/algorithm1.h"
#include "core/materialized_view.h"
#include "core/union_view.h"
#include "core/view_definition.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "oem/transaction.h"
#include "util/status.h"

namespace gsv {

// An interactive session over one GSDB: load/save stores, apply the basic
// updates, run queries, and define views — materialized views are
// maintained live (Algorithm 1 for simple definitions, the discrimination
// network otherwise). Drives everything through the public library API;
// the gsvsh binary is a thin REPL around ProcessLine.
//
// Commands (one per line; '#' starts a comment):
//   help
//   load <file>               load store records (see oem/serialize.h)
//   save <file>
//   put atomic <oid> <label> int|real|string|bool <value>
//   put set <oid> <label> [child ...]
//   insert <parent> <child>
//   delete <parent> <child>
//   modify <oid> int|real|string|bool <value>
//   show <oid>
//   register <name> <oid>     register a database
//   query SELECT ... | explain SELECT ...
//   define [m]view <name> as: SELECT ...
//   define union <name> as: SELECT ...       (first branch)
//   branch <union-name> as: SELECT ...       (additional branches)
//   define agg <name> count|sum|min|max <path> as: SELECT ...
//   views                     list views and their members
//   databases
//   begin | commit | abort    buffered atomic update batches
//   gc [root ...]
//   stats                     store metrics since the last `stats`
//   quit | exit
class Shell {
 public:
  Shell();

  // Executes one command line; returns the text to display. kNotFound with
  // message "quit" signals end of session.
  Result<std::string> ProcessLine(std::string_view line);

  // Runs a whole script, concatenating outputs; stops at the first error
  // (reported with its line number) or at quit.
  Result<std::string> RunScript(std::string_view script);

  ObjectStore& store() { return store_; }

 private:
  struct LiveView {
    explicit LiveView(ViewDefinition d) : def(std::move(d)) {}
    ViewDefinition def;
    std::unique_ptr<MaterializedView> view;
    std::unique_ptr<LocalAccessor> accessor;
    std::unique_ptr<Algorithm1Maintainer> algorithm1;
    std::unique_ptr<GdnListener> gdn;
  };

  Result<std::string> CmdPut(const std::vector<std::string>& args);
  Result<std::string> CmdModify(const std::vector<std::string>& args);
  Result<std::string> CmdShow(const std::vector<std::string>& args);
  Result<std::string> CmdQuery(std::string_view text);
  Result<std::string> CmdDefine(std::string_view text,
                                const std::vector<std::string>& args);
  Result<std::string> CmdDefineUnion(std::string_view line,
                                     const std::vector<std::string>& args,
                                     bool first_branch);
  Result<std::string> CmdDefineAggregate(std::string_view line,
                                         const std::vector<std::string>& args);
  Result<std::string> CmdViews();
  Result<std::string> CmdStats();

  // Resolves a query entry to a root OID in store_.
  Oid ResolveRoot(const Query& query) const;

  Result<Value> ParseTypedValue(const std::string& type,
                                const std::string& text);

  ObjectStore store_;
  std::vector<std::unique_ptr<LiveView>> views_;
  struct LiveUnion {
    std::unique_ptr<LocalAccessor> accessor;
    std::unique_ptr<UnionView> view;
  };
  std::vector<std::unique_ptr<LiveUnion>> unions_;
  std::vector<std::unique_ptr<AggregateView>> aggregates_;
  std::unique_ptr<Transaction> transaction_;  // open `begin` block, if any
  size_t answer_counter_ = 0;
  size_t branch_counter_ = 0;
};

}  // namespace gsv

#endif  // GSV_SHELL_SHELL_H_
