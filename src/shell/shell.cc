#include "shell/shell.h"

#include <sstream>

#include "core/virtual_view.h"
#include "oem/serialize.h"
#include "query/evaluator.h"
#include "query/explain.h"
#include "util/string_util.h"

namespace gsv {
namespace {

constexpr char kHelp[] =
    "commands:\n"
    "  load <file> | save <file>\n"
    "  put atomic <oid> <label> int|real|string|bool <value>\n"
    "  put set <oid> <label> [child ...]\n"
    "  insert <parent> <child> | delete <parent> <child>\n"
    "  modify <oid> int|real|string|bool <value>\n"
    "  begin | commit | abort  (atomic update batches)\n"
    "  show <oid> | register <db-name> <oid> | databases\n"
    "  query SELECT ... | explain SELECT ...\n"
    "  define [m]view <name> as: SELECT ...\n"
    "  define union <name> as: SELECT ... | branch <name> as: SELECT ...\n"
    "  define agg <name> count|sum|min|max <path> as: SELECT ...\n"
    "  views | gc [root ...] | stats | help | quit";

std::vector<std::string> Tokens(std::string_view text) {
  std::vector<std::string> out;
  std::istringstream in{std::string(text)};
  std::string token;
  while (in >> token) out.push_back(token);
  return out;
}

std::string FormatMembers(const OidSet& members) {
  std::string out = "{";
  bool first = true;
  for (const Oid& oid : members) {
    if (!first) out += ", ";
    first = false;
    out += oid.str();
  }
  out += "}";
  return out;
}

}  // namespace

Shell::Shell() = default;

Result<Value> Shell::ParseTypedValue(const std::string& type,
                                     const std::string& text) {
  if (type == "int") {
    std::optional<int64_t> value = ParseInt64(text);
    if (!value.has_value()) {
      return Status::InvalidArgument("bad integer '" + text + "'");
    }
    return Value::Int(*value);
  }
  if (type == "real") {
    std::optional<double> value = ParseDouble(text);
    if (!value.has_value()) {
      return Status::InvalidArgument("bad real '" + text + "'");
    }
    return Value::Real(*value);
  }
  if (type == "string") return Value::Str(text);
  if (type == "bool") return Value::Bool(text == "true");
  return Status::InvalidArgument("unknown value type '" + type +
                                 "' (int|real|string|bool)");
}

Result<std::string> Shell::CmdPut(const std::vector<std::string>& args) {
  // put atomic <oid> <label> <type> <value> | put set <oid> <label> [c...]
  if (args.size() < 2) return Status::InvalidArgument("put atomic|set ...");
  if (args[1] == "atomic") {
    if (args.size() != 6) {
      return Status::InvalidArgument(
          "put atomic <oid> <label> <type> <value>");
    }
    GSV_ASSIGN_OR_RETURN(Value value, ParseTypedValue(args[4], args[5]));
    GSV_RETURN_IF_ERROR(store_.PutAtomic(Oid(args[2]), args[3], value));
    return "created " + store_.Get(Oid(args[2]))->ToString();
  }
  if (args[1] == "set") {
    if (args.size() < 4) {
      return Status::InvalidArgument("put set <oid> <label> [child ...]");
    }
    std::vector<Oid> children;
    for (size_t i = 4; i < args.size(); ++i) children.push_back(Oid(args[i]));
    GSV_RETURN_IF_ERROR(
        store_.PutSet(Oid(args[2]), args[3], std::move(children)));
    return "created " + store_.Get(Oid(args[2]))->ToString();
  }
  return Status::InvalidArgument("put atomic|set ...");
}

Result<std::string> Shell::CmdModify(const std::vector<std::string>& args) {
  if (args.size() != 4) {
    return Status::InvalidArgument("modify <oid> <type> <value>");
  }
  GSV_ASSIGN_OR_RETURN(Value value, ParseTypedValue(args[2], args[3]));
  if (transaction_ != nullptr) {
    transaction_->Modify(Oid(args[1]), std::move(value));
    return "buffered modify(" + args[1] + ")";
  }
  GSV_RETURN_IF_ERROR(store_.Modify(Oid(args[1]), value));
  return "modified " + store_.Get(Oid(args[1]))->ToString();
}

Result<std::string> Shell::CmdShow(const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("show <oid>");
  const Object* object = store_.Get(Oid(args[1]));
  if (object == nullptr) {
    return Status::NotFound("no object " + args[1]);
  }
  return object->ToString();
}

Result<std::string> Shell::CmdQuery(std::string_view text) {
  GSV_ASSIGN_OR_RETURN(OidSet answer, EvaluateQueryText(store_, text));
  Oid ans_oid("ANS" + std::to_string(++answer_counter_));
  return MakeAnswerObject(ans_oid, answer).ToString();
}

Oid Shell::ResolveRoot(const Query& query) const {
  Oid root = store_.DatabaseOid(query.entry);
  if (!root.valid()) root = Oid(query.entry);
  return root;
}

// Extracts the query text following "as" / "as:" in a define-style line.
namespace {
Result<std::string> QueryAfterAs(std::string_view line) {
  size_t pos = line.find(" as:");
  size_t skip = 4;
  if (pos == std::string_view::npos) {
    pos = line.find(" as ");
    skip = 4;
  }
  if (pos == std::string_view::npos) {
    return Status::InvalidArgument("expected 'as:' before the query");
  }
  return std::string(line.substr(pos + skip));
}
}  // namespace

Result<std::string> Shell::CmdDefineUnion(std::string_view line,
                                          const std::vector<std::string>& args,
                                          bool first_branch) {
  // define union NAME as: SELECT ...     (first_branch)
  // branch NAME as: SELECT ...
  const std::string& name = args[first_branch ? 2 : 1];
  GSV_ASSIGN_OR_RETURN(std::string query_text, QueryAfterAs(line));
  GSV_ASSIGN_OR_RETURN(
      ViewDefinition branch_def,
      ViewDefinition::Parse("define mview " + name + "_b" +
                            std::to_string(++branch_counter_) + " as: " +
                            query_text));

  UnionView* target = nullptr;
  if (first_branch) {
    auto live = std::make_unique<LiveUnion>();
    live->accessor = std::make_unique<LocalAccessor>(&store_);
    live->view =
        std::make_unique<UnionView>(&store_, name, live->accessor.get());
    GSV_RETURN_IF_ERROR(live->view->Bootstrap());
    target = live->view.get();
    store_.AddListener(target->listener());
    unions_.push_back(std::move(live));
  } else {
    for (auto& live : unions_) {
      if (live->view->view_oid().str() == name) target = live->view.get();
    }
    if (target == nullptr) {
      return Status::NotFound("no union view '" + name + "'");
    }
  }
  GSV_RETURN_IF_ERROR(
      target->AddBranch(branch_def, store_, ResolveRoot(branch_def.query())));
  return "union view " + name + " (" + std::to_string(target->branch_count()) +
         " branches) = " + FormatMembers(target->Members());
}

Result<std::string> Shell::CmdDefineAggregate(
    std::string_view line, const std::vector<std::string>& args) {
  // define agg NAME count|sum|min|max PATH as: SELECT ...
  if (args.size() < 7) {
    return Status::InvalidArgument(
        "define agg <name> count|sum|min|max <path> as: SELECT ...");
  }
  const std::string& name = args[2];
  AggregateView::Kind kind;
  if (args[3] == "count") {
    kind = AggregateView::Kind::kCount;
  } else if (args[3] == "sum") {
    kind = AggregateView::Kind::kSum;
  } else if (args[3] == "min") {
    kind = AggregateView::Kind::kMin;
  } else if (args[3] == "max") {
    kind = AggregateView::Kind::kMax;
  } else {
    return Status::InvalidArgument("unknown aggregate '" + args[3] + "'");
  }
  GSV_ASSIGN_OR_RETURN(Path agg_path, Path::Parse(args[4]));
  GSV_ASSIGN_OR_RETURN(std::string query_text, QueryAfterAs(line));
  GSV_ASSIGN_OR_RETURN(ViewDefinition def,
                       ViewDefinition::Parse("define mview " + name + " as: " +
                                             query_text));
  auto view = std::make_unique<AggregateView>(
      &store_, &store_, name, def, ResolveRoot(def.query()), agg_path, kind);
  GSV_RETURN_IF_ERROR(view->Initialize());
  store_.AddListener(view->listener());
  std::string out = "aggregate view " + name + " (" + args[3] + " of " +
                    args[4] + ") over " + FormatMembers(view->Members());
  aggregates_.push_back(std::move(view));
  return out;
}

Result<std::string> Shell::CmdDefine(std::string_view text,
                                     const std::vector<std::string>& args) {
  if (args.size() >= 3 && args[1] == "union") {
    return CmdDefineUnion(text, args, /*first_branch=*/true);
  }
  if (args.size() >= 3 && args[1] == "agg") {
    return CmdDefineAggregate(text, args);
  }
  GSV_ASSIGN_OR_RETURN(ViewDefinition def, ViewDefinition::Parse(text));
  if (!def.materialized()) {
    GSV_RETURN_IF_ERROR(RegisterVirtualView(store_, def));
    return "virtual view " + def.name() + " = " +
           FormatMembers(store_.Get(def.view_oid())->children());
  }

  // Validate before the view object lands in the store.
  const bool simple = Algorithm1Maintainer::ValidateDefinition(def).ok();
  if (!simple) GSV_RETURN_IF_ERROR(GdnEngine::ValidateDefinition(def));
  auto live = std::make_unique<LiveView>(def);
  live->view = std::make_unique<MaterializedView>(&store_, def);
  GSV_RETURN_IF_ERROR(live->view->Initialize(store_));

  Oid root = store_.DatabaseOid(def.query().entry);
  if (!root.valid()) root = Oid(def.query().entry);
  if (simple) {
    live->accessor = std::make_unique<LocalAccessor>(&store_);
    live->algorithm1 = std::make_unique<Algorithm1Maintainer>(
        live->view.get(), live->accessor.get(), def, root);
    store_.AddListener(live->algorithm1.get());
  } else {
    live->gdn = std::make_unique<GdnListener>(live->view.get(), &store_, def,
                                              root);
    GSV_RETURN_IF_ERROR(live->gdn->Initialize());
    store_.AddListener(live->gdn.get());
  }
  std::string result = "materialized view " + def.name() + " = " +
                       FormatMembers(live->view->BaseMembers()) +
                       (simple ? "  [Algorithm 1]" : "  [gdn]");
  views_.push_back(std::move(live));
  return result;
}

Result<std::string> Shell::CmdViews() {
  std::string out;
  for (const auto& live : views_) {
    if (!out.empty()) out += "\n";
    const Status& status = live->algorithm1 != nullptr
                               ? live->algorithm1->last_status()
                               : live->gdn->last_status();
    out += live->def.name() + " = " +
           FormatMembers(live->view->BaseMembers()) +
           (status.ok() ? "" : "  [maintenance error: " + status.ToString() +
                                   "]");
  }
  for (const auto& live : unions_) {
    if (!out.empty()) out += "\n";
    out += live->view->view_oid().str() + " = " +
           FormatMembers(live->view->Members()) + "  [union, " +
           std::to_string(live->view->branch_count()) + " branches]";
  }
  for (const auto& view : aggregates_) {
    if (!out.empty()) out += "\n";
    out += view->view_oid().str() + " = " + FormatMembers(view->Members()) +
           "  [aggregate]";
  }
  if (out.empty()) return std::string("no materialized views");
  return out;
}

Result<std::string> Shell::CmdStats() {
  std::string line = "objects=" + std::to_string(store_.size()) + " " +
                     store_.metrics().ToString();
  store_.metrics().Reset();
  return line;
}

Result<std::string> Shell::ProcessLine(std::string_view line) {
  // Strip comments and whitespace-only lines.
  size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  std::vector<std::string> args = Tokens(line);
  if (args.empty()) return std::string();
  const std::string& command = args[0];

  if (command == "help") return std::string(kHelp);
  if (command == "quit" || command == "exit") {
    return Status::NotFound("quit");
  }
  if (command == "load") {
    if (args.size() != 2) return Status::InvalidArgument("load <file>");
    GSV_RETURN_IF_ERROR(LoadStoreFromFile(args[1], &store_));
    return "loaded " + std::to_string(store_.size()) + " objects";
  }
  if (command == "save") {
    if (args.size() != 2) return Status::InvalidArgument("save <file>");
    GSV_RETURN_IF_ERROR(SaveStoreToFile(store_, args[1]));
    return "saved " + std::to_string(store_.size()) + " objects";
  }
  if (command == "put") return CmdPut(args);
  if (command == "begin") {
    if (transaction_ != nullptr) {
      return Status::FailedPrecondition("a transaction is already open");
    }
    transaction_ = std::make_unique<Transaction>(&store_);
    return std::string("transaction started");
  }
  if (command == "commit") {
    if (transaction_ == nullptr) {
      return Status::FailedPrecondition("no open transaction");
    }
    size_t buffered = transaction_->size();
    Status status = transaction_->Commit();
    transaction_.reset();
    GSV_RETURN_IF_ERROR(status);
    return "committed " + std::to_string(buffered) + " updates";
  }
  if (command == "abort") {
    if (transaction_ == nullptr) {
      return Status::FailedPrecondition("no open transaction");
    }
    size_t buffered = transaction_->size();
    transaction_.reset();
    return "aborted " + std::to_string(buffered) + " buffered updates";
  }
  if (command == "insert" || command == "delete") {
    if (args.size() != 3) {
      return Status::InvalidArgument(command + " <parent> <child>");
    }
    if (transaction_ != nullptr) {
      if (command == "insert") {
        transaction_->Insert(Oid(args[1]), Oid(args[2]));
      } else {
        transaction_->Delete(Oid(args[1]), Oid(args[2]));
      }
      return "buffered " + command + "(" + args[1] + ", " + args[2] + ")";
    }
    GSV_RETURN_IF_ERROR(command == "insert"
                            ? store_.Insert(Oid(args[1]), Oid(args[2]))
                            : store_.Delete(Oid(args[1]), Oid(args[2])));
    return command + "(" + args[1] + ", " + args[2] + ") ok";
  }
  if (command == "modify") return CmdModify(args);
  if (command == "show") return CmdShow(args);
  if (command == "register") {
    if (args.size() != 3) {
      return Status::InvalidArgument("register <db-name> <oid>");
    }
    GSV_RETURN_IF_ERROR(store_.RegisterDatabase(args[1], Oid(args[2])));
    return "database " + args[1] + " -> " + args[2];
  }
  if (command == "databases") {
    std::string out;
    for (const std::string& name : store_.DatabaseNames()) {
      if (!out.empty()) out += "\n";
      out += name + " -> " + store_.DatabaseOid(name).str();
    }
    return out.empty() ? "no databases" : out;
  }
  if (command == "query" || command == "select") {
    // Keep the original text (tokenizing would lose string literals).
    size_t pos = line.find(command);
    std::string_view rest = line.substr(pos + command.size());
    if (command == "select") rest = line;  // allow bare SELECT ...
    return CmdQuery(rest);
  }
  if (command == "explain") {
    size_t pos = line.find(command);
    GSV_ASSIGN_OR_RETURN(
        QueryExplanation explanation,
        ExplainQueryText(store_, line.substr(pos + command.size())));
    return explanation.ToString();
  }
  if (command == "define") return CmdDefine(line, args);
  if (command == "branch") {
    if (args.size() < 3) {
      return Status::InvalidArgument("branch <union-name> as: SELECT ...");
    }
    return CmdDefineUnion(line, args, /*first_branch=*/false);
  }
  if (command == "views") return CmdViews();
  if (command == "gc") {
    std::vector<Oid> roots;
    for (size_t i = 1; i < args.size(); ++i) roots.push_back(Oid(args[i]));
    size_t collected = store_.CollectGarbage(roots);
    return "collected " + std::to_string(collected) + " objects";
  }
  if (command == "stats") return CmdStats();
  return Status::InvalidArgument("unknown command '" + command +
                                 "' (try: help)");
}

Result<std::string> Shell::RunScript(std::string_view script) {
  std::string out;
  size_t line_number = 0;
  for (const std::string& line : Split(script, '\n')) {
    ++line_number;
    Result<std::string> result = ProcessLine(line);
    if (!result.ok()) {
      if (result.status().message() == "quit") return out;
      return Status(result.status().code(),
                    "line " + std::to_string(line_number) + ": " +
                        result.status().message());
    }
    if (!result->empty()) {
      out += *result;
      out += "\n";
    }
  }
  return out;
}

}  // namespace gsv
