#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/strings.h"
#include "core/ires_server.h"
#include "sql/lowering.h"
#include "sql/sql_parser.h"
#include "sql/tpch_queries.h"
#include "workloadgen/asap_workflows.h"
#include "workloadgen/pegasus.h"
#include "workflow/workflow_graph.h"

namespace perfbench {

using ires::Dataset;
using ires::GeneratedWorkload;
using ires::OperatorLibrary;
using ires::WorkflowGraph;

namespace {

/// Renders a workflow graph in the platform's `graph` file format
/// (`from,to,port` edges plus `target,$$target`).
std::string GraphFileText(const WorkflowGraph& graph) {
  std::string text;
  auto ops = graph.TopologicalOperators();
  if (!ops.ok()) return text;
  for (const int op : ops.value()) {
    const WorkflowGraph::Node& node = graph.node(op);
    for (size_t port = 0; port < node.inputs.size(); ++port) {
      text += graph.node(node.inputs[port]).name + "," + node.name + "," +
              std::to_string(port) + "\n";
    }
    for (size_t port = 0; port < node.outputs.size(); ++port) {
      text += node.name + "," + graph.node(node.outputs[port]).name + "," +
              std::to_string(port) + "\n";
    }
  }
  text += graph.node(graph.target()).name + ",$$target\n";
  return text;
}

/// Adds every artefact of `from` to `into`, skipping names already present
/// (the generators share materialized implementations between workflows).
void MergeLibrary(const OperatorLibrary& from, OperatorLibrary* into) {
  for (const auto& [name, op] : from.materialized()) {
    if (into->FindMaterializedByName(name) == nullptr) {
      (void)into->AddMaterialized(op);
    }
  }
  for (const auto& [name, op] : from.abstract()) {
    if (into->FindAbstractByName(name) == nullptr) (void)into->AddAbstract(op);
  }
  for (const auto& [name, dataset] : from.datasets()) {
    if (into->FindDatasetByName(name) == nullptr) {
      (void)into->AddDataset(dataset);
    }
  }
}

/// Multiplies a dataset's size metadata by `factor`.
Dataset ScaledDataset(const Dataset& dataset, const std::string& name,
                      double factor) {
  ires::MetadataTree meta = dataset.meta();
  for (const char* key : {"Optimization.size", "Optimization.documents"}) {
    const auto value = meta.Get(key);
    if (value) meta.Set(key, std::to_string(std::stod(*value) * factor));
  }
  return Dataset(name, meta);
}

}  // namespace

namespace {

struct JoinEdge {
  const char* left_table;
  const char* right_table;
  const char* left_column;
  const char* right_column;
};

/// The TPC-H foreign-key join graph over the catalog's tables.
constexpr JoinEdge kJoinGraph[] = {
    {"nation", "region", "n_regionkey", "r_regionkey"},
    {"customer", "nation", "c_nationkey", "n_nationkey"},
    {"supplier", "nation", "s_nationkey", "n_nationkey"},
    {"customer", "orders", "c_custkey", "o_custkey"},
    {"orders", "lineitem", "o_orderkey", "l_orderkey"},
    {"part", "partsupp", "p_partkey", "ps_partkey"},
    {"partsupp", "supplier", "ps_suppkey", "s_suppkey"},
    {"lineitem", "part", "l_partkey", "p_partkey"},
    {"lineitem", "supplier", "l_suppkey", "s_suppkey"},
};

struct FilterColumn {
  const char* table;
  const char* column;
  bool text;     // quoted literal
  double lo, hi;  // numeric literal range
};

constexpr FilterColumn kFilterColumns[] = {
    {"nation", "n_name", true, 0, 0},
    {"region", "r_name", true, 0, 0},
    {"customer", "c_acctbal", false, -999, 9999},
    {"part", "p_retailprice", false, 900, 2100},
    {"part", "p_size", false, 1, 50},
    {"partsupp", "ps_supplycost", false, 1, 1000},
    {"orders", "o_totalprice", false, 800, 500000},
    {"orders", "o_orderdate", true, 0, 0},
    {"lineitem", "l_quantity", false, 1, 50},
    {"lineitem", "l_shipdate", true, 0, 0},
    {"lineitem", "l_extendedprice", false, 900, 100000},
};

constexpr const char* kProjectable[] = {
    "n_name",      "r_name",     "c_name",       "c_acctbal", "s_suppkey",
    "p_name",      "p_size",     "ps_supplycost", "o_orderdate",
    "o_totalprice", "l_quantity", "l_shipdate",   "l_extendedprice"};

const char* const kNations[] = {"GERMANY", "FRANCE", "BRAZIL", "JAPAN",
                                "KENYA",   "PERU",   "CHINA",  "CANADA"};
const char* const kRegions[] = {"EUROPE", "ASIA", "AMERICA", "AFRICA",
                                "MIDDLE EAST"};

std::string TextLiteral(ires::Rng* rng, const std::string& column) {
  if (column == "n_name") return kNations[rng->UniformInt(0, 7)];
  if (column == "r_name") return kRegions[rng->UniformInt(0, 4)];
  char date[16];
  std::snprintf(date, sizeof(date), "199%d-%02d-%02d",
                static_cast<int>(rng->UniformInt(2, 8)),
                static_cast<int>(rng->UniformInt(1, 12)),
                static_cast<int>(rng->UniformInt(1, 28)));
  return date;
}

std::string TableOf(const std::string& column) {
  static const std::map<std::string, std::string> kPrefix = {
      {"n", "nation"}, {"r", "region"},   {"c", "customer"},
      {"s", "supplier"}, {"p", "part"},   {"ps", "partsupp"},
      {"o", "orders"},   {"l", "lineitem"}};
  return kPrefix.at(column.substr(0, column.find('_')));
}

/// Replaces every literal of `query` with a seeded value of the same kind,
/// so the text is new but the shape (literals as `?`) is unchanged.
std::string VaryLiterals(const std::string& query, ires::Rng* rng) {
  std::string out;
  std::string last_column;
  size_t i = 0;
  while (i < query.size()) {
    const char c = query[i];
    if (c == '\'') {
      const size_t close = query.find('\'', i + 1);
      out += "'" + TextLiteral(rng, last_column) + "'";
      i = close + 1;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 &&
               (i == 0 || query[i - 1] == ' ')) {
      size_t end = i;
      while (end < query.size() &&
             std::isdigit(static_cast<unsigned char>(query[end])) != 0) {
        ++end;
      }
      const long value = std::stol(query.substr(i, end - i));
      const long lo = std::max(1L, value / 2);
      out += std::to_string(rng->UniformInt(lo, value + lo));
      i = end;
    } else {
      if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
        size_t end = i;
        while (end < query.size() &&
               (std::isalnum(static_cast<unsigned char>(query[end])) != 0 ||
                query[end] == '_')) {
          ++end;
        }
        last_column = query.substr(i, end - i);
        out += last_column;
        i = end;
        continue;
      }
      out += c;
      ++i;
    }
  }
  return out;
}

/// MuSQLE query `q` with seeded literals.
Request MusqleRequest(int q, ires::Rng* rng) {
  Request r;
  r.kind = RequestKind::kSql;
  r.target = VaryLiterals(ires::sql::MusqleQuerySet()[q], rng);
  r.key = "q" + std::to_string(q);
  return r;
}

std::set<std::string> MusqleKeys() {
  std::set<std::string> keys;
  for (size_t q = 0; q < ires::sql::MusqleQuerySet().size(); ++q) {
    keys.insert("q" + std::to_string(q));
  }
  return keys;
}

template <typename T>
void Shuffle(std::vector<T>* v, ires::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->UniformInt(0, i - 1)]);
  }
}

}  // namespace

// ---------------------------------------------------------------- asap_exec

AsapExecWorkload::AsapExecWorkload(uint64_t seed) : rng_(seed ^ 0xa5a9) {
  auto jitter = [&] { return rng_.Uniform(0.95, 1.05); };
  const std::pair<std::string, GeneratedWorkload> workflows[] = {
      {"graph_analytics", ires::MakeGraphAnalyticsWorkflow(1e6 * jitter())},
      {"text_analytics", ires::MakeTextAnalyticsWorkflow(20e3 * jitter())},
      {"relational", ires::MakeRelationalWorkflow(5.0 * jitter())},
      {"hello_world", ires::MakeHelloWorldWorkflow(1.0 * jitter())},
  };
  for (const auto& [name, generated] : workflows) {
    MergeLibrary(generated.library, &inputs_.library);
    inputs_.workflows.push_back({name, GraphFileText(generated.graph)});
  }
}

Request AsapExecWorkload::Next() {
  if (block_.empty()) {
    // The same order for every seed: which jobs refit a pair follows the
    // order, and the refitting share decides where p50 lands.
    block_ = {0, 1, 2, 3, -1};
  }
  const int w = block_.back();
  block_.pop_back();
  if (w < 0) {
    const int queries = static_cast<int>(ires::sql::MusqleQuerySet().size());
    return MusqleRequest(queries_sent_++ % queries, &rng_);
  }
  const std::string& name = inputs_.workflows[w].name;
  return {RequestKind::kExecute, name, name, false};
}

std::vector<Request> AsapExecWorkload::Priming() {
  std::vector<Request> reqs;
  const int queries = static_cast<int>(ires::sql::MusqleQuerySet().size());
  for (int q = 0; q < queries; ++q) reqs.push_back(MusqleRequest(q, &rng_));
  for (const StoredWorkflow& w : inputs_.workflows) {
    reqs.push_back({RequestKind::kExecute, w.name, w.name, false});
  }
  for (int q = 0; q < queries; ++q) reqs.push_back(MusqleRequest(q, &rng_));
  return reqs;
}

std::set<std::string> AsapExecWorkload::plan_quality_keys() const {
  std::set<std::string> keys = MusqleKeys();
  for (const StoredWorkflow& w : inputs_.workflows) keys.insert(w.name);
  return keys;
}

// ------------------------------------------------------------- pegasus_plan

PegasusPlanWorkload::PegasusPlanWorkload(uint64_t seed)
    : rng_(seed ^ 0x9e6a5) {
  inputs_.synthetic_engines = 3;
  const ires::PegasusType families[] = {
      ires::PegasusType::kMontage, ires::PegasusType::kCyberShake,
      ires::PegasusType::kEpigenomics, ires::PegasusType::kInspiral,
      ires::PegasusType::kSipht};
  ires::PegasusGenerator generator(rng_.Next());
  for (int k = 0; k < kDags; ++k) {
    // A fixed grid of families x sizes (10..50 operators), so every seed
    // plans the same population; the seed jitters data sizes and decides
    // popularity.
    const int operators = 10 + (k / 5 * 13) % 41;
    const GeneratedWorkload w =
        generator.Generate(families[k % 5], operators, 3);
    // Every DAG gets its own node names, so all of them are distinct
    // workflows (and distinct plan-cache keys) over one shared library; the
    // materialized implementations are shared by task type.
    const std::string prefix = "w" + std::to_string(k) + "_";
    const double scale = rng_.Uniform(0.99, 1.01);
    OperatorLibrary renamed;
    for (const auto& [name, op] : w.library.materialized()) {
      (void)renamed.AddMaterialized(op);
    }
    for (const auto& [name, op] : w.library.abstract()) {
      (void)renamed.AddAbstract(ires::AbstractOperator(prefix + name, op.meta()));
    }
    for (const auto& [name, dataset] : w.library.datasets()) {
      (void)renamed.AddDataset(ScaledDataset(dataset, prefix + name, scale));
    }
    MergeLibrary(renamed, &inputs_.library);
    std::string text;
    for (const std::string& line : ires::Split(GraphFileText(w.graph), '\n')) {
      if (line.empty()) continue;
      const std::vector<std::string> fields = ires::Split(line, ',');
      text += prefix + fields[0] + ",";
      text += fields[1] == "$$target" ? fields[1] : prefix + fields[1];
      if (fields.size() > 2) text += "," + fields[2];
      text += "\n";
    }
    inputs_.workflows.push_back({"pegasus_" + std::to_string(k), text});
  }
  // Popularity follows the grid order, so the popular head mixes every
  // family and size the same way for every seed.
  by_rank_.resize(kDags);
  for (int k = 0; k < kDags; ++k) by_rank_[k] = k;
  double total = 0.0;
  for (int rank = 1; rank <= kDags; ++rank) {
    total += 1.0 / std::pow(rank, kZipfExponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

Request PegasusPlanWorkload::Next() {
  if (block_.empty()) {
    // The offset within each slice steps by the golden ratio from block to
    // block, so successive blocks reach different tail DAGs, and every seed
    // draws the same DAGs in the same blocks.
    const double offset = std::fmod(0.5 + kGoldenRatio * blocks_drawn_, 1.0);
    ++blocks_drawn_;
    for (int i = 0; i < kBlock; ++i) {
      block_.push_back((i + offset) / kBlock);
    }
    Shuffle(&block_, &order_rng_);
  }
  const double u = block_.back();
  block_.pop_back();
  const size_t rank =
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  Request r;
  r.kind = RequestKind::kMaterialize;
  r.target = inputs_.workflows[by_rank_[std::min<size_t>(rank, kDags - 1)]]
                 .name;
  r.key = r.target;
  return r;
}

std::vector<Request> PegasusPlanWorkload::Priming() {
  std::vector<Request> reqs;
  const size_t capacity = ires::IresServer::Config{}.plan_cache_capacity;
  for (size_t rank = 0; rank < capacity && rank < by_rank_.size(); ++rank) {
    const std::string& name = inputs_.workflows[by_rank_[rank]].name;
    reqs.push_back({RequestKind::kMaterialize, name, name, false});
  }
  return reqs;
}

std::set<std::string> PegasusPlanWorkload::plan_quality_keys() const {
  std::set<std::string> keys;
  for (int rank = 0; rank < kTracked; ++rank) {
    keys.insert(inputs_.workflows[by_rank_[rank]].name);
  }
  return keys;
}

// ----------------------------------------------------------------- sql_mix

SqlMixWorkload::SqlMixWorkload(uint64_t seed)
    : rng_(seed ^ 0x5eed5), base_(ires::sql::MusqleQuerySet()) {
  for (const std::string& q : base_) {
    auto parsed = ires::sql::SqlParser::Parse(q);
    if (parsed.ok()) seen_shapes_.insert(ires::sql::QueryShape(parsed.value()));
  }
}


Request SqlMixWorkload::Next() {
  if (block_.empty()) {
    // A shuffled block holds every MuSQLE query once plus kNovelPerBlock
    // novel shapes, so each run sends the same mix.
    for (int q = 0; q < static_cast<int>(base_.size()); ++q) block_.push_back(q);
    for (int i = 0; i < kNovelPerBlock; ++i) block_.push_back(-1);
    Shuffle(&block_, &rng_);
  }
  const int q = block_.back();
  block_.pop_back();
  return q < 0 ? NextNovel() : MusqleRequest(q, &rng_);
}

std::vector<Request> SqlMixWorkload::Priming() {
  std::vector<Request> reqs;
  for (size_t q = 0; q < base_.size(); ++q) {
    reqs.push_back(MusqleRequest(static_cast<int>(q), &rng_));
  }
  return reqs;
}

std::set<std::string> SqlMixWorkload::plan_quality_keys() const {
  return MusqleKeys();
}

Request SqlMixWorkload::NextNovel() {
  for (;;) {
    // Grow a connected table set over the join graph, one edge at a time;
    // successive novel shapes cycle through 2..5 tables.
    const int want = 2 + novel_count_ % 4;
    const JoinEdge& first =
        kJoinGraph[rng_.UniformInt(0, std::size(kJoinGraph) - 1)];
    std::vector<std::string> tables = {first.left_table, first.right_table};
    std::vector<const JoinEdge*> joins = {&first};
    auto has = [&](const std::string& t) {
      return std::find(tables.begin(), tables.end(), t) != tables.end();
    };
    for (int attempt = 0; attempt < 32 && static_cast<int>(tables.size()) < want;
         ++attempt) {
      const JoinEdge& e =
          kJoinGraph[rng_.UniformInt(0, std::size(kJoinGraph) - 1)];
      if (has(e.left_table) == has(e.right_table)) continue;
      tables.push_back(has(e.left_table) ? e.right_table : e.left_table);
      joins.push_back(&e);
    }
    for (size_t i = tables.size(); i > 1; --i) {
      std::swap(tables[i - 1], tables[rng_.UniformInt(0, i - 1)]);
    }

    std::vector<std::string> conjuncts;
    for (const JoinEdge* e : joins) {
      conjuncts.push_back(std::string(e->left_column) + " = " + e->right_column);
    }
    for (const FilterColumn& f : kFilterColumns) {
      if (!has(f.table) || !rng_.Bernoulli(0.35)) continue;
      static const char* kOps[] = {"=", ">", "<"};
      const std::string op = f.text ? "=" : kOps[rng_.UniformInt(0, 2)];
      conjuncts.push_back(
          std::string(f.column) + " " + op + " " +
          (f.text ? "'" + TextLiteral(&rng_, f.column) + "'"
                  : std::to_string(static_cast<long>(rng_.Uniform(f.lo, f.hi)))));
    }
    for (size_t i = conjuncts.size(); i > 1; --i) {
      std::swap(conjuncts[i - 1], conjuncts[rng_.UniformInt(0, i - 1)]);
    }

    std::string select;
    for (const char* column : kProjectable) {
      if (has(TableOf(column)) && rng_.Bernoulli(0.3)) {
        select += (select.empty() ? "" : ", ") + std::string(column);
      }
    }
    if (select.empty()) select = "*";

    std::string query = "SELECT " + select + " FROM ";
    for (size_t i = 0; i < tables.size(); ++i) {
      query += (i > 0 ? ", " : "") + tables[i];
    }
    query += " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      query += (i > 0 ? " AND " : "") + conjuncts[i];
    }
    auto parsed = ires::sql::SqlParser::Parse(query);
    if (!parsed.ok()) continue;
    if (!seen_shapes_.insert(ires::sql::QueryShape(parsed.value())).second) {
      continue;
    }
    Request r;
    r.kind = RequestKind::kSql;
    r.target = query;
    r.key = "novel" + std::to_string(novel_count_++);
    r.novel = true;
    return r;
  }
}

}  // namespace perfbench
