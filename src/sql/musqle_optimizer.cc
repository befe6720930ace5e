#include "sql/musqle_optimizer.h"

#include "sql/dpccp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

namespace ires::sql {

std::string SqlPlan::ToString() const {
  std::string out;
  std::function<void(int, int)> visit = [&](int id, int depth) {
    const SqlPlanNode& node = nodes[id];
    char line[256];
    const char* kind = node.kind == SqlPlanNode::Kind::kScan   ? "scan"
                       : node.kind == SqlPlanNode::Kind::kJoin ? "join"
                                                                : "move";
    std::snprintf(line, sizeof(line), "%*s%s @%s %s rows=%.0f est=%.3fs\n",
                  depth * 2, "", kind, node.engine.c_str(),
                  node.table.c_str(), node.output.rows, node.seconds);
    out += line;
    for (int child : node.children) visit(child, depth + 1);
  };
  if (root >= 0) visit(root, 0);
  char total[96];
  std::snprintf(total, sizeof(total), "total est=%.3fs @%s\n", total_seconds,
                result_engine.c_str());
  out += total;
  return out;
}

int SqlPlan::CountKind(SqlPlanNode::Kind kind) const {
  int count = 0;
  std::function<void(int)> visit = [&](int id) {
    if (nodes[id].kind == kind) ++count;
    for (int child : nodes[id].children) visit(child);
  };
  if (root >= 0) visit(root);
  return count;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Resolved view of the query against the catalog.
struct ResolvedQuery {
  std::vector<const TableDef*> tables;     // by query table index
  std::vector<double> selectivity;         // per table, from its filters
  std::vector<RelationStats> filtered;     // base stats after filters
  struct Edge {
    int left_table;
    int right_table;
    double left_distinct;
    double right_distinct;
  };
  std::vector<Edge> edges;                 // equality joins
  /// Non-equality (theta) predicates between two tables: applied as
  /// selectivity on any subset containing both, but they do not create
  /// join-graph edges.
  struct ThetaFilter {
    uint32_t tables_mask;
    double selectivity;
  };
  std::vector<ThetaFilter> theta_filters;
  std::vector<uint32_t> adjacency;         // per table: bitmask of neighbors
};

double FilterSelectivity(const FilterPredicate& filter,
                         const ColumnStats* column) {
  const double distinct = std::max(1.0, column ? column->distinct_values : 10.0);
  switch (filter.op) {
    case CompareOp::kEq: return 1.0 / distinct;
    case CompareOp::kNe: return 1.0 - 1.0 / distinct;
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: return 1.0 / 3.0;
  }
  return 1.0;
}

Result<int> ResolveColumn(const Query& query,
                          const std::vector<const TableDef*>& tables,
                          const ColumnRef& ref) {
  if (!ref.table.empty()) {
    for (size_t i = 0; i < query.tables.size(); ++i) {
      if (query.tables[i] == ref.table) {
        if (tables[i]->FindColumn(ref.column) == nullptr) {
          return Status::NotFound("column " + ref.ToString());
        }
        return static_cast<int>(i);
      }
    }
    return Status::NotFound("table " + ref.table + " not in FROM list");
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i]->FindColumn(ref.column) != nullptr) {
      return static_cast<int>(i);
    }
  }
  return Status::NotFound("column " + ref.column + " not found in any table");
}

Result<ResolvedQuery> Resolve(const Query& query, const Catalog& catalog) {
  ResolvedQuery out;
  for (const std::string& name : query.tables) {
    const TableDef* table = catalog.FindTable(name);
    if (table == nullptr) return Status::NotFound("table: " + name);
    out.tables.push_back(table);
  }
  const size_t n = out.tables.size();
  out.selectivity.assign(n, 1.0);
  out.adjacency.assign(n, 0);

  for (const FilterPredicate& filter : query.filters) {
    IRES_ASSIGN_OR_RETURN(int t, ResolveColumn(query, out.tables, filter.column));
    const ColumnStats* column =
        out.tables[t]->FindColumn(filter.column.column);
    out.selectivity[t] *= FilterSelectivity(filter, column);
  }
  out.filtered.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.filtered[i].rows =
        std::max(1.0, out.tables[i]->rows * out.selectivity[i]);
    out.filtered[i].row_bytes = out.tables[i]->row_bytes;
  }

  for (const JoinPredicate& join : query.joins) {
    IRES_ASSIGN_OR_RETURN(int lt, ResolveColumn(query, out.tables, join.left));
    IRES_ASSIGN_OR_RETURN(int rt, ResolveColumn(query, out.tables, join.right));
    if (join.op != CompareOp::kEq) {
      // Theta join: selectivity-only (1/3 for ranges, standard default).
      if (lt != rt) {
        out.theta_filters.push_back(
            {(1u << lt) | (1u << rt),
             join.op == CompareOp::kNe ? 0.9 : 1.0 / 3.0});
      }
      continue;
    }
    if (lt == rt) continue;  // same-table predicate, acts as a filter
    ResolvedQuery::Edge edge;
    edge.left_table = lt;
    edge.right_table = rt;
    const ColumnStats* lc = out.tables[lt]->FindColumn(join.left.column);
    const ColumnStats* rc = out.tables[rt]->FindColumn(join.right.column);
    edge.left_distinct = lc ? lc->distinct_values : out.tables[lt]->rows;
    edge.right_distinct = rc ? rc->distinct_values : out.tables[rt]->rows;
    out.adjacency[lt] |= 1u << rt;
    out.adjacency[rt] |= 1u << lt;
    out.edges.push_back(edge);
  }
  return out;
}

bool MaskConnected(uint32_t mask, const std::vector<uint32_t>& adjacency) {
  if (mask == 0) return false;
  const uint32_t start = mask & static_cast<uint32_t>(-static_cast<int32_t>(mask));
  uint32_t reached = start;
  uint32_t frontier = start;
  while (frontier != 0) {
    uint32_t next = 0;
    for (uint32_t rest = frontier; rest != 0; rest &= rest - 1) {
      const int bit = __builtin_ctz(rest);
      next |= adjacency[bit] & mask & ~reached;
    }
    reached |= next;
    frontier = next;
  }
  return reached == mask;
}

// Cardinality of the join over the tables in `mask`: product of filtered
// base cardinalities, divided by max-distinct per connecting equality edge
// (System-R style independence assumptions).
RelationStats SubsetStats(uint32_t mask, const ResolvedQuery& rq) {
  RelationStats stats;
  double rows = 1.0;
  double width = 0.0;
  for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    const int t = __builtin_ctz(rest);
    rows *= rq.filtered[t].rows;
    width += rq.filtered[t].row_bytes;
  }
  for (const ResolvedQuery::Edge& edge : rq.edges) {
    const uint32_t both = (1u << edge.left_table) | (1u << edge.right_table);
    if ((mask & both) != both) continue;
    const double dl =
        std::min(edge.left_distinct, rq.filtered[edge.left_table].rows);
    const double dr =
        std::min(edge.right_distinct, rq.filtered[edge.right_table].rows);
    rows /= std::max(1.0, std::max(dl, dr));
  }
  for (const ResolvedQuery::ThetaFilter& theta : rq.theta_filters) {
    if ((mask & theta.tables_mask) == theta.tables_mask) {
      rows *= theta.selectivity;
    }
  }
  stats.rows = std::max(1.0, rows);
  stats.row_bytes = std::max(1.0, width);
  return stats;
}

struct DpEntry {
  double seconds = kInf;
  int root = -1;  // arena node id
};

}  // namespace

MusqleOptimizer::MusqleOptimizer(
    const Catalog* catalog,
    const std::map<std::string, std::unique_ptr<SqlEngine>>* engines,
    Options options)
    : catalog_(catalog), engines_(engines), options_(options) {}

Result<RelationStats> MusqleOptimizer::EstimateSubset(
    const Query& query, uint32_t table_mask) const {
  IRES_ASSIGN_OR_RETURN(ResolvedQuery rq, Resolve(query, *catalog_));
  return SubsetStats(table_mask, rq);
}

Result<SqlPlan> MusqleOptimizer::Optimize(const Query& query,
                                          OptimizerStats* stats) const {
  const auto wall_start = std::chrono::steady_clock::now();
  IRES_ASSIGN_OR_RETURN(ResolvedQuery rq, Resolve(query, *catalog_));
  const int n = static_cast<int>(rq.tables.size());
  if (n > 20) return Status::InvalidArgument("too many tables (max 20)");
  const uint32_t full = n == 32 ? ~0u : (1u << n) - 1;
  if (n > 1 && !MaskConnected(full, rq.adjacency)) {
    return Status::InvalidArgument(
        "join graph is disconnected (cartesian products are not enumerated)");
  }

  OptimizerStats local_stats;
  OptimizerStats& st = stats != nullptr ? *stats : local_stats;

  std::vector<SqlPlanNode> arena;
  auto new_node = [&](SqlPlanNode node) {
    node.id = static_cast<int>(arena.size());
    arena.push_back(std::move(node));
    return arena.back().id;
  };

  std::vector<std::map<std::string, DpEntry>> dp(full + 1);

  // Base relations: a scan at each table's home engine. A table homed at
  // "*" is replicated in every federated engine (MuSQLE Fig. 7 setup) and
  // seeds one scan entry per engine.
  for (int t = 0; t < n; ++t) {
    const TableDef* table = rq.tables[t];
    std::vector<std::string> homes;
    if (table->engine == "*") {
      for (const auto& [name, engine] : *engines_) homes.push_back(name);
    } else {
      if (engines_->find(table->engine) == engines_->end()) {
        return Status::NotFound("engine " + table->engine + " (holding " +
                                table->name + ") is not federated");
      }
      homes.push_back(table->engine);
    }
    RelationStats raw{table->rows, table->row_bytes};
    for (const std::string& home : homes) {
      const SqlEngine& engine = *engines_->at(home);
      if (!engine.Feasible(raw.bytes())) continue;
      const double seconds = engine.ScanSeconds(raw, rq.selectivity[t]);
      ++st.explain_calls;
      SqlPlanNode node;
      node.kind = SqlPlanNode::Kind::kScan;
      node.engine = home;
      node.table = table->name;
      node.output = rq.filtered[t];
      node.seconds = seconds;
      DpEntry entry;
      entry.seconds = seconds;
      entry.root = new_node(std::move(node));
      dp[1u << t][home] = entry;
    }
    if (dp[1u << t].empty()) {
      return Status::ResourceExhausted("no engine can scan " + table->name);
    }
    // Bulk replication: any other engine may import the raw table and scan
    // it locally (what the single-engine baselines do); this keeps every
    // single-engine plan inside the multi-engine search space.
    for (const auto& [engine_name, engine] : *engines_) {
      if (dp[1u << t].count(engine_name) > 0) continue;
      if (!engine->Feasible(raw.bytes())) continue;
      const double load = engine->LoadSeconds(raw);
      const double scan = engine->ScanSeconds(raw, rq.selectivity[t]);
      ++st.load_cost_calls;
      ++st.inject_calls;
      ++st.explain_calls;
      SqlPlanNode move;
      move.kind = SqlPlanNode::Kind::kMove;
      move.engine = engine_name;
      move.table = table->name;
      move.output = raw;
      move.seconds = load;
      const int move_id = new_node(std::move(move));
      SqlPlanNode node;
      node.kind = SqlPlanNode::Kind::kScan;
      node.engine = engine_name;
      node.table = table->name;
      node.children = {move_id};
      node.output = rq.filtered[t];
      node.seconds = scan;
      DpEntry entry;
      entry.seconds = load + scan;
      entry.root = new_node(std::move(node));
      dp[1u << t][engine_name] = entry;
    }
  }

  // emitCsgCmp (MuSQLE Algorithm 1): price joining the plans of a connected
  // subgraph and its connected complement on every engine, moving and
  // stat-injecting whichever side lives elsewhere.
  auto emit_csg_cmp = [&](uint32_t s1, uint32_t s2) {
    const uint32_t mask = s1 | s2;
    if (dp[s1].empty() || dp[s2].empty()) return;
    const RelationStats out_stats = SubsetStats(mask, rq);
    {
      for (const auto& [engine_name, engine] : *engines_) {
        for (const auto& [e1, p1] : dp[s1]) {
          for (const auto& [e2, p2] : dp[s2]) {
            // Copies: new_node below may reallocate the arena.
            const RelationStats out1 = arena[p1.root].output;
            const RelationStats out2 = arena[p2.root].output;
            if (!engine->Feasible(out1.bytes() + out2.bytes() +
                                  out_stats.bytes())) {
              continue;
            }
            double extra = 0.0;
            int child1 = p1.root;
            int child2 = p2.root;
            if (e1 != engine_name) {
              const double load = engine->LoadSeconds(out1);
              ++st.load_cost_calls;
              ++st.inject_calls;
              extra += load;
              SqlPlanNode move;
              move.kind = SqlPlanNode::Kind::kMove;
              move.engine = engine_name;
              move.children = {child1};
              move.output = out1;
              move.seconds = load;
              child1 = new_node(std::move(move));
            }
            if (e2 != engine_name) {
              const double load = engine->LoadSeconds(out2);
              ++st.load_cost_calls;
              ++st.inject_calls;
              extra += load;
              SqlPlanNode move;
              move.kind = SqlPlanNode::Kind::kMove;
              move.engine = engine_name;
              move.children = {child2};
              move.output = out2;
              move.seconds = load;
              child2 = new_node(std::move(move));
            }
            const double join_seconds =
                engine->JoinSeconds(out1, out2, out_stats);
            ++st.explain_calls;
            const double total =
                p1.seconds + p2.seconds + extra + join_seconds;
            DpEntry& slot = dp[mask][engine_name];
            if (total < slot.seconds) {
              SqlPlanNode join;
              join.kind = SqlPlanNode::Kind::kJoin;
              join.engine = engine_name;
              join.children = {child1, child2};
              join.output = out_stats;
              join.seconds = join_seconds;
              slot.seconds = total;
              slot.root = new_node(std::move(join));
            }
          }
        }
      }
    }
  };

  switch (options_.enumeration) {
    case Enumeration::kSubmask: {
      // Ascending masks guarantee sub-plans exist before they are used.
      for (uint32_t mask = 1; mask <= full; ++mask) {
        if (__builtin_popcount(mask) < 2) continue;
        if (!MaskConnected(mask, rq.adjacency)) continue;
        const uint32_t low =
            mask & static_cast<uint32_t>(-static_cast<int32_t>(mask));
        for (uint32_t s1 = (mask - 1) & mask; s1 != 0;
             s1 = (s1 - 1) & mask) {
          if ((s1 & low) == 0) continue;  // canonical: csg holds low bit
          const uint32_t s2 = mask ^ s1;
          if (!MaskConnected(s1, rq.adjacency) ||
              !MaskConnected(s2, rq.adjacency)) {
            continue;
          }
          bool linked = false;
          for (const ResolvedQuery::Edge& edge : rq.edges) {
            const uint32_t l = 1u << edge.left_table;
            const uint32_t r = 1u << edge.right_table;
            if (((l & s1) && (r & s2)) || ((l & s2) && (r & s1))) {
              linked = true;
              break;
            }
          }
          if (linked) emit_csg_cmp(s1, s2);
        }
      }
      break;
    }
    case Enumeration::kDpccp: {
      // DPccp emits each pair exactly once but not in subset-size order;
      // sort by the union's population so the DP sees sub-plans first.
      std::vector<std::pair<uint32_t, uint32_t>> pairs;
      EnumerateCsgCmpPairs(rq.adjacency, n, [&](uint32_t s1, uint32_t s2) {
        pairs.emplace_back(s1, s2);
      });
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) {
                  const int pa = __builtin_popcount(a.first | a.second);
                  const int pb = __builtin_popcount(b.first | b.second);
                  if (pa != pb) return pa < pb;
                  return a < b;
                });
      for (const auto& [s1, s2] : pairs) emit_csg_cmp(s1, s2);
      break;
    }
    case Enumeration::kLeftDeep: {
      // One side of every join is a single base relation.
      for (uint32_t mask = 1; mask <= full; ++mask) {
        if (__builtin_popcount(mask) < 2) continue;
        if (!MaskConnected(mask, rq.adjacency)) continue;
        for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
          const uint32_t s2 = rest & static_cast<uint32_t>(
                                         -static_cast<int32_t>(rest));
          const uint32_t s1 = mask ^ s2;
          if (s1 == 0 || !MaskConnected(s1, rq.adjacency)) continue;
          // s2 is a singleton; it links iff its adjacency touches s1.
          if ((rq.adjacency[__builtin_ctz(s2)] & s1) == 0) continue;
          emit_csg_cmp(s1, s2);
        }
      }
      break;
    }
  }

  const auto& final_entries = dp[full];
  if (final_entries.empty()) {
    return Status::FailedPrecondition("no feasible multi-engine plan");
  }
  auto best = final_entries.begin();
  for (auto it = final_entries.begin(); it != final_entries.end(); ++it) {
    if (it->second.seconds < best->second.seconds) best = it;
  }

  // Extract the reachable subtree into a compact plan.
  SqlPlan plan;
  std::map<int, int> remap;
  std::function<int(int)> extract = [&](int arena_id) -> int {
    auto it = remap.find(arena_id);
    if (it != remap.end()) return it->second;
    SqlPlanNode node = arena[arena_id];
    std::vector<int> children;
    for (int child : node.children) children.push_back(extract(child));
    node.children = std::move(children);
    node.id = static_cast<int>(plan.nodes.size());
    remap[arena_id] = node.id;
    plan.nodes.push_back(std::move(node));
    return plan.nodes.back().id;
  };
  plan.root = extract(best->second.root);
  plan.total_seconds = best->second.seconds;
  plan.result_engine = best->first;

  st.enumeration_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  st.modeled_explain_seconds = st.explain_calls * options_.explain_call_seconds;
  st.modeled_inject_seconds = st.inject_calls * options_.inject_call_seconds;
  return plan;
}

Result<SqlPlan> MusqleOptimizer::PlanSingleEngine(
    const Query& query, const std::string& engine_name) const {
  auto engine_it = engines_->find(engine_name);
  if (engine_it == engines_->end()) {
    return Status::NotFound("engine: " + engine_name);
  }
  const SqlEngine& engine = *engine_it->second;
  IRES_ASSIGN_OR_RETURN(ResolvedQuery rq, Resolve(query, *catalog_));

  // Feasibility of hosting the entire working set in one engine: raw tables
  // plus join intermediates (~2x the raw bytes).
  double raw_bytes = 0.0;
  for (const TableDef* table : rq.tables) raw_bytes += table->bytes();
  if (!engine.Feasible(raw_bytes * 2.0)) {
    return Status::ResourceExhausted(engine_name +
                                     " cannot hold the query working set");
  }

  // Clone the catalog with every table homed at `engine_name` and charge
  // the load costs for the shipped tables.
  Catalog moved;
  double load_seconds = 0.0;
  int moved_tables = 0;
  for (const TableDef* table : rq.tables) {
    TableDef copy = *table;
    if (copy.engine == "*") {
      copy.engine = engine_name;  // replicated: already resident
    } else if (copy.engine != engine_name) {
      load_seconds += engine.LoadSeconds({copy.rows, copy.row_bytes});
      copy.engine = engine_name;
      ++moved_tables;
    }
    IRES_RETURN_IF_ERROR(moved.AddTable(std::move(copy)));
  }
  std::map<std::string, std::unique_ptr<SqlEngine>> solo;
  // Restricted optimizer view: a single-engine fleet. SqlEngine instances
  // are shared-nothing cost models, so rebuilding them is safe.
  auto fleet = MakeStandardSqlEngines();
  auto self = fleet.find(engine_name);
  if (self == fleet.end()) return Status::NotFound("engine: " + engine_name);
  solo[engine_name] = std::move(self->second);

  MusqleOptimizer local(&moved, &solo, options_);
  IRES_ASSIGN_OR_RETURN(SqlPlan plan, local.Optimize(query));

  if (moved_tables > 0) {
    // Account the initial shipment as a move node under the root.
    SqlPlanNode move;
    move.id = static_cast<int>(plan.nodes.size());
    move.kind = SqlPlanNode::Kind::kMove;
    move.engine = engine_name;
    move.table = "(initial table shipment x" +
                 std::to_string(moved_tables) + ")";
    move.children = {plan.root};
    move.output = plan.nodes[plan.root].output;
    move.seconds = load_seconds;
    plan.nodes.push_back(std::move(move));
    plan.root = plan.nodes.back().id;
    plan.total_seconds += load_seconds;
  }
  return plan;
}

SqlExecutionOutcome SimulateSqlPlan(
    const SqlPlan& plan,
    const std::map<std::string, std::unique_ptr<SqlEngine>>& engines,
    Rng* rng) {
  SqlExecutionOutcome outcome;
  std::vector<double> finish(plan.nodes.size(), 0.0);
  // Nodes are emitted children-before-parents within each reachable
  // subtree, but verify via recursion for safety.
  std::function<double(int)> run = [&](int id) -> double {
    const SqlPlanNode& node = plan.nodes[id];
    double ready = 0.0;
    for (int child : node.children) ready = std::max(ready, run(child));
    if (finish[id] > 0.0) return finish[id];  // shared subtree: run once
    double factor = 1.0;
    auto it = engines.find(node.engine);
    if (it != engines.end()) factor = it->second->TruthFactor(rng);
    const double actual = node.seconds * factor;
    outcome.busy_seconds += actual;
    finish[id] = ready + actual;
    return finish[id];
  };
  if (plan.root >= 0) outcome.makespan_seconds = run(plan.root);
  return outcome;
}

double ExecutePlanGroundTruth(
    const SqlPlan& plan,
    const std::map<std::string, std::unique_ptr<SqlEngine>>& engines,
    Rng* rng) {
  return SimulateSqlPlan(plan, engines, rng).busy_seconds;
}

}  // namespace ires::sql
