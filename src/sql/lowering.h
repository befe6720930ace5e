#ifndef IRES_SQL_LOWERING_H_
#define IRES_SQL_LOWERING_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "operators/operator_library.h"
#include "sql/catalog.h"
#include "sql/musqle_optimizer.h"
#include "sql/sql_parser.h"
#include "workflow/workflow_graph.h"

namespace ires::sql {

/// Canonical *shape* of a query: the query text with every literal replaced
/// by `?`. Two queries that differ only in literal values share a shape —
/// and, because the optimizer's selectivity model depends on operators and
/// column statistics but never on literal values, they share an optimal
/// plan. The shape is the unit of plan-cache reuse for SQL.
std::string QueryShape(const Query& query);

/// FNV-1a hash of QueryShape(query).
uint64_t QueryShapeHash(const Query& query);

/// Stable identifier `sqlq_<16 hex digits>` used to name the lowered
/// workflow and its graph nodes.
std::string QueryShapeId(const Query& query);

/// Maps a MuSQLE federated-engine name ("PostgreSQL", "MemSQL", "SparkSQL")
/// to the workflow-layer execution engine that hosts it. Fails on names
/// outside the standard fleet.
Result<std::string> WorkflowEngineFor(const std::string& sql_engine);

/// Registers the shared SQL operator implementations (SqlScan / SqlJoin /
/// SqlMove on each hosting engine) in `library`. Idempotent: operators
/// already present are skipped, so repeat calls never bump the library
/// version (which would invalidate the plan cache). Returns the number of
/// operators actually added.
int EnsureSqlOperators(OperatorLibrary* library);

/// Registers the materialized base-table dataset `sql_table_<name>` for
/// `table` (location, store, size and cardinality from the catalog).
/// Idempotent like EnsureSqlOperators, also when a concurrent caller
/// registers the same table first.
Status EnsureTableDataset(const Catalog& catalog, const std::string& table,
                          OperatorLibrary* library);

/// A federated SqlPlan lowered onto the IReS workflow stack.
struct LoweredWorkflow {
  WorkflowGraph graph;
  std::string shape_id;     // sqlq_<hash> — prefix of every node name
  std::string shape;        // canonical shape string (QueryShape)
  std::string target;       // name of the target dataset node
  std::string result_engine;
  /// Library artefacts registered by this lowering. 0 means every artefact
  /// already existed — the library version did not move, so a previously
  /// cached plan for this shape is served warm.
  int new_registrations = 0;
  int scan_ops = 0;
  int join_ops = 0;
  int move_ops = 0;
};

/// Lowers an optimized SqlPlan into a WorkflowGraph submittable through the
/// ordinary serving stack. Every plan node becomes one operator node named
/// `<shape_id>_n<k>` producing dataset `<shape_id>_d<k>`; scans and
/// replication moves read the registered base-table datasets. Each operator
/// carries an abstract pattern pinning `Constraints.Engine` to the engine
/// MuSQLE chose, so the DP planner resolves exactly one candidate per node
/// and injects no extra moves — MuSQLE's move nodes are already explicit
/// SqlMove operators. Per-shape abstracts are registered on first sighting
/// only; re-lowering the same shape registers nothing.
Result<LoweredWorkflow> LowerSqlPlan(const Query& query, const SqlPlan& plan,
                                     const Catalog& catalog,
                                     OperatorLibrary* library);

}  // namespace ires::sql

#endif  // IRES_SQL_LOWERING_H_
