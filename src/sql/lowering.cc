#include "sql/lowering.h"

#include <cstdio>

namespace ires::sql {

namespace {

// The standard federated fleet and the workflow engines hosting it. SparkSQL
// queries run inside the Spark engine; its tables live on HDFS.
struct EngineMapping {
  const char* sql_engine;
  const char* workflow_engine;
  const char* store;
};
constexpr EngineMapping kEngineMap[] = {
    {"PostgreSQL", "PostgreSQL", "PostgreSQL"},
    {"MemSQL", "MemSQL", "MemSQL"},
    {"SparkSQL", "Spark", "HDFS"},
};

const EngineMapping* FindMapping(const std::string& sql_engine) {
  for (const EngineMapping& m : kEngineMap) {
    if (sql_engine == m.sql_engine) return &m;
  }
  return nullptr;
}

const char* AlgorithmFor(SqlPlanNode::Kind kind) {
  switch (kind) {
    case SqlPlanNode::Kind::kScan: return "SqlScan";
    case SqlPlanNode::Kind::kJoin: return "SqlJoin";
    case SqlPlanNode::Kind::kMove: return "SqlMove";
  }
  return "SqlScan";
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string TableDatasetName(const std::string& table) {
  return "sql_table_" + table;
}

}  // namespace

std::string QueryShape(const Query& query) {
  std::string out = "select";
  for (const ColumnRef& col : query.select) out += " " + col.ToString();
  if (query.select.empty()) out += " *";
  out += "|from";
  for (const std::string& table : query.tables) out += " " + table;
  out += "|join";
  for (const JoinPredicate& join : query.joins) {
    out += " " + join.left.ToString() + CompareOpToString(join.op) +
           join.right.ToString();
  }
  out += "|filter";
  // Literals are normalized away: `price < 100` and `price < 5000` are the
  // same shape (the cost model never reads the literal value).
  for (const FilterPredicate& filter : query.filters) {
    out += " " + filter.column.ToString() + CompareOpToString(filter.op) + "?";
  }
  return out;
}

uint64_t QueryShapeHash(const Query& query) {
  return Fnv1a(QueryShape(query));
}

std::string QueryShapeId(const Query& query) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sqlq_%016llx",
                static_cast<unsigned long long>(QueryShapeHash(query)));
  return buf;
}

Result<std::string> WorkflowEngineFor(const std::string& sql_engine) {
  const EngineMapping* mapping = FindMapping(sql_engine);
  if (mapping == nullptr) {
    return Status::NotFound("no workflow engine hosts SQL engine '" +
                            sql_engine + "'");
  }
  return std::string(mapping->workflow_engine);
}

int EnsureSqlOperators(OperatorLibrary* library) {
  struct Shape {
    const char* algorithm;
    int inputs;
  };
  constexpr Shape kShapes[] = {
      {"SqlScan", 1}, {"SqlJoin", 2}, {"SqlMove", 1}};
  int added = 0;
  for (const EngineMapping& mapping : kEngineMap) {
    for (const Shape& shape : kShapes) {
      const std::string name =
          std::string(shape.algorithm) + "_" + mapping.workflow_engine;
      if (library->FindMaterializedByName(name) != nullptr) continue;
      MetadataTree meta;
      meta.Set("Constraints.OpSpecification.Algorithm.name", shape.algorithm);
      meta.Set("Constraints.Engine", mapping.workflow_engine);
      meta.Set("Constraints.Input.number", std::to_string(shape.inputs));
      meta.Set("Constraints.Output.number", "1");
      // No input store constraints: the federated plan already contains
      // every required SqlMove, so the DP planner must not inject moves of
      // its own on top.
      meta.Set("Constraints.Output0.Engine.FS", mapping.store);
      meta.Set("Constraints.Output0.type", "relation");
      if (library->AddMaterialized(MaterializedOperator(name, meta)).ok()) {
        ++added;
      }
    }
  }
  return added;
}

Status EnsureTableDataset(const Catalog& catalog, const std::string& table,
                          OperatorLibrary* library) {
  const std::string name = TableDatasetName(table);
  if (library->FindDatasetByName(name) != nullptr) return Status::OK();
  const TableDef* def = catalog.FindTable(table);
  if (def == nullptr) return Status::NotFound("table: " + table);
  // Replicated tables ("*") expose their HDFS copy as the canonical source.
  const EngineMapping* mapping = FindMapping(def->engine);
  const std::string store = mapping != nullptr ? mapping->store : "HDFS";
  const std::string sql_engine =
      mapping != nullptr ? def->engine : std::string("SparkSQL");
  MetadataTree meta;
  meta.Set("Constraints.Engine.FS", store);
  meta.Set("Constraints.type", "relation");
  meta.Set("Execution.path", "sql://" + sql_engine + "/" + table);
  Dataset dataset(name, meta);
  dataset.set_size_bytes(def->bytes());
  dataset.set_record_count(def->rows);
  const Status added = library->AddDataset(std::move(dataset));
  // A concurrent first request registered the same deterministic dataset
  // between the lookup above and the add.
  return added.code() == StatusCode::kAlreadyExists ? Status::OK() : added;
}

Result<LoweredWorkflow> LowerSqlPlan(const Query& query, const SqlPlan& plan,
                                     const Catalog& catalog,
                                     OperatorLibrary* library) {
  if (plan.root < 0 || plan.nodes.empty()) {
    return Status::InvalidArgument("cannot lower an empty SQL plan");
  }
  LoweredWorkflow out;
  out.shape = QueryShape(query);
  out.shape_id = QueryShapeId(query);
  out.result_engine = plan.result_engine;
  out.new_registrations = EnsureSqlOperators(library);

  for (const SqlPlanNode& node : plan.nodes) {
    const std::string op_name =
        out.shape_id + "_n" + std::to_string(node.id);
    const std::string ds_name =
        out.shape_id + "_d" + std::to_string(node.id);
    IRES_ASSIGN_OR_RETURN(std::string engine, WorkflowEngineFor(node.engine));
    switch (node.kind) {
      case SqlPlanNode::Kind::kScan: ++out.scan_ops; break;
      case SqlPlanNode::Kind::kJoin: ++out.join_ops; break;
      case SqlPlanNode::Kind::kMove: ++out.move_ops; break;
    }

    // Per-instance abstract operator, engine-pinned to MuSQLE's choice.
    // First sighting of a shape registers them; later sightings find them
    // already present and leave the library version untouched. Concurrent
    // first sightings race to add the same deterministic abstract, and the
    // loser treats AlreadyExists like a later sighting does.
    if (library->FindAbstractByName(op_name) == nullptr) {
      const int inputs =
          node.children.empty() ? 1 : static_cast<int>(node.children.size());
      MetadataTree meta;
      meta.Set("Constraints.OpSpecification.Algorithm.name",
               AlgorithmFor(node.kind));
      meta.Set("Constraints.Engine", engine);
      meta.Set("Constraints.Input.number", std::to_string(inputs));
      meta.Set("Constraints.Output.number", "1");
      const Status added =
          library->AddAbstract(AbstractOperator(op_name, meta));
      if (added.ok()) {
        ++out.new_registrations;
      } else if (added.code() != StatusCode::kAlreadyExists) {
        return added;
      }
    }

    out.graph.AddOperator(op_name);
    if (node.children.empty()) {
      // Leaf scans and replication moves read the base table.
      if (node.table.empty()) {
        return Status::Internal("leaf plan node " + std::to_string(node.id) +
                                " names no table");
      }
      IRES_RETURN_IF_ERROR(EnsureTableDataset(catalog, node.table, library));
      const std::string table_ds = TableDatasetName(node.table);
      out.graph.AddDataset(table_ds);
      IRES_RETURN_IF_ERROR(out.graph.Connect(table_ds, op_name, 0));
    } else {
      for (size_t port = 0; port < node.children.size(); ++port) {
        // plan.nodes is in bottom-up extraction order: children always
        // precede their parent, so the child's dataset node already exists.
        const std::string child_ds =
            out.shape_id + "_d" + std::to_string(node.children[port]);
        IRES_RETURN_IF_ERROR(
            out.graph.Connect(child_ds, op_name, static_cast<int>(port)));
      }
    }
    out.graph.AddDataset(ds_name);
    IRES_RETURN_IF_ERROR(out.graph.Connect(op_name, ds_name, 0));
  }

  out.target = out.shape_id + "_d" + std::to_string(plan.root);
  IRES_RETURN_IF_ERROR(out.graph.SetTarget(out.target));
  return out;
}

}  // namespace ires::sql
