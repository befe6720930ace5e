// End-to-end suite for the SQL front door: POST /apiv1/sql parses a TPC-H
// query, runs the MuSQLE optimizer, lowers the federated plan onto the
// workflow stack and executes it through the ordinary serving machinery —
// admission control, static analysis, plan cache, metrics and the jobs
// surface all apply. Also covers the structured request-options body shared
// with the execute route, and the JSON request parser behind both.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/request_options.h"
#include "core/rest_api.h"
#include "service/job_service.h"
#include "service/sql_service.h"
#include "sql/lowering.h"
#include "sql/sql_parser.h"
#include "sql/tpch_queries.h"

namespace ires {
namespace {

// ------------------------------------------------------------ JSON parser

TEST(JsonValueTest, ParsesNestedDocument) {
  auto parsed = JsonValue::Parse(
      "{\"a\": 1.5, \"b\": [true, null, \"x\\ny\"], \"c\": {\"d\": -2e3}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetNumber("a", 0), 1.5);
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array().size(), 3u);
  EXPECT_TRUE(b->array()[0].bool_value());
  EXPECT_TRUE(b->array()[1].is_null());
  EXPECT_EQ(b->array()[2].string_value(), "x\ny");
  const JsonValue* c = v.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->GetNumber("d", 0), -2000.0);
}

TEST(JsonValueTest, DecodesUnicodeEscapes) {
  auto parsed = JsonValue::Parse("\"caf\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string_value(), "caf\xc3\xa9");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("01").ok());
}

TEST(JsonValueTest, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  auto parsed = JsonValue::Parse(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- shape fingerprint

TEST(QueryShapeTest, LiteralsNormalizeToSameShape) {
  auto a = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000");
  auto b = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 17");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(sql::QueryShape(a.value()), sql::QueryShape(b.value()));
  EXPECT_EQ(sql::QueryShapeId(a.value()), sql::QueryShapeId(b.value()));
}

TEST(QueryShapeTest, StructureChangesTheShape) {
  auto base = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000");
  auto different_op = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal < 9000");
  auto different_tables = sql::SqlParser::Parse(
      "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(different_op.ok());
  ASSERT_TRUE(different_tables.ok());
  EXPECT_NE(sql::QueryShape(base.value()),
            sql::QueryShape(different_op.value()));
  EXPECT_NE(sql::QueryShape(base.value()),
            sql::QueryShape(different_tables.value()));
}

// ---------------------------------------------------------------- lowering

TEST(SqlLoweringTest, EnsureSqlOperatorsIsIdempotent) {
  IresServer server;
  EXPECT_EQ(sql::EnsureSqlOperators(&server.library()), 9);
  EXPECT_EQ(sql::EnsureSqlOperators(&server.library()), 0);
}

TEST(SqlLoweringTest, LoweredGraphPassesTheWorkflowLinter) {
  IresServer server;
  SqlService svc(&server);
  std::vector<Diagnostic> diagnostics;
  auto prepared = svc.Prepare(
      "SELECT * FROM customer, orders, lineitem WHERE "
      "c_custkey = o_custkey AND o_orderkey = l_orderkey",
      &diagnostics);
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  EXPECT_TRUE(diagnostics.empty());
  const SqlService::PreparedQuery& pq = prepared.value();
  // Three base relations -> at least 2 joins; the exact split between
  // scans and moves is the optimizer's call.
  EXPECT_EQ(pq.join_ops, 2);
  EXPECT_GE(pq.scan_ops + pq.move_ops, 3);
  EXPECT_FALSE(pq.shape_cache_hit);
  const std::vector<Diagnostic> findings = server.ValidateWorkflow(pq.graph);
  EXPECT_FALSE(HasErrors(findings)) << RenderJson(findings);
}

TEST(SqlServiceTest, ShapeCacheHitsOnDifferentLiterals) {
  IresServer server;
  SqlService svc(&server);
  std::vector<Diagnostic> diagnostics;
  auto first = svc.Prepare(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000",
      &diagnostics);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_FALSE(first.value().shape_cache_hit);
  auto second = svc.Prepare(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 42",
      &diagnostics);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().shape_cache_hit);
  EXPECT_EQ(second.value().shape_id, first.value().shape_id);
  EXPECT_EQ(svc.shape_cache_size(), 1u);
}

TEST(SqlServiceTest, RejectionsCarryStructuredDiagnostics) {
  IresServer server;
  SqlService svc(&server);
  std::vector<Diagnostic> diagnostics;
  auto bad_syntax = svc.Prepare("SELEC * FRM nowhere", &diagnostics);
  ASSERT_FALSE(bad_syntax.ok());
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, diag::kSqlParseError);

  diagnostics.clear();
  auto bad_table = svc.Prepare(
      "SELECT * FROM nosuchtable, orders WHERE x_key = o_custkey",
      &diagnostics);
  ASSERT_FALSE(bad_table.ok());
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, diag::kSqlUnknownName);
}

// --------------------------------------------------------- REST: /apiv1/sql

class SqlApiTest : public ::testing::Test {
 protected:
  SqlApiTest() : jobs_(&server_), api_(&server_, &jobs_) {}

  IresServer server_;
  JobService jobs_;
  RestApi api_;
};

TEST_F(SqlApiTest, RunsTpchQueriesSynchronously) {
  const std::vector<std::string> queries = sql::MusqleQuerySet();
  // Q0 (2-way), Q5 (3-way) and Q11 (join + filter) — small enough to keep
  // the suite fast, together covering scans, joins and moves.
  for (const int q : {0, 5, 11}) {
    ApiResponse response = api_.Handle("POST", "/apiv1/sql", queries[q]);
    ASSERT_EQ(response.code, 200) << "Q" << q << ": " << response.body;
    EXPECT_NE(response.body.find("\"shapeId\":\"sqlq_"), std::string::npos);
    EXPECT_NE(response.body.find("\"executionSeconds\":"), std::string::npos);
    EXPECT_NE(response.body.find("\"resultEngine\":"), std::string::npos);
  }
}

TEST_F(SqlApiTest, AsyncSubmissionRunsThroughTheJobsSurface) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql?mode=async",
      "SELECT * FROM customer, nation WHERE c_nationkey = n_nationkey");
  ASSERT_EQ(response.code, 202) << response.body;
  const size_t at = response.body.find("\"jobId\":\"");
  ASSERT_NE(at, std::string::npos) << response.body;
  const size_t start = at + 9;
  const std::string job_id =
      response.body.substr(start, response.body.find('"', start) - start);
  ASSERT_TRUE(jobs_.WaitForIdle(30.0));

  ApiResponse record = api_.Handle("GET", "/apiv1/jobs/" + job_id);
  ASSERT_EQ(record.code, 200);
  EXPECT_NE(record.body.find("\"state\":\"SUCCEEDED\""), std::string::npos)
      << record.body;
  // The job is named after the query shape, so SQL work is recognizable in
  // the job listing.
  EXPECT_NE(record.body.find("\"workflow\":\"sqlq_"), std::string::npos);
  ApiResponse listing = api_.Handle("GET", "/apiv1/jobs");
  EXPECT_NE(listing.body.find(job_id), std::string::npos);
}

TEST_F(SqlApiTest, ModeCanComeFromTheOptionsBody) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"execution\":{\"mode\":\"async\"},"
      "\"retry\":{\"attempts\":2}}}");
  ASSERT_EQ(response.code, 202) << response.body;
  EXPECT_NE(response.body.find("\"jobId\":\""), std::string::npos);
  // Structured body, no legacy parameters -> no deprecation warnings.
  EXPECT_EQ(response.body.find("\"warnings\""), std::string::npos);
  ASSERT_TRUE(jobs_.WaitForIdle(30.0));
}

TEST_F(SqlApiTest, MalformedSqlYieldsStructured422) {
  ApiResponse response =
      api_.Handle("POST", "/apiv1/sql", "SELEC oops FRM nowhere");
  ASSERT_EQ(response.code, 422) << response.body;
  EXPECT_NE(response.body.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"SQ001\""), std::string::npos);
}

TEST_F(SqlApiTest, UnknownTableYields422WithUnknownNameCode) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql",
      "SELECT * FROM martians, orders WHERE m_key = o_custkey");
  ASSERT_EQ(response.code, 422) << response.body;
  EXPECT_NE(response.body.find("\"SQ002\""), std::string::npos);
}

TEST_F(SqlApiTest, EmptyQueryIsRejected) {
  EXPECT_EQ(api_.Handle("POST", "/apiv1/sql", "   ").code, 400);
  EXPECT_EQ(api_.Handle("POST", "/apiv1/sql", "{\"options\":{}}").code, 400);
}

TEST_F(SqlApiTest, RepeatedShapeHitsBothCachesWarm) {
  ApiResponse cold = api_.Handle(
      "POST", "/apiv1/sql",
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000");
  ASSERT_EQ(cold.code, 200) << cold.body;
  EXPECT_NE(cold.body.find("\"shapeCacheHit\":false"), std::string::npos);
  EXPECT_NE(cold.body.find("\"planCacheHit\":false"), std::string::npos);

  // Same shape, different literal: optimize/lower are skipped (shape cache)
  // and no artefact registration moved the library version, so the DP
  // planner's PlanCache serves the execution plan warm too.
  ApiResponse warm = api_.Handle(
      "POST", "/apiv1/sql",
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 123");
  ASSERT_EQ(warm.code, 200) << warm.body;
  EXPECT_NE(warm.body.find("\"shapeCacheHit\":true"), std::string::npos);
  EXPECT_NE(warm.body.find("\"planCacheHit\":true"), std::string::npos);
}

TEST_F(SqlApiTest, ConcurrentFirstRequestsOfOneShapeAllSucceed) {
  // Eight first sightings of one novel shape race through optimize and
  // lowering, each registering the same table datasets and per-shape
  // abstracts. Losing a registration race is a later sighting, not a 409.
  const std::string query = sql::MusqleQuerySet()[5];
  constexpr int kClients = 8;
  std::atomic<int> ready{0};
  std::vector<ApiResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      responses[c] = api_.Handle("POST", "/apiv1/sql", query);
    });
  }
  for (std::thread& t : clients) t.join();
  for (const ApiResponse& response : responses) {
    EXPECT_EQ(response.code, 200) << response.body;
  }
}

TEST_F(SqlApiTest, SqlTrafficShowsUpInMetrics) {
  ASSERT_EQ(api_.Handle("POST", "/apiv1/sql",
                        "SELECT * FROM nation, region WHERE "
                        "n_regionkey = r_regionkey")
                .code,
            200);
  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  ASSERT_EQ(metrics.code, 200);
  EXPECT_NE(metrics.body.find("ires_sql_queries_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("ires_sql_shape_cache_misses_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ires_sql_optimize_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ires_sql_lowered_nodes_total"),
            std::string::npos);
}

// ------------------------------------------- structured execution options

TEST_F(SqlApiTest, LegacyQueryParametersWarnButWork) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql?maxReplans=2&retryAttempts=2",
      "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey");
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"warnings\":["), std::string::npos);
  EXPECT_NE(response.body.find("'maxReplans' is deprecated"),
            std::string::npos);
  EXPECT_NE(response.body.find("options.retry.attempts"), std::string::npos);
}

TEST_F(SqlApiTest, MixingLegacyParametersWithOptionsBodyIsRejected) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql?maxReplans=2",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"retry\":{\"attempts\":2}}}");
  EXPECT_EQ(response.code, 400);
  EXPECT_NE(response.body.find("both as query parameters"),
            std::string::npos);
}

TEST_F(SqlApiTest, UnknownOptionKeysAreRejectedNotIgnored) {
  ApiResponse typo_section = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\",\"options\":{\"retyr\":{}}}");
  EXPECT_EQ(typo_section.code, 400);
  ApiResponse typo_key = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"retry\":{\"atempts\":3}}}");
  EXPECT_EQ(typo_key.code, 400);
  ApiResponse out_of_range = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"chaos\":{\"transient\":1.5}}}");
  EXPECT_EQ(out_of_range.code, 400);
  ApiResponse bad_query_key =
      api_.Handle("POST", "/apiv1/sql?chaosBanana=1",
                  "SELECT * FROM nation, region WHERE "
                  "n_regionkey = r_regionkey");
  EXPECT_EQ(bad_query_key.code, 400);
}

TEST_F(SqlApiTest, ExecuteRouteSharesTheOptionsParser) {
  // The workflow execute route accepts the same structured body; a legacy
  // tuning parameter on it draws the same deprecation warning.
  ASSERT_EQ(api_.Handle("POST", "/apiv1/datasets/asapServerLog",
                        "Constraints.Engine.FS=HDFS\n"
                        "Execution.path=hdfs:///log\n"
                        "Optimization.size=5e8\n")
                .code,
            201);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/abstractOperators/LineCount",
                        "Constraints.OpSpecification.Algorithm.name="
                        "LineCount\n")
                .code,
            201);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/operators/LineCount_Spark",
                        "Constraints.Engine=Spark\n"
                        "Constraints.OpSpecification.Algorithm.name="
                        "LineCount\n"
                        "Constraints.Input0.Engine.FS=HDFS\n"
                        "Constraints.Output0.Engine.FS=HDFS\n")
                .code,
            201);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/lc",
                        "asapServerLog,LineCount,0\n"
                        "LineCount,d1,0\n"
                        "d1,$$target\n")
                .code,
            201);

  ApiResponse legacy =
      api_.Handle("POST", "/apiv1/workflows/lc/execute?maxReplans=1");
  ASSERT_EQ(legacy.code, 200) << legacy.body;
  EXPECT_NE(legacy.body.find("'maxReplans' is deprecated"),
            std::string::npos);

  ApiResponse structured = api_.Handle(
      "POST", "/apiv1/workflows/lc/execute",
      "{\"options\":{\"execution\":{\"maxReplans\":1},"
      "\"retry\":{\"attempts\":2,\"backoffSeconds\":0}}}");
  ASSERT_EQ(structured.code, 200) << structured.body;
  EXPECT_EQ(structured.body.find("\"warnings\""), std::string::npos);

  ApiResponse conflict = api_.Handle(
      "POST", "/apiv1/workflows/lc/execute?maxReplans=1",
      "{\"options\":{\"retry\":{\"attempts\":2}}}");
  EXPECT_EQ(conflict.code, 400);
}

// ------------------------------------------------- route label cardinality

TEST_F(SqlApiTest, UnknownActionSegmentsCollapseInRouteLabels) {
  // Arbitrary trailing segments must not mint new metric label values:
  // only the fixed action vocabulary passes through NormalizeRoute.
  (void)api_.Handle("GET", "/apiv1/jobs/nope/trace");
  (void)api_.Handle("GET", "/apiv1/jobs/nope/fuzzer-crafted-suffix");
  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  EXPECT_NE(metrics.body.find("route=\"/apiv1/jobs/{id}/trace\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/jobs/{id}/{action}\""),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("fuzzer-crafted-suffix"), std::string::npos);
}

TEST_F(SqlApiTest, ObservabilityRoutesNormalizeWithoutMintingLabels) {
  // The namespaced observability resources keep their fixed sub-resource
  // names in the route label; anything else under debug/ or models/
  // collapses to {name}.
  (void)api_.Handle("GET", "/apiv1/debug/events");
  (void)api_.Handle("GET", "/apiv1/models/drift");
  (void)api_.Handle("GET", "/apiv1/debug/fuzzer-minted-sub");
  (void)api_.Handle("GET", "/apiv1/models/fuzzer-minted-sub");
  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  EXPECT_NE(metrics.body.find("route=\"/apiv1/debug/events\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/models/drift\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/debug/{name}\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/models/{name}\""),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("fuzzer-minted-sub"), std::string::npos);
}

}  // namespace
}  // namespace ires
