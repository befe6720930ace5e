#ifndef IRES_PERFBENCH_WORKLOADS_H_
#define IRES_PERFBENCH_WORKLOADS_H_

// Seeded input generation for the three serving workloads. Everything a run
// sends to the server is derived from the run's --seed here; the server only
// ever sees the generated artefacts, workflows and requests.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "operators/operator_library.h"

namespace perfbench {

enum class RequestKind {
  kExecute,      // POST /apiv1/workflows/{name}/execute?mode=async
  kMaterialize,  // POST /apiv1/workflows/{name}/materialize
  kSql,          // POST /apiv1/sql?mode=async
};

struct Request {
  RequestKind kind = RequestKind::kExecute;
  /// Workflow name (execute / materialize) or SQL text.
  std::string target;
  /// Plan-quality grouping key: the workflow name, or the SQL shape class
  /// ("q<N>" for the MuSQLE set, "novel<N>" for generated shapes).
  std::string key;
  /// SQL only: a shape never submitted before in this run.
  bool novel = false;
};

/// One stored workflow: its REST name and `graph` file text.
struct StoredWorkflow {
  std::string name;
  std::string graph_text;
};

/// Everything a deployment must be given before it can serve a workload.
struct Inputs {
  /// Artefacts imported into the server's library before serving.
  ires::OperatorLibrary library;
  /// Workflows stored through POST /apiv1/workflows/{name}.
  std::vector<StoredWorkflow> workflows;
  /// Synthetic engines ("Eng0".."Eng<n-1>") registered beside the standard
  /// fleet; 0 for none.
  int synthetic_engines = 0;
};

/// A workload's seeded input set plus its request stream.
class Workload {
 public:
  virtual ~Workload() = default;
  /// A copy with the same inputs and the stream at the same position.
  virtual std::unique_ptr<Workload> Clone() const = 0;
  virtual const Inputs& inputs() const = 0;
  /// Next request of the stream. Streams never repeat a novel SQL shape.
  virtual Request Next() = 0;
  /// Requests the warm-up issues before its steady-state checks: each
  /// repeated request once.
  virtual std::vector<Request> Priming() = 0;
  /// Whether priming must run one request at a time.
  virtual bool SerialPriming() const { return false; }
  /// The stream is built from shuffled blocks of this many requests, each
  /// offering the same mix of work; runs measure whole blocks.
  virtual int block_size() const = 0;
  /// The fixed requests whose plans plan_est_s averages: the same set for
  /// every seed, so the metric moves only when plan choices do.
  virtual std::set<std::string> plan_quality_keys() const = 0;
};

/// asap_exec: the paper's four evaluation workflows at seeded sizes
/// (within ±5% of fixed base sizes) plus the MuSQLE TPC-H queries with
/// seeded literals, in blocks that hold each workflow once and one query.
/// The blocks and the queries cycle in a fixed order, the same for every
/// seed: query jobs are the latency tail, and the order decides which
/// workflow jobs refit a model pair.
class AsapExecWorkload : public Workload {
 public:
  explicit AsapExecWorkload(uint64_t seed);
  std::unique_ptr<Workload> Clone() const override {
    return std::make_unique<AsapExecWorkload>(*this);
  }
  const Inputs& inputs() const override { return inputs_; }
  Request Next() override;
  /// The queries, each workflow, then the queries again, one at a time
  /// (see SqlMixWorkload). Every query registers artefacts on its first
  /// run, which moves the library version the plan cache is keyed on; the
  /// second pass plans them at the final version.
  std::vector<Request> Priming() override;
  bool SerialPriming() const override { return true; }
  int block_size() const override { return 5; }
  std::set<std::string> plan_quality_keys() const override;

 private:
  ires::Rng rng_;
  Inputs inputs_;
  std::vector<int> block_;  // workflow index, or -1 for a query
  int queries_sent_ = 0;
};

/// pegasus_plan: several hundred stored Pegasus DAGs over five families and
/// three synthetic engines, requested by Zipf popularity. The DAG shapes,
/// their popularity ranks and the request sequence are fixed; the seed
/// sets data sizes (±1%).
class PegasusPlanWorkload : public Workload {
 public:
  static constexpr int kDags = 360;
  static constexpr double kZipfExponent = 1.2;
  /// Zipf draws are stratified per block: one draw from each of kBlock
  /// equal slices of [0, 1), shuffled, so every block carries the Zipf
  /// frequency profile. The draw's offset within its slice (see
  /// kGoldenRatio) and the order of the draws are the same for every seed,
  /// so every seed requests the same DAGs in the same order.
  static constexpr int kBlock = 60;
  /// Step of the in-slice offset from one block to the next.
  static constexpr double kGoldenRatio = 0.6180339887498949;
  /// The most popular DAGs, whose plans are verified and averaged.
  static constexpr int kTracked = 24;

  explicit PegasusPlanWorkload(uint64_t seed);
  std::unique_ptr<Workload> Clone() const override {
    return std::make_unique<PegasusPlanWorkload>(*this);
  }
  const Inputs& inputs() const override { return inputs_; }
  Request Next() override;
  /// The `ires::IresServer::Config` default plan-cache capacity's worth of
  /// the most popular DAGs, which fills the cache.
  std::vector<Request> Priming() override;
  int block_size() const override { return kBlock; }
  std::set<std::string> plan_quality_keys() const override;

 private:
  ires::Rng rng_;
  Inputs inputs_;
  /// Cumulative Zipf weights by popularity rank.
  std::vector<double> cdf_;
  /// Popularity rank -> workflow index.
  std::vector<int> by_rank_;
  std::vector<double> block_;  // pending stratified draws
  int blocks_drawn_ = 0;
  /// Orders the draws within a block; fixed, so every seed sends the same
  /// sequence and the FIFO plan cache misses the same DAGs.
  ires::Rng order_rng_{0x0bde5};
};

/// sql_mix: the 18 MuSQLE TPC-H queries with seeded literals (90%) plus
/// novel shapes grown over the TPC-H join graph (10%), in shuffled blocks
/// of 20.
class SqlMixWorkload : public Workload {
 public:
  static constexpr int kNovelPerBlock = 2;

  explicit SqlMixWorkload(uint64_t seed);
  std::unique_ptr<Workload> Clone() const override {
    return std::make_unique<SqlMixWorkload>(*this);
  }
  const Inputs& inputs() const override { return inputs_; }
  Request Next() override;
  /// A request that is forced to be a novel shape.
  Request NextNovel();
  /// One request per MuSQLE shape. SqlService::Prepare registers a shape's
  /// artefacts with a check-then-add, so two concurrent first requests
  /// touching the same table race (the loser gets AlreadyExists); priming
  /// each shape serially keeps that race out of the measured load.
  std::vector<Request> Priming() override;
  bool SerialPriming() const override { return true; }
  int block_size() const override {
    return static_cast<int>(base_.size()) + kNovelPerBlock;
  }
  /// The MuSQLE queries (novel shapes differ from seed to seed).
  std::set<std::string> plan_quality_keys() const override;

 private:
  ires::Rng rng_;
  Inputs inputs_;
  std::vector<std::string> base_;
  std::set<std::string> seen_shapes_;
  int novel_count_ = 0;
  std::vector<int> block_;  // base query index, or -1 for a novel shape
};

}  // namespace perfbench

#endif  // IRES_PERFBENCH_WORKLOADS_H_
