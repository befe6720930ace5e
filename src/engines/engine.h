#ifndef IRES_ENGINES_ENGINE_H_
#define IRES_ENGINES_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "cluster/resources.h"
#include "common/rng.h"
#include "common/status.h"

namespace ires {

/// A request to run (or estimate) one operator on one engine.
struct OperatorRunRequest {
  std::string algorithm;      // e.g. "Pagerank", "TF_IDF", "kmeans"
  double input_bytes = 0.0;
  double input_records = 0.0;
  Resources resources;
  /// Operator-specific parameters (e.g. {"iterations", 10}, {"k", 16}).
  std::map<std::string, double> params;
};

/// Cost/performance estimate (or ground-truth outcome) of one operator run.
struct OperatorRunEstimate {
  double exec_seconds = 0.0;
  double output_bytes = 0.0;
  double output_records = 0.0;
  /// Execution cost in the paper's #VM·cores·GB·t metric.
  double cost = 0.0;
};

/// Execution behaviour class of an engine; governs parallelism and the
/// memory-feasibility rule.
enum class EngineKind {
  /// Single process on one node (Java, Python/scikit, PostgreSQL): uses one
  /// container's cores; infeasible when the working set exceeds one node's
  /// memory budget.
  kCentralized,
  /// Distributed, memory-resident (Hama, MemSQL): parallel across
  /// containers; infeasible when the working set exceeds the engine's
  /// aggregate memory budget.
  kDistributedMemory,
  /// Distributed, disk-backed (Spark, MapReduce, Hive): parallel and always
  /// feasible; work spills with a slowdown when memory is short.
  kDistributedDisk,
};

/// Per-algorithm performance profile of an engine. The analytic form is
///   t = startup + container_startup·containers
///       + seconds_per_gb · gb · iterations · amdahl(cores) · spill_penalty
/// with amdahl(c) = (1-parallel_fraction) + parallel_fraction / c.
struct AlgorithmProfile {
  double startup_seconds = 2.0;
  double container_startup_seconds = 0.0;
  double seconds_per_gb = 10.0;
  double parallel_fraction = 0.95;    // ignored for centralized engines
  /// Working-set bytes per input byte (memory footprint factor).
  double memory_per_input = 2.0;
  /// Output size as a fraction of input size / records.
  double output_bytes_ratio = 1.0;
  double output_records_ratio = 1.0;
  /// Name of the run-request param that multiplies the work (e.g.
  /// "iterations"); empty = none.
  std::string work_param;
};

/// A simulated execution engine: the stand-in for Spark/Hama/PostgreSQL/...
/// It answers cost estimates (what the trained IReS models would predict
/// once converged) and produces noisy ground-truth runtimes (what the real
/// cluster would measure), which is what the profiler and model-refinement
/// experiments consume.
class SimulatedEngine {
 public:
  struct Config {
    std::string name;
    EngineKind kind = EngineKind::kDistributedDisk;
    /// Memory budget in GB: per-node for centralized engines, aggregate for
    /// distributed-memory engines, soft (spill threshold) for disk-backed.
    double memory_budget_gb = 8.0;
    /// Disk-backed engines run this many times slower on the spilled
    /// fraction of the working set.
    double spill_slowdown = 3.0;
    /// Default resources used when the planner does not provision
    /// explicitly.
    Resources default_resources{4, 2, 2.0};
    /// Relative std-dev of multiplicative log-normal noise on ground truth.
    double noise_stddev = 0.06;
    /// Store this engine reads/writes natively ("HDFS", "PostgreSQL", ...).
    std::string native_store;
    /// Multiplies all processing rates; the infrastructure-change lever used
    /// by the Fig. 16b experiment (e.g. 0.5 after an HDD -> SSD upgrade).
    /// Initial value; set_infrastructure_factor changes it at run time.
    double infrastructure_factor = 1.0;
  };

  SimulatedEngine(Config config)
      : config_(std::move(config)),
        infrastructure_factor_(config_.infrastructure_factor) {}
  virtual ~SimulatedEngine() = default;

  const std::string& name() const { return config_.name; }
  EngineKind kind() const { return config_.kind; }
  const std::string& native_store() const { return config_.native_store; }
  const Resources& default_resources() const {
    return config_.default_resources;
  }

  // Availability is the one engine attribute flipped at serving time (by
  // the REST API and by failure recovery), so it is atomic: planner reads
  // never race with ON/OFF flips.
  bool available() const {
    return available_.load(std::memory_order_acquire);
  }
  void set_available(bool on) {
    available_.store(on, std::memory_order_release);
  }

  /// The factor is flipped at serving time (Fig. 16b) while planner threads
  /// estimate, so it is atomic. Stored before the new calibration version
  /// is published: a reader that sees the new version sees the new factor.
  void set_infrastructure_factor(double f) {
    infrastructure_factor_.store(f);
    BumpCalibration();
  }
  double infrastructure_factor() const {
    return infrastructure_factor_.load();
  }

  /// Names this engine *and* its calibration state: a process-unique token
  /// drawn from one global counter at construction and again by every
  /// calibration change (set_infrastructure_factor, SetProfile). Anything
  /// derived from Estimate — provisioning fronts, cached plans — keys on it,
  /// so a change invalidates it and no two engines ever share a token.
  uint64_t calibration_version() const {
    return calibration_version_.load();
  }

  /// Registers the performance profile for one algorithm. A profile under
  /// the wildcard name "*" is the fallback for unknown algorithms.
  void SetProfile(const std::string& algorithm, AlgorithmProfile profile);
  const AlgorithmProfile* FindProfile(const std::string& algorithm) const;

  /// Noise-free analytic estimate (the converged cost model). Fails with
  /// ResourceExhausted when the working set exceeds the memory rule and
  /// NotFound when no profile covers the algorithm.
  Result<OperatorRunEstimate> Estimate(const OperatorRunRequest& request) const;

  /// Ground truth for an actual run: the analytic estimate perturbed by
  /// multiplicative log-normal noise drawn from `rng`.
  Result<OperatorRunEstimate> Run(const OperatorRunRequest& request,
                                  Rng* rng) const;

 private:
  static uint64_t NextCalibrationVersion();
  void BumpCalibration() {
    calibration_version_.store(NextCalibrationVersion());
  }

  Config config_;
  std::atomic<bool> available_{true};
  std::atomic<double> infrastructure_factor_;
  std::atomic<uint64_t> calibration_version_{NextCalibrationVersion()};
  std::map<std::string, AlgorithmProfile> profiles_;
};

}  // namespace ires

#endif  // IRES_ENGINES_ENGINE_H_
