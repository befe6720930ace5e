#ifndef IRES_CORE_MODEL_LIBRARY_H_
#define IRES_CORE_MODEL_LIBRARY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engines/engine.h"
#include "modeling/refinement.h"
#include "telemetry/metrics_registry.h"
#include "threading/task_scheduler.h"

namespace ires {

/// The IReS model library (deliverable §2: "the models are stored and
/// updated in an IReS library"): for every (operator algorithm, engine)
/// pair it keeps one online-refined estimator per profiled metric —
/// execution time, output size and output cardinality — and persists the
/// underlying profiling samples across server restarts.
///
/// Refits run off the observing thread. ObserveRun appends the run to each
/// metric's window under the pair lock; for every estimator whose refit
/// came due it copies the window and queues one detached `model.refit`
/// task. The task fits with no lock held and re-takes the pair lock only to
/// install, and an install never replaces a model fitted on a newer window
/// (OnlineEstimator generations). At most one refit per estimator waits in
/// the queue: one that comes due meanwhile replaces its window. Without a
/// scheduler, or once it has shut down, the task runs inline on the
/// observing thread. version() moves only when a refit installs.
///
/// Thread safety: the pair map is guarded by a library-level mutex
/// (kModelLibraryMap), and every OperatorModels carries its own mutex
/// (kModelLibraryPair) so that refinement from N concurrent jobs
/// serializes per (algorithm, engine) while distinct pairs refine in
/// parallel. Callers touching the estimators directly must hold that
/// per-pair mutex (ObserveRun and the model-based cost estimator do).
/// SaveToDirectory nests map -> pair, which is the blessed direction
/// (kModelLibraryMap < kModelLibraryPair).
class ModelLibrary {
 public:
  /// The per-(operator, engine) metric estimators.
  struct OperatorModels {
    /// Serializes refits/predictions on this pair across jobs. All pair
    /// mutexes share kModelLibraryPair: no code path ever holds two pairs
    /// at once (each job run touches exactly one (algorithm, engine)).
    mutable Mutex mu{LockRank::kModelLibraryPair, "models.pair"};
    OnlineEstimator exec_time GUARDED_BY(mu);
    OnlineEstimator output_bytes GUARDED_BY(mu);
    OnlineEstimator output_records GUARDED_BY(mu);
    /// Per metric, in the order above: the window of the refit task that
    /// is queued for that estimator and has not started yet.
    std::optional<OnlineEstimator::RefitInput> queued_refit[3] GUARDED_BY(mu);
  };

  /// `scheduler` runs the refit tasks and must outlive the library; null
  /// refits inline. `metrics`, when set, receives the refit instruments.
  explicit ModelLibrary(TaskScheduler* scheduler = nullptr,
                        MetricsRegistry* metrics = nullptr);
  /// Waits for in-flight refits.
  ~ModelLibrary();
  ModelLibrary(const ModelLibrary&) = delete;
  ModelLibrary& operator=(const ModelLibrary&) = delete;

  /// The models for one pair, created on first use.
  OperatorModels* Get(const std::string& algorithm,
                      const std::string& engine) EXCLUDES(map_mu_);
  const OperatorModels* Find(const std::string& algorithm,
                             const std::string& engine) const
      EXCLUDES(map_mu_);

  /// Appends one observed run to all metric estimators (serialized per
  /// pair) and queues the refits that came due. Returns the exec-time
  /// estimator's pre-absorption relative error — the refinement-error
  /// signal the telemetry layer tracks per (algorithm, engine).
  double ObserveRun(const std::string& algorithm, const std::string& engine,
                    const OperatorRunRequest& request, double actual_seconds,
                    double output_bytes, double output_records)
      EXCLUDES(map_mu_, refit_mu_);

  /// Queues a refit of the pair's exec-time estimator ahead of its refit
  /// interval (the drift observatory's trigger). No-op without samples.
  void ForceRefit(const std::string& algorithm, const std::string& engine)
      EXCLUDES(map_mu_, refit_mu_);

  /// Blocks until no refit task is queued or running. Not for scheduler
  /// tasks: the refits may need the very worker that would wait.
  void WaitForRefits() const EXCLUDES(refit_mu_);
  /// As above, giving up after `timeout_seconds`; returns whether drained.
  bool WaitForRefits(double timeout_seconds) const EXCLUDES(refit_mu_);

  size_t size() const EXCLUDES(map_mu_);

  /// Monotonic counter bumped whenever a refit installs a model (appends
  /// alone change no prediction the planner uses); part of the plan-cache
  /// key so refined models invalidate cached plans.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Persists every estimator's sample window as CSV files
  /// (`<dir>/<algorithm>__<engine>.<metric>.csv`, one `target,f0,f1,...`
  /// row per sample). Overwrites existing files.
  Status SaveToDirectory(const std::string& dir) const EXCLUDES(map_mu_);

  /// Loads every CSV produced by SaveToDirectory and refits the estimators.
  Status LoadFromDirectory(const std::string& dir) EXCLUDES(map_mu_);

 private:
  /// Queues a refit of `metric` on the current window. Returns true when a
  /// task must be submitted, false when it replaced the window of the one
  /// already queued.
  bool QueueRefitLocked(OperatorModels* models, int metric)
      REQUIRES(models->mu) EXCLUDES(refit_mu_);
  /// Submits the task QueueRefitLocked asked for (inline without a
  /// scheduler).
  void SubmitRefit(OperatorModels* models, int metric);
  /// The task body: takes the queued window, fits it with no lock held and
  /// installs the result.
  void RunRefit(OperatorModels* models, int metric) EXCLUDES(refit_mu_);

  TaskScheduler* const scheduler_;
  Histogram* refit_seconds_ = nullptr;
  Counter* refits_installed_ = nullptr;
  Counter* refits_superseded_ = nullptr;
  Counter* refits_failed_ = nullptr;
  Gauge* refits_pending_ = nullptr;

  /// Drain latch over the refit tasks queued or running.
  mutable Mutex refit_mu_{LockRank::kModelRefits, "models.refits"};
  mutable std::condition_variable_any refits_idle_;
  size_t refits_in_flight_ GUARDED_BY(refit_mu_) = 0;
  /// The queued ones that have not taken their window yet.
  size_t refits_queued_ GUARDED_BY(refit_mu_) = 0;

  /// Guards models_ (the map, not the estimators behind the pointers).
  mutable Mutex map_mu_{LockRank::kModelLibraryMap, "models.map"};
  std::atomic<uint64_t> version_{0};
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<OperatorModels>>
      models_ GUARDED_BY(map_mu_);
};

}  // namespace ires

#endif  // IRES_CORE_MODEL_LIBRARY_H_
