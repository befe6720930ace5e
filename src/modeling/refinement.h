#ifndef IRES_MODELING_REFINEMENT_H_
#define IRES_MODELING_REFINEMENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "modeling/model.h"
#include "modeling/model_selection.h"

namespace ires {

/// Online estimator for one (operator, engine, metric) triple — the Model
/// Refinement module of deliverable §2.2.2. It accumulates observations from
/// real executions, refits (with cross-validated model re-selection) on a
/// sliding window, and exposes the estimation-error trace that Figure 16
/// plots. The sliding window is what lets the models track infrastructure
/// changes instead of being poisoned by stale samples forever.
class OnlineEstimator {
 public:
  struct Options {
    /// Maximum number of most-recent samples retained for fitting.
    size_t window = 256;
    /// Refit after this many new samples since the last fit.
    size_t refit_interval = 5;
    /// Minimum samples before the first fit; predictions before that return
    /// the running mean (high error by construction — "no knowledge").
    size_t min_samples = 5;
    int cv_folds = 3;
    uint64_t seed = 43;
  };

  OnlineEstimator() : OnlineEstimator(Options{}) {}
  explicit OnlineEstimator(Options options) : options_(options) {}

  /// Predicted metric value for the given configuration.
  double Predict(const Vector& features) const;

  /// Relative error the current model would make on (features, actual):
  /// |pred - actual| / max(|actual|, eps). This is computed *before* the
  /// sample is absorbed, i.e. it is an honest out-of-sample error.
  double RelativeError(const Vector& features, double actual) const;

  /// Records an observed execution and refits when due. Returns the
  /// pre-absorption relative error (the Figure 16 y-axis).
  double Observe(const Vector& features, double actual);

  /// Forces an immediate refit (used after bulk offline profiling).
  Status Refit();

  // ---- Refits off the caller's thread --------------------------------------
  // Observe = Append + (refit_due() ? Refit()). A caller that must not pay
  // for the fit splits it: Append, and when refit_due(), BeginRefit under
  // its lock, RefitInput::Fit with no lock held, then Install under the lock
  // again. Installing the fit of the newest BeginRefit leaves the estimator
  // bit-identical to one fed the same observations through Observe.

  /// Records an observed execution without refitting. Returns the
  /// pre-absorption relative error.
  double Append(const Vector& features, double actual);

  /// True when a refit is due: enough samples, and either refit_interval
  /// samples since the last (begun) refit or no model and none begun.
  bool refit_due() const;

  /// A copy of the window, self-contained so it can be fitted with no lock
  /// held.
  struct RefitInput {
    Matrix x;
    Vector y;
    /// Window generation the copy reflects; Install orders by it.
    uint64_t generation = 0;
    int cv_folds = 3;
    uint64_t seed = 43;

    /// Cross-validated model selection on the copy (what Refit runs).
    Result<std::unique_ptr<Model>> Fit() const;
  };

  /// Copies the window for an off-lock refit and restarts the refit
  /// interval, as a successful synchronous Refit does.
  RefitInput BeginRefit();

  /// Installs `model`, fitted on the window of `generation`, unless the
  /// installed model already reflects that window or a newer one (a refit
  /// that finished late, or one overtaken by Refit/ImportSamples/Reset).
  /// Returns whether it was installed.
  bool Install(uint64_t generation, std::unique_ptr<Model> model);

  /// The generation of the installed model's window; Reset raises it to
  /// the current generation, so fits begun before the reset never install.
  uint64_t model_generation() const { return model_generation_; }

  /// Drops every retained sample and the fitted model — the "discard models
  /// and start from scratch" strategy the paper argues against.
  void Reset();

  size_t sample_count() const { return features_.size(); }
  bool has_model() const { return model_ != nullptr; }
  std::string model_name() const {
    return model_ ? model_->name() : "(none)";
  }

  /// One retained observation (for persistence).
  struct Sample {
    Vector features;
    double target = 0.0;
  };

  /// Snapshot of the retained window, oldest first.
  std::vector<Sample> ExportSamples() const;

  /// Bulk-loads samples (e.g. from a saved model library) and refits once.
  /// Appends to whatever is already retained, window rules applying.
  Status ImportSamples(const std::vector<Sample>& samples);

 private:
  void Retain(const Vector& features, double actual);
  RefitInput Snapshot() const;

  Options options_;
  std::deque<Vector> features_;
  std::deque<double> targets_;
  size_t since_fit_ = 0;
  double running_mean_ = 0.0;
  std::unique_ptr<Model> model_;
  /// Bumped by every retained sample and by Reset.
  uint64_t generation_ = 0;
  uint64_t model_generation_ = 0;
  /// Set by BeginRefit: the first model is on its way, so "no model yet"
  /// stops making every further sample due.
  bool refit_begun_ = false;
};

}  // namespace ires

#endif  // IRES_MODELING_REFINEMENT_H_
