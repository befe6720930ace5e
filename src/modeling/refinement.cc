#include "modeling/refinement.h"

#include <algorithm>
#include <cmath>

namespace ires {

double OnlineEstimator::Predict(const Vector& features) const {
  if (model_ == nullptr) return running_mean_;
  return model_->Predict(features);
}

double OnlineEstimator::RelativeError(const Vector& features,
                                      double actual) const {
  const double pred = Predict(features);
  return std::fabs(pred - actual) / std::max(std::fabs(actual), 1e-9);
}

double OnlineEstimator::Observe(const Vector& features, double actual) {
  const double err = Append(features, actual);
  if (refit_due()) (void)Refit();  // a failed refit keeps the previous model
  return err;
}

void OnlineEstimator::Retain(const Vector& features, double actual) {
  features_.push_back(features);
  targets_.push_back(actual);
  while (features_.size() > options_.window) {
    features_.pop_front();
    targets_.pop_front();
  }
  ++generation_;
}

double OnlineEstimator::Append(const Vector& features, double actual) {
  const double err = RelativeError(features, actual);
  Retain(features, actual);
  // Running mean over the window; the fallback predictor before any fit.
  double sum = 0.0;
  for (double t : targets_) sum += t;
  running_mean_ = sum / static_cast<double>(targets_.size());
  ++since_fit_;
  return err;
}

bool OnlineEstimator::refit_due() const {
  return features_.size() >= options_.min_samples &&
         (since_fit_ >= options_.refit_interval ||
          (model_ == nullptr && !refit_begun_));
}

OnlineEstimator::RefitInput OnlineEstimator::Snapshot() const {
  RefitInput input;
  for (size_t i = 0; i < features_.size(); ++i) {
    input.x.AppendRow(features_[i]);
    input.y.push_back(targets_[i]);
  }
  input.generation = generation_;
  input.cv_folds = options_.cv_folds;
  input.seed = options_.seed;
  return input;
}

Result<std::unique_ptr<Model>> OnlineEstimator::RefitInput::Fit() const {
  return CrossValidationSelector(cv_folds, seed).SelectAndFit(x, y);
}

Status OnlineEstimator::Refit() {
  if (features_.empty()) {
    return Status::FailedPrecondition("no samples to fit");
  }
  auto fitted = Snapshot().Fit();
  if (!fitted.ok()) return fitted.status();
  model_ = std::move(fitted).value();
  model_generation_ = generation_;
  since_fit_ = 0;
  return Status::OK();
}

OnlineEstimator::RefitInput OnlineEstimator::BeginRefit() {
  since_fit_ = 0;
  refit_begun_ = true;
  return Snapshot();
}

bool OnlineEstimator::Install(uint64_t generation,
                              std::unique_ptr<Model> model) {
  if (generation <= model_generation_) return false;
  model_ = std::move(model);
  model_generation_ = generation;
  return true;
}

std::vector<OnlineEstimator::Sample> OnlineEstimator::ExportSamples() const {
  std::vector<Sample> out;
  out.reserve(features_.size());
  for (size_t i = 0; i < features_.size(); ++i) {
    out.push_back({features_[i], targets_[i]});
  }
  return out;
}

Status OnlineEstimator::ImportSamples(const std::vector<Sample>& samples) {
  for (const Sample& sample : samples) Retain(sample.features, sample.target);
  if (!targets_.empty()) {
    double sum = 0.0;
    for (double t : targets_) sum += t;
    running_mean_ = sum / static_cast<double>(targets_.size());
  }
  if (features_.size() >= options_.min_samples) return Refit();
  return Status::OK();
}

void OnlineEstimator::Reset() {
  features_.clear();
  targets_.clear();
  model_.reset();
  running_mean_ = 0.0;
  since_fit_ = 0;
  refit_begun_ = false;
  // Fits begun before the reset must not resurrect the discarded window.
  model_generation_ = ++generation_;
}

}  // namespace ires
