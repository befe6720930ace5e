#include "core/model_library.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "profiling/profiler.h"

namespace ires {

namespace {

constexpr const char* kMetricNames[] = {"execTime", "outputBytes",
                                        "outputRecords"};

OnlineEstimator* MetricEstimator(ModelLibrary::OperatorModels* models,
                                 int metric) REQUIRES(models->mu) {
  switch (metric) {
    case 0: return &models->exec_time;
    case 1: return &models->output_bytes;
    default: return &models->output_records;
  }
}

}  // namespace

ModelLibrary::ModelLibrary(TaskScheduler* scheduler, MetricsRegistry* metrics)
    : scheduler_(scheduler) {
  if (metrics == nullptr) return;
  refit_seconds_ = metrics->GetHistogram(
      "ires_model_refit_seconds",
      "Background model refit time: cross-validated fit of one estimator "
      "window, off the request path.");
  const std::string help =
      "Background model refits by outcome: installed, superseded (a newer "
      "window's model was already installed) or failed.";
  refits_installed_ = metrics->GetCounter("ires_model_refits_total", help,
                                          {{"outcome", "installed"}});
  refits_superseded_ = metrics->GetCounter("ires_model_refits_total", help,
                                           {{"outcome", "superseded"}});
  refits_failed_ = metrics->GetCounter("ires_model_refits_total", help,
                                       {{"outcome", "failed"}});
  refits_pending_ = metrics->GetGauge(
      "ires_model_refits_pending",
      "Background model refit tasks queued and not started; coalescing "
      "keeps it at most one per estimator.");
}

ModelLibrary::~ModelLibrary() { WaitForRefits(); }

ModelLibrary::OperatorModels* ModelLibrary::Get(const std::string& algorithm,
                                                const std::string& engine) {
  MutexLock lock(map_mu_);
  auto key = std::make_pair(algorithm, engine);
  auto it = models_.find(key);
  if (it == models_.end()) {
    it = models_.emplace(key, std::make_unique<OperatorModels>()).first;
  }
  // unique_ptr storage keeps the pointer stable across later insertions.
  return it->second.get();
}

const ModelLibrary::OperatorModels* ModelLibrary::Find(
    const std::string& algorithm, const std::string& engine) const {
  MutexLock lock(map_mu_);
  auto it = models_.find({algorithm, engine});
  return it == models_.end() ? nullptr : it->second.get();
}

double ModelLibrary::ObserveRun(const std::string& algorithm,
                                const std::string& engine,
                                const OperatorRunRequest& request,
                                double actual_seconds, double output_bytes,
                                double output_records) {
  OperatorModels* models = Get(algorithm, engine);
  const Vector features = Profiler::FeatureVector(request);
  const double targets[3] = {actual_seconds, output_bytes, output_records};
  double exec_time_error = 0.0;
  bool submit[3] = {false, false, false};
  {
    MutexLock lock(models->mu);
    for (int metric = 0; metric < 3; ++metric) {
      OnlineEstimator* estimator = MetricEstimator(models, metric);
      const double error = estimator->Append(features, targets[metric]);
      if (metric == 0) exec_time_error = error;
      if (estimator->refit_due()) {
        submit[metric] = QueueRefitLocked(models, metric);
      }
    }
  }
  for (int metric = 0; metric < 3; ++metric) {
    if (submit[metric]) SubmitRefit(models, metric);
  }
  return exec_time_error;
}

void ModelLibrary::ForceRefit(const std::string& algorithm,
                              const std::string& engine) {
  OperatorModels* models = Get(algorithm, engine);
  {
    MutexLock lock(models->mu);
    if (models->exec_time.sample_count() == 0 ||
        !QueueRefitLocked(models, 0)) {
      return;
    }
  }
  SubmitRefit(models, 0);
}

bool ModelLibrary::QueueRefitLocked(OperatorModels* models, int metric) {
  std::optional<OnlineEstimator::RefitInput>& slot =
      models->queued_refit[metric];
  const bool new_task = !slot.has_value();
  slot = MetricEstimator(models, metric)->BeginRefit();
  if (new_task) {
    MutexLock lock(refit_mu_);
    ++refits_in_flight_;
    ++refits_queued_;
    if (refits_pending_ != nullptr) {
      refits_pending_->Set(static_cast<double>(refits_queued_));
    }
  }
  return new_task;
}

void ModelLibrary::SubmitRefit(OperatorModels* models, int metric) {
  auto task = [this, models, metric] { RunRefit(models, metric); };
  if (scheduler_ == nullptr || !scheduler_->Submit(task, "model.refit")) {
    task();
  }
}

void ModelLibrary::RunRefit(OperatorModels* models, int metric) {
  OnlineEstimator::RefitInput input;
  bool superseded = false;
  {
    MutexLock lock(models->mu);
    std::optional<OnlineEstimator::RefitInput>& slot =
        models->queued_refit[metric];
    // QueueRefitLocked filled the slot before submitting this task.
    input = std::move(slot).value_or(OnlineEstimator::RefitInput());
    slot.reset();
    // A synchronous Refit/ImportSamples may already cover this window.
    superseded = input.generation <=
                 MetricEstimator(models, metric)->model_generation();
    MutexLock refit_lock(refit_mu_);
    --refits_queued_;
    if (refits_pending_ != nullptr) {
      refits_pending_->Set(static_cast<double>(refits_queued_));
    }
  }
  Counter* outcome = refits_superseded_;
  if (!superseded) {
    const auto start = std::chrono::steady_clock::now();
    auto fitted = input.Fit();
    if (refit_seconds_ != nullptr) {
      refit_seconds_->Observe(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    }
    if (!fitted.ok()) {
      outcome = refits_failed_;  // the previous model stays
    } else {
      bool installed = false;
      {
        MutexLock lock(models->mu);
        installed = MetricEstimator(models, metric)
                        ->Install(input.generation, std::move(fitted).value());
      }
      if (installed) {
        version_.fetch_add(1, std::memory_order_acq_rel);
        outcome = refits_installed_;
      }
    }
  }
  if (outcome != nullptr) outcome->Increment();
  MutexLock lock(refit_mu_);
  --refits_in_flight_;
  // Notified under the latch: a drained waiter may destroy the library as
  // soon as it can reacquire it.
  if (refits_in_flight_ == 0) refits_idle_.notify_all();
}

void ModelLibrary::WaitForRefits() const {
  MutexLock lock(refit_mu_);
  // Analysis waiver: the predicate runs with refit_mu_ held (the cv
  // reacquires it before every evaluation), but the lambda is a separate
  // function the analysis cannot see that from.
  refits_idle_.wait(refit_mu_, [this]() NO_THREAD_SAFETY_ANALYSIS {
    return refits_in_flight_ == 0;
  });
}

bool ModelLibrary::WaitForRefits(double timeout_seconds) const {
  MutexLock lock(refit_mu_);
  // Analysis waiver: as in WaitForRefits() above.
  return refits_idle_.wait_for(
      refit_mu_, std::chrono::duration<double>(timeout_seconds),
      [this]() NO_THREAD_SAFETY_ANALYSIS { return refits_in_flight_ == 0; });
}

size_t ModelLibrary::size() const {
  MutexLock lock(map_mu_);
  return models_.size();
}

Status ModelLibrary::SaveToDirectory(const std::string& dir) const {
  namespace fs = std::filesystem;
  // Blessed nesting: map (kModelLibraryMap) -> pair (kModelLibraryPair).
  MutexLock map_lock(map_mu_);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("mkdir failed: " + dir);
  for (const auto& [key, models] : models_) {
    MutexLock lock(models->mu);
    for (int metric = 0; metric < 3; ++metric) {
      const OnlineEstimator* estimator =
          MetricEstimator(models.get(), metric);
      const auto samples = estimator->ExportSamples();
      if (samples.empty()) continue;
      const fs::path path = fs::path(dir) / (key.first + "__" + key.second +
                                             "." + kMetricNames[metric] +
                                             ".csv");
      std::ofstream out(path);
      if (!out) return Status::Internal("cannot write " + path.string());
      for (const OnlineEstimator::Sample& sample : samples) {
        out << sample.target;
        for (double f : sample.features) out << ',' << f;
        out << '\n';
      }
    }
  }
  return Status::OK();
}

Status ModelLibrary::LoadFromDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::exists(dir)) return Status::NotFound("model directory: " + dir);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string filename = entry.path().filename().string();
    if (!EndsWith(filename, ".csv")) continue;
    // <algorithm>__<engine>.<metric>.csv
    const size_t sep = filename.find("__");
    if (sep == std::string::npos) continue;
    const std::string stem = filename.substr(0, filename.size() - 4);
    const size_t metric_dot = stem.rfind('.');
    if (metric_dot == std::string::npos || metric_dot < sep) continue;
    const std::string algorithm = stem.substr(0, sep);
    const std::string engine = stem.substr(sep + 2, metric_dot - sep - 2);
    const std::string metric_name = stem.substr(metric_dot + 1);
    int metric = -1;
    for (int m = 0; m < 3; ++m) {
      if (metric_name == kMetricNames[m]) metric = m;
    }
    if (metric < 0) continue;

    std::ifstream in(entry.path());
    if (!in) return Status::Internal("cannot read " + entry.path().string());
    std::vector<OnlineEstimator::Sample> samples;
    std::string line;
    while (std::getline(in, line)) {
      const std::vector<std::string> fields = SplitAndTrim(line, ',');
      if (fields.empty()) continue;
      OnlineEstimator::Sample sample;
      sample.target = std::strtod(fields[0].c_str(), nullptr);
      for (size_t i = 1; i < fields.size(); ++i) {
        sample.features.push_back(std::strtod(fields[i].c_str(), nullptr));
      }
      samples.push_back(std::move(sample));
    }
    OperatorModels* models = Get(algorithm, engine);
    // A failed refit (e.g. too few samples) still keeps the samples.
    bool refitted = false;
    {
      MutexLock lock(models->mu);
      OnlineEstimator* estimator = MetricEstimator(models, metric);
      const uint64_t before = estimator->model_generation();
      (void)estimator->ImportSamples(samples);
      refitted = estimator->model_generation() != before;
    }
    if (refitted) version_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::OK();
}

}  // namespace ires
