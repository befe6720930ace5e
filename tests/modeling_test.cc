#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "modeling/kernel_models.h"
#include "modeling/linear_models.h"
#include "modeling/model_selection.h"
#include "modeling/neural.h"
#include "modeling/refinement.h"
#include "modeling/tree_models.h"

namespace ires {
namespace {

// ---------------------------------------------------------------- linalg
TEST(LinalgTest, SolveLinearSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  auto x = SolveLinearSystem(a, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-9);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-9);
}

TEST(LinalgTest, SingularSystemRejected) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
}

TEST(LinalgTest, ShapeMismatchRejected) {
  Matrix a(2, 3);
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
}

TEST(LinalgTest, LeastSquaresRecoversPlane) {
  // y = 3x0 - 2x1 (+ tiny ridge); overdetermined system.
  Matrix x;
  Vector y;
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.AppendRow({a, b});
    y.push_back(3 * a - 2 * b);
  }
  auto w = SolveLeastSquares(x, y);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(w.value()[0], 3.0, 1e-3);
  EXPECT_NEAR(w.value()[1], -2.0, 1e-3);
}

TEST(LinalgTest, WeightedLeastSquaresPrefersHeavySamples) {
  // Two inconsistent clusters; weights pull the fit toward the heavy one.
  Matrix x;
  Vector y, w;
  for (int i = 0; i < 10; ++i) {
    x.AppendRow({1.0});
    y.push_back(10.0);
    w.push_back(100.0);
  }
  for (int i = 0; i < 10; ++i) {
    x.AppendRow({1.0});
    y.push_back(0.0);
    w.push_back(1.0);
  }
  auto coef = SolveLeastSquares(x, y, 1e-9, &w);
  ASSERT_TRUE(coef.ok());
  EXPECT_GT(coef.value()[0], 9.0);
}

// --------------------------------------------------------- linear models
void FillLinear(Matrix* x, Vector* y, int n, uint64_t seed,
                double noise = 0.0) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double a = rng.Uniform(0, 10), b = rng.Uniform(0, 5);
    x->AppendRow({a, b});
    y->push_back(2 * a + 7 * b + 1 + noise * rng.Normal());
  }
}

TEST(LinearRegressionTest, RecoversCoefficients) {
  Matrix x;
  Vector y;
  FillLinear(&x, &y, 60, 1);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-4);
  EXPECT_NEAR(model.coefficients()[1], 7.0, 1e-4);
  EXPECT_NEAR(model.intercept(), 1.0, 1e-3);
  EXPECT_NEAR(model.Predict({1, 1}), 10.0, 1e-3);
}

TEST(LinearRegressionTest, EmptyDataRejected) {
  LinearRegression model;
  EXPECT_FALSE(model.Fit(Matrix(), {}).ok());
}

TEST(LeastMedianSquaresTest, RobustToOutliers) {
  Matrix x;
  Vector y;
  FillLinear(&x, &y, 60, 2, 0.05);
  // Poison 20% of the points with gross outliers.
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    const size_t victim = static_cast<size_t>(rng.UniformInt(0, 59));
    y[victim] += 500.0;
  }
  LeastMedianSquares robust;
  LinearRegression plain;
  ASSERT_TRUE(robust.Fit(x, y).ok());
  ASSERT_TRUE(plain.Fit(x, y).ok());
  // Evaluate on clean data.
  Matrix tx;
  Vector ty;
  FillLinear(&tx, &ty, 40, 4);
  EXPECT_LT(Rmse(robust, tx, ty), Rmse(plain, tx, ty));
  EXPECT_LT(Rmse(robust, tx, ty), 5.0);
}

TEST(PolynomialRegressionTest, FitsQuadratic) {
  Matrix x;
  Vector y;
  Rng rng(5);
  for (int i = 0; i < 80; ++i) {
    const double a = rng.Uniform(-3, 3);
    x.AppendRow({a});
    y.push_back(2 * a * a - a + 3);
  }
  PolynomialRegression model(2);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_NEAR(model.Predict({2.0}), 2 * 4 - 2 + 3, 0.05);
  EXPECT_NEAR(model.Predict({-1.5}), 2 * 2.25 + 1.5 + 3, 0.05);
}

// --------------------------------------------------------- kernel models
TEST(GaussianProcessTest, InterpolatesSmoothFunction) {
  Matrix x;
  Vector y;
  for (int i = 0; i <= 20; ++i) {
    const double t = i / 20.0 * 6.0;
    x.AppendRow({t});
    y.push_back(std::sin(t));
  }
  GaussianProcess gp(0.8, 1e-4);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_NEAR(gp.Predict({1.55}), std::sin(1.55), 0.05);
  EXPECT_NEAR(gp.Predict({4.0}), std::sin(4.0), 0.05);
}

TEST(RbfNetworkTest, FitsNonLinearSurface) {
  Matrix x;
  Vector y;
  Rng rng(6);
  for (int i = 0; i < 150; ++i) {
    const double a = rng.Uniform(-2, 2), b = rng.Uniform(-2, 2);
    x.AppendRow({a, b});
    y.push_back(std::exp(-(a * a + b * b)));
  }
  RbfNetwork model(12);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_LT(Rmse(model, x, y), 0.08);
}

// ----------------------------------------------------------- perceptron
TEST(MultilayerPerceptronTest, LearnsNonLinearFunction) {
  Matrix x;
  Vector y;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-1, 1);
    x.AppendRow({a});
    y.push_back(a * a);
  }
  MultilayerPerceptron::Options options;
  options.epochs = 400;
  MultilayerPerceptron mlp(options);
  ASSERT_TRUE(mlp.Fit(x, y).ok());
  EXPECT_LT(Rmse(mlp, x, y), 0.05);
}

// ----------------------------------------------------------- tree models
TEST(RegressionTreeTest, FitsPiecewiseConstant) {
  Matrix x;
  Vector y;
  for (int i = 0; i < 100; ++i) {
    const double a = i / 100.0;
    x.AppendRow({a});
    y.push_back(a < 0.5 ? 1.0 : 5.0);
  }
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_NEAR(tree.Predict({0.2}), 1.0, 1e-6);
  EXPECT_NEAR(tree.Predict({0.8}), 5.0, 1e-6);
  EXPECT_GT(tree.node_count(), 1);
}

TEST(RegressionTreeTest, RespectsMinSamplesLeaf) {
  Matrix x;
  Vector y;
  for (int i = 0; i < 4; ++i) {
    x.AppendRow({static_cast<double>(i)});
    y.push_back(i);
  }
  RegressionTree::Options options;
  options.min_samples_leaf = 10;  // cannot split at all
  RegressionTree tree(options);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_NEAR(tree.Predict({0}), 1.5, 1e-9);  // the global mean
}

TEST(BaggingTest, SmoothsSingleTreeVariance) {
  Matrix x;
  Vector y;
  Rng rng(8);
  for (int i = 0; i < 120; ++i) {
    const double a = rng.Uniform(0, 1);
    x.AppendRow({a});
    y.push_back(std::sin(6 * a) + 0.2 * rng.Normal());
  }
  Bagging bagging(15);
  ASSERT_TRUE(bagging.Fit(x, y).ok());
  EXPECT_LT(Rmse(bagging, x, y), 0.45);
}

TEST(RandomSubspaceTest, UsesFeatureSubsets) {
  Matrix x;
  Vector y;
  Rng rng(9);
  for (int i = 0; i < 120; ++i) {
    Vector row = {rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1),
                  rng.Uniform(0, 1)};
    y.push_back(3 * row[0] + row[2]);
    x.AppendRow(row);
  }
  RandomSubspace model(12, 0.5);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_LT(MeanRelativeError(model, x, y), 0.35);
}

TEST(RegressionByDiscretizationTest, PredictsBinMeans) {
  Matrix x;
  Vector y;
  for (int i = 0; i < 100; ++i) {
    const double a = i / 100.0;
    x.AppendRow({a});
    y.push_back(a * 10);
  }
  RegressionByDiscretization model(5);
  ASSERT_TRUE(model.Fit(x, y).ok());
  // With 5 equal-frequency bins over [0,10), predictions are bin means
  // (1, 3, 5, 7, 9).
  EXPECT_NEAR(model.Predict({0.05}), 0.95, 0.6);
  EXPECT_NEAR(model.Predict({0.95}), 8.95, 0.6);
}

// -------------------------------------------------------- model selection
TEST(ModelSelectionTest, ZooHasAllSevenWekaFamilies) {
  auto zoo = DefaultModelZoo();
  std::set<std::string> names;
  for (const auto& model : zoo) names.insert(model->name());
  for (const char* expected :
       {"GaussianProcess", "MultilayerPerceptron", "LeastMedianSquares",
        "Bagging", "RandomSubspace", "RegressionByDiscretization",
        "RBFNetwork"}) {
    EXPECT_TRUE(names.count(expected) > 0) << expected;
  }
}

TEST(ModelSelectionTest, PicksReasonableModelForLinearData) {
  Matrix x;
  Vector y;
  FillLinear(&x, &y, 80, 10, 0.1);
  CrossValidationSelector selector(4);
  SelectionReport report;
  auto model = selector.SelectAndFit(x, y, {}, &report);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_LT(MeanRelativeError(*model.value(), x, y), 0.1);
  EXPECT_FALSE(report.best_model.empty());
  EXPECT_GE(report.per_model_rmse.size(), 7u);
}

TEST(ModelSelectionTest, CustomCandidateListRespected) {
  Matrix x;
  Vector y;
  FillLinear(&x, &y, 40, 12);
  std::vector<std::unique_ptr<Model>> candidates;
  candidates.push_back(std::make_unique<LinearRegression>());
  CrossValidationSelector selector(3);
  SelectionReport report;
  auto model = selector.SelectAndFit(x, y, std::move(candidates), &report);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(report.best_model, "LinearRegression");
}

TEST(ModelSelectionTest, EmptyDataRejected) {
  CrossValidationSelector selector;
  EXPECT_FALSE(selector.SelectAndFit(Matrix(), {}).ok());
}

// ------------------------------------------------------------ refinement
TEST(OnlineEstimatorTest, ErrorDropsWithObservations) {
  // Ground truth: t = 5 + 30*gb, mild noise. This is the Fig. 16a dynamic.
  Rng rng(13);
  OnlineEstimator::Options options;
  options.min_samples = 5;
  options.refit_interval = 5;
  OnlineEstimator estimator(options);

  double early_error = 0.0, late_error = 0.0;
  for (int run = 0; run < 80; ++run) {
    const double gb = rng.Uniform(0.1, 4.0);
    const double truth = (5 + 30 * gb) * std::exp(rng.Normal(0, 0.05));
    const double err = estimator.Observe({gb}, truth);
    if (run < 10) early_error += err / 10;
    if (run >= 70) late_error += err / 10;
  }
  EXPECT_GT(early_error, 0.3);
  EXPECT_LT(late_error, 0.15);
  EXPECT_TRUE(estimator.has_model());
}

TEST(OnlineEstimatorTest, WindowBoundsMemory) {
  OnlineEstimator::Options options;
  options.window = 16;
  OnlineEstimator estimator(options);
  for (int i = 0; i < 100; ++i) {
    estimator.Observe({static_cast<double>(i)}, i * 2.0);
  }
  EXPECT_EQ(estimator.sample_count(), 16u);
}

TEST(OnlineEstimatorTest, AdaptsToInfrastructureChange) {
  // Fig. 16b: regime change halves execution times; the windowed estimator
  // must re-converge instead of staying wrong forever.
  Rng rng(14);
  OnlineEstimator::Options options;
  options.window = 60;
  options.refit_interval = 5;
  OnlineEstimator estimator(options);

  auto truth = [&](double gb, bool after) {
    const double scale = after ? 0.5 : 1.0;
    return (5 + 30 * gb) * scale * std::exp(rng.Normal(0, 0.05));
  };
  for (int run = 0; run < 100; ++run) {
    const double gb = rng.Uniform(0.1, 4.0);
    estimator.Observe({gb}, truth(gb, false));
  }
  // Right after the change the stale model overestimates by ~2x.
  double spike = 0.0;
  for (int run = 0; run < 5; ++run) {
    const double gb = rng.Uniform(0.1, 4.0);
    spike += estimator.RelativeError({gb}, truth(gb, true)) / 5;
  }
  EXPECT_GT(spike, 0.4);
  // Keep observing in the new regime; the error must recover.
  double recovered = 0.0;
  for (int run = 0; run < 120; ++run) {
    const double gb = rng.Uniform(0.1, 4.0);
    const double err = estimator.Observe({gb}, truth(gb, true));
    if (run >= 110) recovered += err / 10;
  }
  EXPECT_LT(recovered, 0.15);
}

TEST(OnlineEstimatorTest, SplitRefitMatchesObserve) {
  // Append + BeginRefit/Fit/Install at every due point is the off-lock form
  // of Observe, and leaves the estimator bit-identical to it.
  Rng rng(15);
  OnlineEstimator sync, split;
  for (int run = 0; run < 23; ++run) {
    const double gb = rng.Uniform(0.1, 4.0);
    const double truth = (5 + 30 * gb) * std::exp(rng.Normal(0, 0.05));
    EXPECT_EQ(sync.Observe({gb, 1.0 / gb}, truth),
              split.Append({gb, 1.0 / gb}, truth));
    if (split.refit_due()) {
      const OnlineEstimator::RefitInput input = split.BeginRefit();
      auto fitted = input.Fit();
      ASSERT_TRUE(fitted.ok());
      EXPECT_TRUE(split.Install(input.generation, std::move(fitted).value()));
    }
  }
  EXPECT_EQ(split.model_name(), sync.model_name());
  for (double gb : {0.3, 1.7, 3.9}) {
    EXPECT_EQ(split.Predict({gb, 1.0 / gb}), sync.Predict({gb, 1.0 / gb}));
  }
}

TEST(OnlineEstimatorTest, LateInstallNeverReplacesNewerModel) {
  OnlineEstimator estimator;
  for (int i = 1; i <= 10; ++i) estimator.Append({1.0 * i}, 2.0 * i);
  const OnlineEstimator::RefitInput older = estimator.BeginRefit();
  for (int i = 11; i <= 15; ++i) estimator.Append({1.0 * i}, 2.0 * i);
  const OnlineEstimator::RefitInput newer = estimator.BeginRefit();
  ASSERT_LT(older.generation, newer.generation);

  // The newer window's fit finishes first; the older one must not win.
  auto newer_model = newer.Fit();
  auto older_model = older.Fit();
  ASSERT_TRUE(newer_model.ok());
  ASSERT_TRUE(older_model.ok());
  EXPECT_TRUE(estimator.Install(newer.generation,
                                std::move(newer_model).value()));
  EXPECT_FALSE(estimator.Install(older.generation,
                                 std::move(older_model).value()));
  EXPECT_EQ(estimator.model_generation(), newer.generation);

  // A synchronous refit on newer data overtakes a fit begun before it.
  estimator.Append({16.0}, 32.0);
  const OnlineEstimator::RefitInput begun = estimator.BeginRefit();
  estimator.Append({17.0}, 34.0);
  ASSERT_TRUE(estimator.Refit().ok());
  auto begun_model = begun.Fit();
  ASSERT_TRUE(begun_model.ok());
  EXPECT_FALSE(
      estimator.Install(begun.generation, std::move(begun_model).value()));

  // A fit begun before Reset must not resurrect the discarded window.
  const OnlineEstimator::RefitInput discarded = estimator.BeginRefit();
  estimator.Reset();
  auto discarded_model = discarded.Fit();
  ASSERT_TRUE(discarded_model.ok());
  EXPECT_FALSE(estimator.Install(discarded.generation,
                                 std::move(discarded_model).value()));
  EXPECT_FALSE(estimator.has_model());
}

TEST(OnlineEstimatorTest, ResetDiscardsEverything) {
  OnlineEstimator estimator;
  for (int i = 0; i < 20; ++i) estimator.Observe({1.0 * i}, 2.0 * i);
  estimator.Reset();
  EXPECT_EQ(estimator.sample_count(), 0u);
  EXPECT_FALSE(estimator.has_model());
  EXPECT_EQ(estimator.Predict({1.0}), 0.0);
}

}  // namespace
}  // namespace ires
