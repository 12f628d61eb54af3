#include "tuner/surrogate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "tuner/pool_features.h"

namespace ceal::tuner {
namespace {

using config::ConfigSpace;
using config::Configuration;
using config::Parameter;

ConfigSpace grid() {
  return ConfigSpace(
      {Parameter::range("x", 1, 32), Parameter::range("y", 1, 8)});
}

TEST(Surrogate, FitsMultiplicativeSurface) {
  const auto space = grid();
  ceal::Rng rng(1);
  std::vector<Configuration> configs;
  std::vector<double> targets;
  for (int i = 0; i < 200; ++i) {
    const Configuration c = space.random_valid(rng);
    configs.push_back(c);
    targets.push_back(100.0 / c[0] * (1.0 + 0.2 * c[1]));
  }
  Surrogate model;
  model.fit(space, configs, targets, rng);
  // Ranking: fewer x is slower.
  EXPECT_GT(model.predict(space, {2, 4}), model.predict(space, {30, 4}));
}

TEST(Surrogate, LogTargetsKeepOutlierFromPoisoningGoodRegion) {
  const auto space = grid();
  ceal::Rng rng(2);
  std::vector<Configuration> configs;
  std::vector<double> targets;
  for (int x = 20; x <= 28; ++x) {
    configs.push_back({x, 1});
    targets.push_back(10.0);
  }
  configs.push_back({1, 8});
  targets.push_back(5000.0);  // extreme outlier
  Surrogate model;
  model.fit(space, configs, targets, rng);
  EXPECT_NEAR(model.predict(space, {24, 1}), 10.0, 3.0);
}

TEST(Surrogate, PredictionsArePositiveWithLogTargets) {
  const auto space = grid();
  ceal::Rng rng(3);
  std::vector<Configuration> configs{{1, 1}, {32, 8}, {16, 4}};
  std::vector<double> targets{100.0, 1.0, 10.0};
  Surrogate model;
  model.fit(space, configs, targets, rng);
  for (int x = 1; x <= 32; x += 5) {
    for (int y = 1; y <= 8; ++y) {
      EXPECT_GT(model.predict(space, {x, y}), 0.0);
    }
  }
}

TEST(Surrogate, LogTargetsRejectNonPositiveValues) {
  const auto space = grid();
  ceal::Rng rng(4);
  std::vector<Configuration> configs{{1, 1}};
  std::vector<double> targets{0.0};
  Surrogate model;
  EXPECT_THROW(model.fit(space, configs, targets, rng),
               ceal::PreconditionError);
  const std::vector<std::size_t> rows{0};
  EXPECT_THROW(model.fit(featurize_joint(space, configs), rows, targets, rng),
               ceal::PreconditionError);
}

TEST(Surrogate, RawModeAllowsAnyTargets) {
  const auto space = grid();
  ceal::Rng rng(5);
  std::vector<Configuration> configs{{1, 1}, {2, 1}};
  std::vector<double> targets{-5.0, 5.0};
  Surrogate model(ml::GradientBoostedTrees::surrogate_defaults(),
                  /*log_targets=*/false);
  model.fit(space, configs, targets, rng);
  EXPECT_LT(model.predict(space, {1, 1}), model.predict(space, {2, 1}));
}

TEST(Surrogate, PredictManyMatchesPredict) {
  const auto space = grid();
  ceal::Rng rng(6);
  std::vector<Configuration> configs{{1, 1}, {8, 2}, {32, 8}};
  std::vector<double> targets{30.0, 20.0, 10.0};
  Surrogate model;
  model.fit(space, configs, targets, rng);
  const auto many = model.predict_many(featurize_joint(space, configs));
  // The same features behind a junk column, read from column 1 on.
  ml::FeatureMatrix wide(space.dimension() + 1, configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto row = wide.mutable_row(i);
    row[0] = 1e9;
    const auto f = space.features(configs[i]);
    std::copy(f.begin(), f.end(), row.begin() + 1);
  }
  const auto windowed = model.predict_many(wide, 1);
  ASSERT_EQ(many.size(), 3u);
  ASSERT_EQ(windowed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(many[i], model.predict(space, configs[i]));
    EXPECT_EQ(windowed[i], many[i]);
  }
}

TEST(Surrogate, MatrixRowFitEqualsConfigurationFit) {
  // Both overloads share one training path: rows of a featurized matrix
  // (repeats allowed, as in a bootstrap resample) train the same model
  // as the configurations they were featurized from.
  const auto space = grid();
  std::vector<Configuration> pool{{1, 1}, {8, 2}, {32, 8}, {16, 3}};
  const ml::FeatureMatrix features = featurize_joint(space, pool);
  const std::vector<std::size_t> rows{2, 0, 2, 3};
  const std::vector<double> targets{10.0, 30.0, 11.0, 15.0};
  std::vector<Configuration> configs;
  for (const std::size_t r : rows) configs.push_back(pool[r]);
  Surrogate from_configs, from_rows;
  ceal::Rng r1(9), r2(9);
  from_configs.fit(space, configs, targets, r1);
  from_rows.fit(features, rows, targets, r2);
  EXPECT_EQ(from_rows.predict_many(features),
            from_configs.predict_many(features));
  EXPECT_EQ(r1.state(), r2.state());
}

TEST(Surrogate, MismatchedSizesRejected) {
  const auto space = grid();
  ceal::Rng rng(7);
  std::vector<Configuration> configs{{1, 1}};
  std::vector<double> targets{1.0, 2.0};
  Surrogate model;
  EXPECT_THROW(model.fit(space, configs, targets, rng),
               ceal::PreconditionError);
  const std::vector<std::size_t> rows{0};
  EXPECT_THROW(model.fit(featurize_joint(space, configs), rows, targets, rng),
               ceal::PreconditionError);
}

TEST(Surrogate, IsFittedLifecycle) {
  Surrogate model;
  EXPECT_FALSE(model.is_fitted());
  const auto space = grid();
  ceal::Rng rng(8);
  std::vector<Configuration> configs{{4, 4}};
  std::vector<double> targets{2.0};
  model.fit(space, configs, targets, rng);
  EXPECT_TRUE(model.is_fitted());
  EXPECT_NEAR(model.predict(space, {4, 4}), 2.0, 0.1);
}

}  // namespace
}  // namespace ceal::tuner
