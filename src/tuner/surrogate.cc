#include "tuner/surrogate.h"

#include <cmath>

#include "core/error.h"
#include "ml/dataset.h"

namespace ceal::tuner {

Surrogate::Surrogate(ml::GbtParams params, bool log_targets)
    : model_(params), log_targets_(log_targets) {}

void Surrogate::fit(const config::ConfigSpace& space,
                    std::span<const config::Configuration> configs,
                    std::span<const double> targets, ceal::Rng& rng) {
  CEAL_EXPECT(!configs.empty());
  CEAL_EXPECT(configs.size() == targets.size());
  ml::Dataset data(space.dimension());
  data.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    double y = targets[i];
    CEAL_EXPECT_MSG(std::isfinite(y),
                    "surrogate targets must be finite — failed or censored "
                    "measurements must be filtered before fitting");
    if (log_targets_) {
      CEAL_EXPECT_MSG(y > 0.0, "log-target surrogate needs positive targets");
      y = std::log(y);
    }
    data.add(space.features(configs[i]), y);
  }
  model_.fit(data, rng);
}

double Surrogate::predict(const config::ConfigSpace& space,
                          const config::Configuration& c) const {
  return predict_features(space.features(c));
}

double Surrogate::predict_features(std::span<const double> features) const {
  const double raw = model_.predict(features);
  return log_targets_ ? std::exp(raw) : raw;
}

std::vector<double> Surrogate::predict_many(const ml::FeatureMatrix& rows,
                                            std::size_t first_column) const {
  std::vector<double> out = model_.predict_matrix(rows, first_column);
  if (log_targets_) {
    for (double& v : out) v = std::exp(v);
  }
  return out;
}

}  // namespace ceal::tuner
