#include "tuner/surrogate.h"

#include <cmath>

#include "core/error.h"
#include "ml/dataset.h"

namespace ceal::tuner {

Surrogate::Surrogate(ml::GbtParams params, bool log_targets)
    : model_(params), log_targets_(log_targets) {}

template <typename Row>
void Surrogate::fit_rows(std::size_t n_features,
                         std::span<const double> targets, const Row& row,
                         ceal::Rng& rng) {
  CEAL_EXPECT(!targets.empty());
  ml::Dataset data(n_features);
  data.reserve(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) {
    double y = targets[k];
    CEAL_EXPECT_MSG(std::isfinite(y),
                    "surrogate targets must be finite — failed or censored "
                    "measurements must be filtered before fitting");
    if (log_targets_) {
      CEAL_EXPECT_MSG(y > 0.0, "log-target surrogate needs positive targets");
      y = std::log(y);
    }
    data.add(row(k), y);
  }
  model_.fit(data, rng);
}

void Surrogate::fit(const config::ConfigSpace& space,
                    std::span<const config::Configuration> configs,
                    std::span<const double> targets, ceal::Rng& rng) {
  CEAL_EXPECT(configs.size() == targets.size());
  fit_rows(space.dimension(), targets,
           [&](std::size_t k) { return space.features(configs[k]); }, rng);
}

void Surrogate::fit(const ml::FeatureMatrix& features,
                    std::span<const std::size_t> rows,
                    std::span<const double> targets, ceal::Rng& rng) {
  CEAL_EXPECT(rows.size() == targets.size());
  fit_rows(features.n_features(), targets,
           [&](std::size_t k) { return features.row(rows[k]); }, rng);
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
