// Common interface for the regression models used as surrogates.
#pragma once

#include <span>

#include "core/rng.h"
#include "ml/dataset.h"

namespace ceal::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fits the model from scratch on `data`. Any previous fit is discarded.
  /// `rng` drives stochastic elements (subsampling, bagging).
  virtual void fit(const Dataset& data, ceal::Rng& rng) = 0;

  /// Predicts one example. Requires a prior successful fit().
  virtual double predict(std::span<const double> features) const = 0;

  /// True once fit() has completed.
  virtual bool is_fitted() const = 0;
};

}  // namespace ceal::ml
