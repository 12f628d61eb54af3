// Featurization of a candidate pool.
//
// The tuners score the same pool with their models on every iteration.
// Featurizing a configuration allocates a fresh std::vector<double> per
// call, so the pool is featurized once into one row-major joint feature
// matrix (held by tuner::PoolScorer) and every later scoring pass is a
// pure read of it. That matrix is the pool's only featurization: a
// component model reads its columns slice_range(j) in place
// (tuner/low_fidelity.h), since each component's sub-configuration is a
// contiguous column range of the joint one and features are plain value
// casts.
#pragma once

#include <span>
#include <vector>

#include "config/config_space.h"
#include "ml/dataset.h"

namespace ceal::tuner {

/// Featurizes `configs` against `space`, parallel over rows on the
/// global thread pool. Row i is exactly space.features(configs[i]), so
/// matrix and per-row scoring agree bitwise.
ml::FeatureMatrix featurize_joint(
    const config::ConfigSpace& space,
    std::span<const config::Configuration> configs);

}  // namespace ceal::tuner
