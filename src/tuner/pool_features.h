// Featurization of a candidate pool.
//
// The tuners score the same pool with their models on every iteration.
// Featurizing a configuration allocates a fresh std::vector<double> per
// call, so the pool is featurized once into one row-major joint feature
// matrix and every later scoring pass is a pure read of it. That matrix
// is the pool's only featurization: a component model reads its columns
// slice_range(j) in place (tuner/low_fidelity.h), since each
// component's sub-configuration is a contiguous column range of the
// joint one and features are plain value casts.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "config/config_space.h"
#include "ml/dataset.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::tuner {

/// Featurizes `configs` against `space`, parallel over rows on the
/// global thread pool. Row i is exactly space.features(configs[i]), so
/// matrix and per-row scoring agree bitwise.
ml::FeatureMatrix featurize_joint(
    const config::ConfigSpace& space,
    std::span<const config::Configuration> configs);

/// Streaming counterpart of featurize_joint for pools too large to hold
/// as one feature matrix: featurizes consecutive blocks of at most
/// `chunk_rows` configurations (chunk_rows >= 1) into a reusable block
/// and calls `fn(first, block)` for each, where `first` is the pool
/// index of the block's row 0. Block rows are bitwise identical to the
/// corresponding monolithic featurize_joint rows for any thread count.
/// `telemetry` (nullable) receives the "pool.chunk" span plus
/// "pool.chunks"/"pool.chunk.rows" counters per block.
void featurize_joint_chunked(
    const config::ConfigSpace& space,
    std::span<const config::Configuration> configs, std::size_t chunk_rows,
    const std::function<void(std::size_t, const ml::FeatureMatrix&)>& fn,
    telemetry::Telemetry* telemetry = nullptr);

}  // namespace ceal::tuner
