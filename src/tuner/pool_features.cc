#include "tuner/pool_features.h"

#include "core/parallel.h"

namespace ceal::tuner {

namespace {

/// Featurization is memory-bound; below this many rows the pool
/// dispatch costs more than it saves.
constexpr std::size_t kParallelRows = 256;

}  // namespace

ml::FeatureMatrix featurize_joint(
    const config::ConfigSpace& space,
    std::span<const config::Configuration> configs) {
  ml::FeatureMatrix out(space.dimension(), configs.size());
  const auto fill_row = [&](std::size_t i) {
    out.set_row(i, space.features(configs[i]));
  };
  if (configs.size() >= kParallelRows) {
    ceal::parallel_apply(0, configs.size(), fill_row);
  } else {
    for (std::size_t i = 0; i < configs.size(); ++i) fill_row(i);
  }
  return out;
}

}  // namespace ceal::tuner
