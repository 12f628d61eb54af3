#include "tuner/pool_features.h"

#include <algorithm>

#include "core/error.h"
#include "core/parallel.h"
#include "core/telemetry.h"

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

void featurize_joint_chunked(
    const config::ConfigSpace& space,
    std::span<const config::Configuration> configs, std::size_t chunk_rows,
    const std::function<void(std::size_t, const ml::FeatureMatrix&)>& fn,
    telemetry::Telemetry* telemetry) {
  CEAL_EXPECT(chunk_rows >= 1);
  // Each block is featurized by the same per-row code as the monolithic
  // path, so block row (first + i) equals monolithic row (first + i)
  // bitwise; only the allocation footprint changes.
  for (std::size_t first = 0; first < configs.size(); first += chunk_rows) {
    const std::size_t len = std::min(chunk_rows, configs.size() - first);
    telemetry::ScopedSpan span(telemetry, "pool.chunk",
                               telemetry::ScopedSpan::kNoEvents);
    if (telemetry != nullptr) {
      telemetry->count("pool.chunks");
      telemetry->count("pool.chunk.rows", len);
    }
    const ml::FeatureMatrix block =
        featurize_joint(space, configs.subspan(first, len));
    fn(first, block);
  }
}

}  // namespace ceal::tuner
