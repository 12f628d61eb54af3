#include "tuner/measured_pool.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>

#include "core/error.h"
#include "core/parallel.h"

namespace ceal::tuner {

namespace {

/// Rows per parallel_apply item of measure_pool's evaluation pass.
constexpr std::size_t kPoolBlockRows = 256;

/// FNV-1a over a configuration's values.
std::size_t hash_values(const config::Configuration& c) {
  std::uint64_t h = 14695981039346656037ull;
  for (const int v : c) {
    h ^= static_cast<std::uint32_t>(v);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

std::size_t MeasuredPool::best_index(Objective objective) const {
  CEAL_EXPECT(!configs.empty());
  const auto& values = measured(objective);
  return static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
}

std::size_t MeasuredPool::best_truth_index(Objective objective) const {
  CEAL_EXPECT(!configs.empty());
  const auto& values = truth(objective);
  return static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
}

MeasuredPool measure_pool(const sim::InSituWorkflow& workflow, std::size_t n,
                          std::uint64_t seed) {
  CEAL_EXPECT(n >= 1);
  const config::ConfigSpace& space = workflow.joint_space();
  ceal::Rng rng(seed);
  MeasuredPool pool;
  pool.configs.reserve(n);
  // Serial pass: every rng draw, row by row, the configuration and then
  // its noise factor. Rows are distinct (load_pool_csv rejects a repeat).
  // A repeated draw is dropped before its noise draw, so a pool without
  // repeats keeps its bits; 64 * n repeats in a row mean the space is too
  // small. The dedup set holds row indices, hashed and compared by their
  // rows.
  const auto& configs = pool.configs;
  const auto hash = [&](std::size_t i) { return hash_values(configs[i]); };
  const auto same = [&](std::size_t a, std::size_t b) {
    return configs[a] == configs[b];
  };
  std::unordered_set<std::size_t, decltype(hash), decltype(same)> drawn(
      n, hash, same);
  std::vector<double> noise(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.configs.push_back(space.random_valid(rng));
    for (std::size_t repeats = 0; !drawn.insert(i).second; ++repeats) {
      CEAL_EXPECT_MSG(repeats < 64 * n,
                      "cannot draw " + std::to_string(n) +
                          " distinct configurations of " + workflow.name());
      pool.configs.back() = space.random_valid(rng);
    }
    noise[i] = workflow.noise_factor(rng);
  }

  // Parallel pass: no draws, each row on its own. One cost breakdown
  // gives both the measurement (times the row's noise factor) and the
  // truth (times 1.0), exactly as run() and expected() would.
  pool.exec_s.resize(n);
  pool.comp_ch.resize(n);
  pool.true_exec_s.resize(n);
  pool.true_comp_ch.resize(n);
  const std::size_t blocks = (n + kPoolBlockRows - 1) / kPoolBlockRows;
  ceal::parallel_apply(0, blocks, [&](std::size_t block) {
    const std::size_t end = std::min(n, (block + 1) * kPoolBlockRows);
    for (std::size_t i = block * kPoolBlockRows; i < end; ++i) {
      const sim::CostBreakdown bd = workflow.explain(pool.configs[i]);
      const sim::Measurement m = workflow.measurement(bd, noise[i]);
      const sim::Measurement t = workflow.measurement(bd, 1.0);
      pool.exec_s[i] = m.exec_s;
      pool.comp_ch[i] = m.comp_ch;
      pool.true_exec_s[i] = t.exec_s;
      pool.true_comp_ch[i] = t.comp_ch;
    }
  });
  return pool;
}

std::vector<ComponentSamples> measure_components(
    const sim::InSituWorkflow& workflow, std::size_t n_per_component,
    std::uint64_t seed) {
  CEAL_EXPECT(n_per_component >= 1);
  ceal::Rng rng(seed);
  std::vector<ComponentSamples> all(workflow.component_count());
  for (std::size_t j = 0; j < workflow.component_count(); ++j) {
    const auto& app = workflow.app(j);
    const std::size_t n = app.configurable() ? n_per_component : 1;
    auto& samples = all[j];
    samples.configs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      config::Configuration c = app.space().random_valid(rng);
      const sim::Measurement m = workflow.run_component(j, c, rng);
      samples.configs.push_back(std::move(c));
      samples.exec_s.push_back(m.exec_s);
      samples.comp_ch.push_back(m.comp_ch);
    }
  }
  return all;
}

}  // namespace ceal::tuner
