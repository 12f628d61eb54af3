#include "tuner/measured_pool.h"

#include <algorithm>
#include <set>
#include <string>

#include "core/error.h"

namespace ceal::tuner {

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
  ceal::Rng rng(seed);
  MeasuredPool pool;
  pool.configs.reserve(n);
  pool.exec_s.reserve(n);
  pool.comp_ch.reserve(n);
  // Rows are distinct (load_pool_csv rejects a repeat). A repeated draw
  // is dropped before its noise draw, so a pool without repeats keeps
  // its bits; 64 * n repeats in a row mean the space is too small.
  std::set<config::Configuration> drawn;
  for (std::size_t i = 0; i < n; ++i) {
    config::Configuration c = workflow.joint_space().random_valid(rng);
    for (std::size_t repeats = 0; !drawn.insert(c).second; ++repeats) {
      CEAL_EXPECT_MSG(repeats < 64 * n,
                      "cannot draw " + std::to_string(n) +
                          " distinct configurations of " + workflow.name());
      c = workflow.joint_space().random_valid(rng);
    }
    const sim::Measurement m = workflow.run(c, rng);
    const sim::Measurement t = workflow.expected(c);
    pool.configs.push_back(std::move(c));
    pool.exec_s.push_back(m.exec_s);
    pool.comp_ch.push_back(m.comp_ch);
    pool.true_exec_s.push_back(t.exec_s);
    pool.true_comp_ch.push_back(t.comp_ch);
  }
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
