// Differential oracle for pool generation: measure_pool and
// measure_components held bitwise to a literal serial transcription of
// how a pool is drawn and measured, one row after another (rejection
// sampling against each component's own space plus the allocation
// limit, a std::set of drawn rows, a noisy run, then the noise-free
// truth). The production path splits this into a serial draw pass and a
// parallel evaluation pass; it must give the same rows, the same values
// and the same rng stream at any worker count. Suite names contain
// "Measure", so the TSan stage of tools/run_tier1.sh runs them.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel.h"
#include "sim/workloads.h"
#include "tuner/measured_pool.h"
#include "tuner/session_spec.h"

namespace ceal::tuner {
namespace {

/// The joint constraint spelled out: every component slice valid in its
/// own space (domain and constraint) and the summed node demand within
/// the allocation.
bool reference_valid(const sim::InSituWorkflow& workflow,
                     const config::Configuration& c) {
  for (std::size_t j = 0; j < workflow.component_count(); ++j) {
    if (!workflow.app(j).space().is_valid(workflow.space().slice(c, j))) {
      return false;
    }
  }
  return workflow.total_nodes(c) <= workflow.machine().allocation_nodes;
}

/// Uniform rejection sampling over the raw joint grid.
config::Configuration reference_draw(const sim::InSituWorkflow& workflow,
                                     ceal::Rng& rng) {
  const config::ConfigSpace& space = workflow.joint_space();
  for (;;) {
    config::Configuration c = space.at(rng.uniform_u64(space.raw_size()));
    if (reference_valid(workflow, c)) return c;
  }
}

struct ReferencePool {
  MeasuredPool pool;
  std::size_t repeats = 0;  ///< draws dropped as repeats
};

ReferencePool reference_pool(const sim::InSituWorkflow& workflow,
                             std::size_t n, std::uint64_t seed) {
  ceal::Rng rng(seed);
  ReferencePool ref;
  MeasuredPool& pool = ref.pool;
  std::set<config::Configuration> drawn;
  for (std::size_t i = 0; i < n; ++i) {
    config::Configuration c = reference_draw(workflow, rng);
    while (!drawn.insert(c).second) {
      ++ref.repeats;
      c = reference_draw(workflow, rng);
    }
    const sim::Measurement m = workflow.run(c, rng);
    const sim::Measurement t = workflow.expected(c);
    pool.configs.push_back(std::move(c));
    pool.exec_s.push_back(m.exec_s);
    pool.comp_ch.push_back(m.comp_ch);
    pool.true_exec_s.push_back(t.exec_s);
    pool.true_comp_ch.push_back(t.comp_ch);
  }
  return ref;
}

std::vector<ComponentSamples> reference_components(
    const sim::InSituWorkflow& workflow, std::size_t n_per_component,
    std::uint64_t seed) {
  ceal::Rng rng(seed);
  std::vector<ComponentSamples> all(workflow.component_count());
  for (std::size_t j = 0; j < workflow.component_count(); ++j) {
    const auto& app = workflow.app(j);
    const std::size_t n = app.configurable() ? n_per_component : 1;
    for (std::size_t i = 0; i < n; ++i) {
      config::Configuration c = app.space().random_valid(rng);
      const sim::Measurement m = workflow.run_component(j, c, rng);
      all[j].configs.push_back(std::move(c));
      all[j].exec_s.push_back(m.exec_s);
      all[j].comp_ch.push_back(m.comp_ch);
    }
  }
  return all;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_pool(const MeasuredPool& got, const MeasuredPool& want) {
  ASSERT_EQ(got.configs.size(), want.configs.size());
  for (std::size_t i = 0; i < want.configs.size(); ++i) {
    ASSERT_EQ(got.configs[i], want.configs[i]) << "row " << i;
  }
  EXPECT_TRUE(same_bits(got.exec_s, want.exec_s));
  EXPECT_TRUE(same_bits(got.comp_ch, want.comp_ch));
  EXPECT_TRUE(same_bits(got.true_exec_s, want.true_exec_s));
  EXPECT_TRUE(same_bits(got.true_comp_ch, want.true_comp_ch));
}

constexpr std::size_t kPoolSizes[] = {60, 2000, 20000};
constexpr std::size_t kWorkerCounts[] = {1, 4};

using Case = std::tuple<std::string, std::uint64_t>;

class MeasurePoolOracle : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override { ceal::set_global_thread_pool_threads(0); }
};

TEST_P(MeasurePoolOracle, MatchesTheSerialReferenceAtAnyWorkerCount) {
  const auto& [name, seed] = GetParam();
  const sim::Workload wl = workload_by_name(name);
  for (const std::size_t n : kPoolSizes) {
    const ReferencePool ref = reference_pool(wl.workflow, n, seed);
    for (const std::size_t workers : kWorkerCounts) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed) + " rows " +
                   std::to_string(n) + " workers " + std::to_string(workers));
      ceal::set_global_thread_pool_threads(workers);
      expect_same_pool(measure_pool(wl.workflow, n, seed), ref.pool);
    }
  }
}

TEST_P(MeasurePoolOracle, ComponentsMatchTheSerialReference) {
  const auto& [name, seed] = GetParam();
  const sim::Workload wl = workload_by_name(name);
  const auto want = reference_components(wl.workflow, 500, seed);
  for (const std::size_t workers : kWorkerCounts) {
    ceal::set_global_thread_pool_threads(workers);
    const auto got = measure_components(wl.workflow, 500, seed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].configs, want[j].configs) << "component " << j;
      EXPECT_TRUE(same_bits(got[j].exec_s, want[j].exec_s));
      EXPECT_TRUE(same_bits(got[j].comp_ch, want[j].comp_ch));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workflows, MeasurePoolOracle,
    ::testing::Combine(::testing::Values("LV", "HS", "GP"),
                       ::testing::Values(20211114u, 1u, 7u)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Two gaps the paper's workflows leave. Their components never reach
// their own node limit before the allocation's, so here each component
// may use at most 3 nodes: its constraint rejects draws the workflow
// constraint accepts. And they repeat a draw at most once per 20000
// rows, while a stray draw in the repeat path often goes unseen:
// rejection sampling on a shifted stream tends to land on the same
// accepted draw. The small space repeats ~170 times in 2000 rows.
TEST(MeasurePoolOracleCases, SmallConstrainedSpaceWithManyRepeats) {
  sim::ParamRoles roles;
  roles.procs = 0;
  roles.ppn = 1;
  std::vector<sim::ComponentApp> apps;
  for (const char* name : {"a", "b"}) {
    apps.emplace_back(
        name,
        config::ConfigSpace({config::Parameter::range("procs", 1, 64),
                             config::Parameter::range("ppn", 1, 8)},
                            sim::ComponentApp::node_limit_constraint(roles, 3)),
        roles, sim::ScalingParams{}, sim::IoProfile{}, 0.0);
  }
  const sim::InSituWorkflow small("small", sim::MachineSpec{},
                                  std::move(apps), {{0, 1}});
  const ReferencePool ref = reference_pool(small, 2000, 3);
  EXPECT_GT(ref.repeats, 100u);
  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ceal::set_global_thread_pool_threads(workers);
    expect_same_pool(measure_pool(small, 2000, 3), ref.pool);
  }
  ceal::set_global_thread_pool_threads(0);
}

// The repeat path is only exercised where draws repeat: at 20000 rows
// LV and GP do, for every oracle seed together.
TEST(MeasurePoolOracleCases, LargePoolsDrawRepeats) {
  for (const char* name : {"LV", "GP"}) {
    const sim::Workload wl = workload_by_name(name);
    std::size_t repeats = 0;
    for (const std::uint64_t seed : {20211114u, 1u, 7u}) {
      repeats += reference_pool(wl.workflow, 20000, seed).repeats;
    }
    EXPECT_GT(repeats, 0u) << name;
  }
}

}  // namespace
}  // namespace ceal::tuner
