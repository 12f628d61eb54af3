#include "sim/component_app.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace ceal::sim {
namespace {

using config::ConfigSpace;
using config::Configuration;
using config::Parameter;

ComponentApp simple_app(IoProfile io = {}, double startup = 2.0) {
  ParamRoles roles;
  roles.procs = 0;
  roles.ppn = 1;
  roles.tpp = 2;
  ConfigSpace space({Parameter::range("procs", 1, 64),
                     Parameter::range("ppn", 1, 36),
                     Parameter::range("tpp", 1, 4)});
  ScalingParams scaling;
  scaling.serial_s = 0.1;
  scaling.work_core_s = 50.0;
  return ComponentApp("app", std::move(space), roles, scaling, io, startup);
}

ComponentApp grid_app(IoProfile io = {}) {
  ParamRoles roles;
  roles.procs_x = 0;
  roles.procs_y = 1;
  roles.ppn = 2;
  roles.outputs = 3;
  roles.buffer_mb = 4;
  ConfigSpace space(
      {Parameter::range("px", 2, 8), Parameter::range("py", 2, 8),
       Parameter::range("ppn", 1, 36), Parameter::range("outputs", 4, 32, 4),
       Parameter::range("buffer_mb", 1, 40)});
  ScalingParams scaling;
  scaling.serial_s = 0.05;
  scaling.work_core_s = 20.0;
  return ComponentApp("grid", std::move(space), roles, scaling, io, 1.0);
}

TEST(ComponentApp, RoleExtraction) {
  const auto app = simple_app();
  const Configuration c{32, 8, 2};
  EXPECT_EQ(app.procs(c), 32);
  EXPECT_EQ(app.ppn(c), 8);
  EXPECT_EQ(app.tpp(c), 2);
  EXPECT_EQ(app.nodes(c), 4);
  EXPECT_DOUBLE_EQ(app.aspect(c), 1.0);
}

TEST(ComponentApp, NodesRoundUp) {
  const auto app = simple_app();
  EXPECT_EQ(app.nodes(Configuration{33, 8, 1}), 5);
  EXPECT_EQ(app.nodes(Configuration{1, 8, 1}), 1);  // ppn capped at procs
}

TEST(ComponentApp, GridDecompositionRoles) {
  const auto app = grid_app();
  const Configuration c{4, 8, 16, 8, 10};
  EXPECT_EQ(app.procs(c), 32);
  EXPECT_EQ(app.nodes(c), 2);
  EXPECT_DOUBLE_EQ(app.aspect(c), 2.0);
}

TEST(ComponentApp, OutputVolumeScalesWithOutputsKnob) {
  IoProfile io;
  io.base_output_gb = 0.1;  // at the minimum outputs value (4)
  const auto app = grid_app(io);
  EXPECT_DOUBLE_EQ(app.output_gb_per_step({2, 2, 1, 4, 10}), 0.1);
  EXPECT_DOUBLE_EQ(app.output_gb_per_step({2, 2, 1, 32, 10}), 0.8);
}

TEST(ComponentApp, NoOutputsKnobMeansConstantVolume) {
  IoProfile io;
  io.base_output_gb = 0.25;
  const auto app = simple_app(io);
  EXPECT_DOUBLE_EQ(app.output_gb_per_step({8, 2, 1}), 0.25);
}

TEST(ComponentApp, SinkAppsProduceNothing) {
  const auto app = simple_app();  // base_output_gb = 0
  EXPECT_DOUBLE_EQ(app.output_gb_per_step({8, 2, 1}), 0.0);
}

TEST(ComponentApp, ConsumerWorkScalesWithInputVolume) {
  IoProfile io;
  io.default_input_gb = 0.1;
  const auto app = simple_app(io);
  const MachineSpec machine;
  const Configuration c{8, 4, 1};
  const double at_default = app.step_compute_s(c, machine, 0.1);
  const double at_double = app.step_compute_s(c, machine, 0.2);
  // Parallel part doubles, serial part does not.
  EXPECT_GT(at_double, at_default * 1.5);
  EXPECT_LT(at_double, at_default * 2.0);
}

TEST(ComponentApp, StagingOverheadTradesFlushesAgainstStalls) {
  IoProfile io;
  io.base_output_gb = 0.0625;  // 64 MB at outputs = 4
  io.flush_latency_s = 2e-3;
  io.buffer_stall_s_per_mb = 1.5e-3;
  const auto app = grid_app(io);
  const double tiny = app.staging_overhead_s({4, 4, 4, 4, 1});
  const double mid = app.staging_overhead_s({4, 4, 4, 4, 16});
  const double big = app.staging_overhead_s({4, 4, 4, 4, 40});
  // Many flushes hurt at 1 MB; stalls hurt at 40 MB; 16 MB is cheaper
  // than both.
  EXPECT_LT(mid, tiny);
  EXPECT_LT(mid, big);
}

TEST(ComponentApp, NoBufferKnobMeansNoStagingOverhead) {
  IoProfile io;
  io.base_output_gb = 0.5;
  const auto app = simple_app(io);
  EXPECT_DOUBLE_EQ(app.staging_overhead_s({8, 2, 1}), 0.0);
}

TEST(ComponentApp, SoloExecComposesStartupStepsAndIo) {
  IoProfile io;
  io.base_output_gb = 0.1;
  const auto app = simple_app(io, /*startup=*/3.0);
  const MachineSpec machine;
  const Configuration c{16, 8, 1};
  const double step = app.step_compute_s(c, machine, 0.0);
  const double io_s = 0.1 / machine.fs_bw_gbs + machine.fs_latency_s;
  EXPECT_NEAR(app.solo_exec_s(c, machine, 10), 3.0 + 10.0 * (step + io_s),
              1e-9);
}

TEST(ComponentApp, SoloCompUsesNodesAndCores) {
  const auto app = simple_app();
  const MachineSpec machine;
  const Configuration c{16, 8, 1};  // 2 nodes
  const double exec = app.solo_exec_s(c, machine, 10);
  EXPECT_DOUBLE_EQ(app.solo_comp_ch(c, machine, 10),
                   exec * 2 * 36 / 3600.0);
}

TEST(ComponentApp, NodeLimitConstraintFiltersConfigs) {
  ParamRoles roles;
  roles.procs = 0;
  roles.ppn = 1;
  const auto constraint = ComponentApp::node_limit_constraint(roles, 4);
  EXPECT_TRUE(constraint(Configuration{16, 4}));   // 4 nodes
  EXPECT_FALSE(constraint(Configuration{17, 4}));  // 5 nodes
  // 1 node (ppn capped at procs)
  EXPECT_TRUE(constraint(Configuration{2, 35}));
}

TEST(ComponentApp, NodeLimitConstraintHandlesGridRoles) {
  ParamRoles roles;
  roles.procs_x = 0;
  roles.procs_y = 1;
  roles.ppn = 2;
  const auto constraint = ComponentApp::node_limit_constraint(roles, 2);
  // 16 procs / 8 ppn = 2 nodes, 32 procs / 8 ppn = 4 nodes.
  EXPECT_TRUE(constraint(Configuration{4, 4, 8}));
  EXPECT_FALSE(constraint(Configuration{4, 8, 8}));
}

TEST(ComponentApp, UnconfigurableAppIsAllowedWithoutProcsRole) {
  ParamRoles roles;
  roles.procs = 0;
  ConfigSpace space({Parameter("procs", {1})});
  ScalingParams scaling;
  scaling.serial_s = 1.0;
  scaling.work_core_s = 0.0;
  const ComponentApp app("plot", std::move(space), roles, scaling, {}, 1.0);
  EXPECT_FALSE(app.configurable());
  EXPECT_EQ(app.nodes(Configuration{1}), 1);
}

}  // namespace
}  // namespace ceal::sim
