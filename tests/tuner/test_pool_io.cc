#include "tuner/pool_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/error.h"
#include "sim/workloads.h"

namespace ceal::tuner {
namespace {

class PoolIoTest : public ::testing::Test {
 protected:
  PoolIoTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 60, 1)),
        path_(::testing::TempDir() + "ceal_pool_test." +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".csv") {}

  void TearDown() override { std::remove(path_.c_str()); }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::string path_;
};

TEST_F(PoolIoTest, GeneratedPoolsAlwaysLoadBack) {
  // The 20k-row LV pool of seed 1 once held a repeated configuration, so
  // save_pool_csv wrote a file load_pool_csv refused ("duplicate
  // configuration ... (first at line 527)").
  const auto& space = wl_.workflow.joint_space();
  const MeasuredPool pool = measure_pool(wl_.workflow, 20000, 1);
  save_pool_csv(pool, space, path_);
  EXPECT_EQ(load_pool_csv(space, path_).configs, pool.configs);
}

TEST_F(PoolIoTest, RoundTripPreservesEverything) {
  const auto& space = wl_.workflow.joint_space();
  save_pool_csv(pool_, space, path_);
  const MeasuredPool loaded = load_pool_csv(space, path_);
  ASSERT_EQ(loaded.size(), pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    EXPECT_EQ(loaded.configs[i], pool_.configs[i]);
    EXPECT_DOUBLE_EQ(loaded.exec_s[i], pool_.exec_s[i]);
    EXPECT_DOUBLE_EQ(loaded.comp_ch[i], pool_.comp_ch[i]);
    EXPECT_DOUBLE_EQ(loaded.true_exec_s[i], pool_.true_exec_s[i]);
    EXPECT_DOUBLE_EQ(loaded.true_comp_ch[i], pool_.true_comp_ch[i]);
  }
}

TEST_F(PoolIoTest, PoolWithoutTruthColumnsFallsBackToMeasured) {
  const auto& space = wl_.workflow.joint_space();
  MeasuredPool measured_only = pool_;
  measured_only.true_exec_s.clear();
  measured_only.true_comp_ch.clear();
  save_pool_csv(measured_only, space, path_);
  const MeasuredPool loaded = load_pool_csv(space, path_);
  EXPECT_DOUBLE_EQ(loaded.true_exec_s[0], loaded.exec_s[0]);
}

TEST_F(PoolIoTest, RejectsInvalidConfigurationRows) {
  const auto& space = wl_.workflow.joint_space();
  std::ofstream os(path_);
  os << "a,b,c,d,e,f,exec_s,comp_ch\n";
  os << "999999,1,1,2,1,1,1.0,1.0\n";  // procs out of domain
  os.close();
  EXPECT_THROW(load_pool_csv(space, path_), ceal::PreconditionError);
}

TEST_F(PoolIoTest, RejectsWrongColumnCount) {
  const auto& space = wl_.workflow.joint_space();
  std::ofstream os(path_);
  os << "header\n2,1,1,1.0\n";
  os.close();
  EXPECT_THROW(load_pool_csv(space, path_), ceal::PreconditionError);
}

TEST_F(PoolIoTest, RejectsNonPositiveMeasurements) {
  const auto& space = wl_.workflow.joint_space();
  std::ofstream os(path_);
  os << "a,b,c,d,e,f,exec_s,comp_ch\n";
  os << "288,18,2,288,18,2,-1.0,1.0\n";
  os.close();
  EXPECT_THROW(load_pool_csv(space, path_), ceal::PreconditionError);
}

TEST_F(PoolIoTest, RejectsDuplicateConfigurationRows) {
  const auto& space = wl_.workflow.joint_space();
  save_pool_csv(pool_, space, path_);
  // Re-append the first data row: same configuration, different values.
  std::string first_row;
  {
    std::ifstream is(path_);
    std::getline(is, first_row);  // header
    std::getline(is, first_row);
  }
  std::ofstream(path_, std::ios::app) << first_row << "\n";
  try {
    load_pool_csv(space, path_);
    FAIL() << "duplicate row was accepted";
  } catch (const ceal::PreconditionError& e) {
    const std::string what = e.what();
    // One-line "<path>:<lineno>: why" pointing at the duplicate and its
    // first occurrence.
    const std::string lineno = std::to_string(pool_.size() + 2);
    EXPECT_NE(what.find(path_ + ":" + lineno), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate configuration"), std::string::npos) << what;
    EXPECT_NE(what.find("(first at line 2)"), std::string::npos) << what;
  }
}

TEST_F(PoolIoTest, RejectsEmptyFile) {
  const auto& space = wl_.workflow.joint_space();
  std::ofstream os(path_);
  os.close();
  EXPECT_THROW(load_pool_csv(space, path_), ceal::PreconditionError);
}

TEST_F(PoolIoTest, MissingFileThrows) {
  EXPECT_THROW(load_pool_csv(wl_.workflow.joint_space(),
                             "/nonexistent/pool.csv"),
               std::runtime_error);
}

TEST_F(PoolIoTest, ComponentSamplesRoundTrip) {
  const auto comps = measure_components(wl_.workflow, 25, 2);
  const auto& space = wl_.workflow.app(0).space();
  save_component_csv(comps[0], space, path_);
  const ComponentSamples loaded = load_component_csv(space, path_);
  ASSERT_EQ(loaded.size(), comps[0].size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.configs[i], comps[0].configs[i]);
    EXPECT_DOUBLE_EQ(loaded.exec_s[i], comps[0].exec_s[i]);
    EXPECT_DOUBLE_EQ(loaded.comp_ch[i], comps[0].comp_ch[i]);
  }
}

TEST_F(PoolIoTest, LoadedPoolDrivesTuning) {
  const auto& space = wl_.workflow.joint_space();
  save_pool_csv(pool_, space, path_);
  const MeasuredPool loaded = load_pool_csv(space, path_);
  EXPECT_EQ(loaded.best_index(Objective::kExecTime),
            pool_.best_index(Objective::kExecTime));
  EXPECT_EQ(loaded.best_truth_index(Objective::kComputerTime),
            pool_.best_truth_index(Objective::kComputerTime));
}

}  // namespace
}  // namespace ceal::tuner
