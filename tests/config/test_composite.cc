#include "config/composite.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"

namespace ceal::config {
namespace {

CompositeSpace two_component_space(
    CompositeSpace::JointConstraint joint = {}) {
  ConfigSpace sim({Parameter::range("procs", 1, 4),
                   Parameter::range("ppn", 1, 2)},
                  [](std::span<const int> c) { return c[0] >= c[1]; });
  ConfigSpace ana({Parameter::range("procs", 1, 3)});
  std::vector<CompositeSpace::Component> comps;
  comps.push_back({"sim", std::move(sim)});
  comps.push_back({"ana", std::move(ana)});
  return CompositeSpace(std::move(comps), std::move(joint));
}

TEST(CompositeSpace, JointConcatenatesParameters) {
  const auto cs = two_component_space();
  EXPECT_EQ(cs.component_count(), 2u);
  EXPECT_EQ(cs.joint().dimension(), 3u);
  EXPECT_EQ(cs.joint().parameter(0).name(), "sim.procs");
  EXPECT_EQ(cs.joint().parameter(1).name(), "sim.ppn");
  EXPECT_EQ(cs.joint().parameter(2).name(), "ana.procs");
}

TEST(CompositeSpace, SliceRangesAreContiguous) {
  const auto cs = two_component_space();
  EXPECT_EQ(cs.slice_range(0), (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(cs.slice_range(1), (std::pair<std::size_t, std::size_t>{2, 3}));
}

TEST(CompositeSpace, SliceExtractsComponentConfig) {
  const auto cs = two_component_space();
  const Configuration joint{3, 2, 1};
  EXPECT_EQ(cs.slice(joint, 0), (Configuration{3, 2}));
  EXPECT_EQ(cs.slice(joint, 1), (Configuration{1}));
}

TEST(CompositeSpace, JoinInvertsSlice) {
  const auto cs = two_component_space();
  const Configuration joint{4, 1, 2};
  EXPECT_EQ(cs.join({cs.slice(joint, 0), cs.slice(joint, 1)}), joint);
}

TEST(CompositeSpace, JoinRejectsWrongPartCount) {
  const auto cs = two_component_space();
  EXPECT_THROW(cs.join({{1, 1}}), ceal::PreconditionError);
}

TEST(CompositeSpace, JointValidityEnforcesComponentConstraints) {
  const auto cs = two_component_space();
  EXPECT_TRUE(cs.joint().is_valid({2, 2, 1}));
  EXPECT_FALSE(cs.joint().is_valid({1, 2, 1}));  // sim: procs < ppn
}

TEST(CompositeSpace, JointValidityEnforcesWorkflowConstraint) {
  const auto cs = two_component_space(
      [](std::span<const int> joint) { return joint[0] + joint[2] <= 5; });
  EXPECT_TRUE(cs.joint().is_valid({4, 1, 1}));
  EXPECT_FALSE(cs.joint().is_valid({4, 1, 2}));
}

TEST(CompositeSpace, RandomValidSatisfiesEverything) {
  const auto cs = two_component_space(
      [](std::span<const int> joint) { return joint[0] + joint[2] <= 5; });
  ceal::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto c = cs.joint().random_valid(rng);
    EXPECT_GE(c[0], c[1]);
    EXPECT_LE(c[0] + c[2], 5);
  }
}

TEST(CompositeSpace, SurvivesMove) {
  // The joint constraint shares state with the composite; a moved-from
  // composite must not dangle it.
  auto cs = two_component_space();
  const CompositeSpace moved = std::move(cs);
  EXPECT_TRUE(moved.joint().is_valid({2, 2, 1}));
  EXPECT_FALSE(moved.joint().is_valid({1, 2, 1}));
  EXPECT_EQ(moved.slice({3, 1, 2}, 1), (Configuration{2}));
}

TEST(CompositeSpace, ComponentAccessors) {
  const auto cs = two_component_space();
  EXPECT_EQ(cs.component_name(0), "sim");
  EXPECT_EQ(cs.component_name(1), "ana");
  EXPECT_EQ(cs.component_space(1).dimension(), 1u);
  EXPECT_THROW(cs.component_name(2), ceal::PreconditionError);
}

TEST(CompositeSpace, RequiresAtLeastOneComponent) {
  EXPECT_THROW(CompositeSpace({}), ceal::PreconditionError);
}

}  // namespace
}  // namespace ceal::config
