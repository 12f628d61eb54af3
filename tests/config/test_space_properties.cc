// Parameterized round-trip and invariant sweep over a family of spaces
// with different shapes and constraints.
#include <gtest/gtest.h>

#include "config/config_space.h"
#include "core/rng.h"

namespace ceal::config {
namespace {

struct SpaceCase {
  const char* name;
  std::vector<Parameter> params;
  ConfigSpace::Constraint constraint;
};

SpaceCase make_case(int which) {
  switch (which) {
    case 0:
      return {"one_param", {Parameter::range("a", 0, 99)}, {}};
    case 1:
      return {"two_params",
              {Parameter::range("a", 1, 16), Parameter("b", {2, 4, 8})},
              {}};
    case 2:
      return {"constrained",
              {Parameter::range("p", 1, 50), Parameter::range("q", 1, 10)},
              [](std::span<const int> c) { return c[0] % c[1] == 0; }};
    case 3:
      return {"strided",
              {Parameter::range("x", 0, 100, 25),
               Parameter::range("y", -5, 5)},
              {}};
    default:
      return {"deep",
              {Parameter::range("a", 1, 4), Parameter::range("b", 1, 4),
               Parameter::range("c", 1, 4), Parameter::range("d", 1, 4),
               Parameter::range("e", 1, 4)},
              [](std::span<const int> c) {
                int total = 0;
                for (const int v : c) total += v;
                return total <= 12;
              }};
  }
}

class SpaceProperty : public ::testing::TestWithParam<int> {
 protected:
  SpaceProperty() {
    auto c = make_case(GetParam());
    space_ = std::make_unique<ConfigSpace>(std::move(c.params),
                                           std::move(c.constraint));
  }

  std::unique_ptr<ConfigSpace> space_;
};

TEST_P(SpaceProperty, FlatIndexRoundTripsEverywhere) {
  const std::uint64_t step = std::max<std::uint64_t>(
      1, space_->raw_size() / 257);
  for (std::uint64_t i = 0; i < space_->raw_size(); i += step) {
    EXPECT_EQ(space_->flat_index(space_->at(i)), i);
  }
}

TEST_P(SpaceProperty, RandomValidAlwaysValidates) {
  ceal::Rng rng(GetParam() + 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(space_->is_valid(space_->random_valid(rng)));
  }
}

TEST_P(SpaceProperty, NeighborsAreValidAndAdjacent) {
  ceal::Rng rng(GetParam() + 10);
  for (int i = 0; i < 20; ++i) {
    const auto c = space_->random_valid(rng);
    for (const auto& n : space_->neighbors(c)) {
      EXPECT_TRUE(space_->is_valid(n));
      int diffs = 0;
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (n[j] != c[j]) ++diffs;
      }
      EXPECT_EQ(diffs, 1);
    }
  }
}

TEST_P(SpaceProperty, EstimateTracksExactCount) {
  if (space_->raw_size() > 100000) GTEST_SKIP();
  ceal::Rng rng(GetParam() + 20);
  const double exact =
      static_cast<double>(space_->count_valid_exact()) /
      static_cast<double>(space_->raw_size());
  const double estimate = space_->estimate_valid_fraction(rng, 30000);
  EXPECT_NEAR(estimate, exact, 0.02);
}

TEST_P(SpaceProperty, FeaturesMatchConfigurationValues) {
  ceal::Rng rng(GetParam() + 30);
  const auto c = space_->random_valid(rng);
  const auto f = space_->features(c);
  ASSERT_EQ(f.size(), c.size());
  for (std::size_t j = 0; j < c.size(); ++j) {
    EXPECT_DOUBLE_EQ(f[j], static_cast<double>(c[j]));
  }
}

INSTANTIATE_TEST_SUITE_P(SpaceFamily, SpaceProperty,
                         ::testing::Range(0, 5),
                         [](const auto& info) {
                           return std::string(
                               make_case(info.param).name);
                         });

}  // namespace
}  // namespace ceal::config
