// Focused tests of GEIST's parameter graph and selection behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "config/config_space.h"
#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "tuner/geist.h"

namespace ceal::tuner {
namespace {

using config::ConfigSpace;
using config::Configuration;
using config::Parameter;

TEST(PoolGraph, ChainNeighborsAreIndexAdjacent) {
  // Configurations on a 1-D line: nearest neighbours in feature space are
  // the nearest values.
  const ConfigSpace space({Parameter::range("x", 0, 99)});
  std::vector<Configuration> configs;
  for (int x = 0; x < 100; ++x) configs.push_back({x});
  const PoolGraph graph(space, configs, /*k_neighbors=*/2);
  ASSERT_EQ(graph.size(), 100u);
  // Interior nodes: neighbours are x-1 and x+1.
  for (std::size_t i = 10; i < 90; ++i) {
    const auto& nbrs = graph.neighbors(i);
    ASSERT_EQ(nbrs.size(), 2u);
    for (const std::size_t nb : nbrs) {
      const auto delta = static_cast<std::ptrdiff_t>(nb) -
                         static_cast<std::ptrdiff_t>(i);
      EXPECT_LE(std::abs(delta), 2);
      EXPECT_NE(delta, 0);
    }
  }
}

TEST(PoolGraph, NormalisationMakesScalesComparable) {
  // Feature 0 in [0,1], feature 1 in [0,1000]. Two clusters split on
  // feature 0 only; with min-max normalisation, same-cluster points are
  // each other's neighbours despite feature 1 spreading within clusters.
  const ConfigSpace space(
      {Parameter("a", {0, 1}), Parameter::range("b", 0, 1000, 100)});
  std::vector<Configuration> configs;
  for (int b = 0; b <= 1000; b += 100) {
    configs.push_back({0, b});
    configs.push_back({1, b});
  }
  const PoolGraph graph(space, configs, /*k_neighbors=*/1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (const std::size_t nb : graph.neighbors(i)) {
      EXPECT_EQ(configs[nb][0], configs[i][0])
          << "neighbour crossed the informative cluster split";
    }
  }
}

TEST(PoolGraph, DuplicatePointsAreMutualNeighbors) {
  const ConfigSpace space({Parameter::range("x", 0, 9)});
  std::vector<Configuration> configs{{0}, {0}, {9}};
  const PoolGraph graph(space, configs, /*k_neighbors=*/1);
  EXPECT_EQ(graph.neighbors(0)[0], 1u);
  EXPECT_EQ(graph.neighbors(1)[0], 0u);
}

TEST(PoolGraph, KClampedToPoolSize) {
  const ConfigSpace space({Parameter::range("x", 0, 9)});
  std::vector<Configuration> configs{{0}, {5}, {9}};
  const PoolGraph graph(space, configs, /*k_neighbors=*/10);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(graph.neighbors(i).size(), 2u);  // everyone else
  }
}

TEST(PoolGraph, NeighborsMatchSerialReferenceAtAnyThreadCount) {
  // The graph builds blocks of rows on the shared pool; every row must
  // get exactly the neighbour list of a serial per-row loop, ties
  // included (the small ranges below produce many), at 1 and 4 workers.
  const ConfigSpace space({Parameter::range("a", 0, 3),
                           Parameter::range("b", 2, 1085, 7),
                           Parameter::range("c", 1, 5),
                           Parameter::range("d", 0, 40, 4)});
  Rng rng(11);
  const std::vector<Configuration> configs = space.sample_valid(rng, 300);
  constexpr std::size_t kNeighbors = 6;
  set_global_thread_pool_threads(4);
  const PoolGraph pooled(space, configs, kNeighbors);
  set_global_thread_pool_threads(1);
  const PoolGraph serial(space, configs, kNeighbors);
  set_global_thread_pool_threads(0);

  const std::size_t n = configs.size();
  const std::size_t d = space.dimension();
  std::vector<double> feat(n * d);
  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = space.features(configs[i]);
    for (std::size_t j = 0; j < d; ++j) {
      feat[i * d + j] = f[j];
      lo[j] = std::min(lo[j], f[j]);
      hi[j] = std::max(hi[j], f[j]);
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const double span = hi[j] - lo[j];
    const double scale = span > 0.0 ? 1.0 / span : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      feat[i * d + j] = (feat[i * d + j] - lo[j]) * scale;
    }
  }
  std::vector<std::pair<double, std::size_t>> dist(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t m = 0; m < n; ++m) {
      double acc = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double delta = feat[i * d + j] - feat[m * d + j];
        acc += delta * delta;
      }
      dist[m] = {acc, m};
    }
    dist[i].first = std::numeric_limits<double>::infinity();
    std::partial_sort(dist.begin(),
                      dist.begin() + static_cast<std::ptrdiff_t>(kNeighbors),
                      dist.end());
    std::vector<std::size_t> expect;
    for (std::size_t m = 0; m < kNeighbors; ++m) {
      expect.push_back(dist[m].second);
    }
    EXPECT_EQ(pooled.neighbors(i), expect) << "config " << i;
    EXPECT_EQ(serial.neighbors(i), expect) << "config " << i;
  }
}

TEST(GeistParams, Validation) {
  GeistParams p;
  p.alpha = 1.5;
  EXPECT_THROW(Geist{p}, ceal::PreconditionError);
  p = GeistParams{};
  p.top_quantile = 0.0;
  EXPECT_THROW(Geist{p}, ceal::PreconditionError);
  p = GeistParams{};
  p.iterations = 0;
  EXPECT_THROW(Geist{p}, ceal::PreconditionError);
}

}  // namespace
}  // namespace ceal::tuner
