// Test helpers: a dataset's feature rows as the batch predictor's input,
// and a tie-heavy training set shaped like component configurations.
#pragma once

#include <vector>

#include "core/rng.h"
#include "ml/dataset.h"

namespace ceal::ml {

/// The feature rows of `data` (targets dropped) as a FeatureMatrix, for
/// predict_matrix.
inline FeatureMatrix rows_of(const Dataset& data) {
  FeatureMatrix rows(data.n_features(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) rows.set_row(i, data.row(i));
  return rows;
}

/// Integer features with at most 8 levels each, like component
/// configurations: every feature is full of ties. `cores` duplicates
/// `procs` up to a monotone map (a config carrying both a count and a
/// derived total), so every node has two features with the same
/// partitions whose gains differ only in the g_left summation order —
/// the order of tied rows after the sort. Any change to that tie order
/// flips some of those near-tied splits and shows up in the fingerprint.
inline Dataset tie_heavy_data(std::size_t n, ceal::Rng& rng) {
  Dataset d(5);
  for (std::size_t i = 0; i < n; ++i) {
    const auto procs = static_cast<double>(rng.uniform_int(1, 8));
    const auto ppn = static_cast<double>(rng.uniform_int(1, 4));
    const auto threads = static_cast<double>(rng.uniform_int(1, 2));
    const auto interval = static_cast<double>(rng.uniform_int(0, 7));
    const double cores = 4.0 * procs;
    d.add(std::vector<double>{procs, ppn, threads, interval, cores},
          40.0 / (procs * threads) + 3.0 * ppn + 0.5 * interval +
              rng.normal(0.0, 0.2));
  }
  return d;
}

}  // namespace ceal::ml
