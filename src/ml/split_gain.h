// The split math of both tree trainers (ml/tree.cc, ml/quantized.cc):
// second-order leaf weights, split scores and the gain tie epsilon. One
// definition keeps the two trainers' tie handling and leaf values equal.
#pragma once

namespace ceal::ml::split {

/// Newton leaf weight -G / (H + lambda).
inline double leaf_weight(double g_sum, double h_sum, double lambda) {
  return -g_sum / (h_sum + lambda);
}

/// Structure score G^2 / (H + lambda) of one side of a split.
inline double score(double g_sum, double h_sum, double lambda) {
  return g_sum * g_sum / (h_sum + lambda);
}

/// Gains within this epsilon of the incumbent are ties; the incumbent
/// (lower feature index, then smaller threshold or earlier bin) wins.
inline constexpr double kGainEps = 1e-12;

}  // namespace ceal::ml::split
