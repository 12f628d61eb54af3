// Metrics specific to auto-tuner evaluation.
//
// The central one is the recall score (paper Eqn. 3):
//   S_r(n, c, M, D_c) = |top(n, M(c)) ∩ top(n, D_c)| / n × 100%
// where both the model scores and the measured performance are
// lower-is-better (times).
#pragma once

#include <cstddef>
#include <span>

namespace ceal::ml {

/// Recall score in percent for the top `n` (Eqn. 3). `scores` are the
/// model's predicted values and `measured` the observed performance for
/// the same configurations, both lower-is-better.
/// Requires 1 <= n <= scores.size() == measured.size().
double recall_score_percent(std::size_t n, std::span<const double> scores,
                            std::span<const double> measured);

/// Sum of recall scores for n = 1, 2, 3 — the model-switch statistic used
/// in CEAL's detection step (Alg. 1 lines 18–19). When fewer than 3
/// entries exist, the sum stops at the available count.
double recall_sum_top123(std::span<const double> scores,
                         std::span<const double> measured);

}  // namespace ceal::ml
