#include "ml/metrics.h"

#include <algorithm>
#include <vector>

#include "core/error.h"
#include "core/stats.h"

namespace ceal::ml {

double recall_score_percent(std::size_t n, std::span<const double> scores,
                            std::span<const double> measured) {
  CEAL_EXPECT(n >= 1);
  CEAL_EXPECT(scores.size() == measured.size());
  CEAL_EXPECT(n <= scores.size());

  auto by_model = ceal::smallest_k(scores, n);
  auto by_truth = ceal::smallest_k(measured, n);
  std::sort(by_model.begin(), by_model.end());
  std::sort(by_truth.begin(), by_truth.end());

  std::vector<std::size_t> common;
  std::set_intersection(by_model.begin(), by_model.end(), by_truth.begin(),
                        by_truth.end(), std::back_inserter(common));
  return 100.0 * static_cast<double>(common.size()) / static_cast<double>(n);
}

double recall_sum_top123(std::span<const double> scores,
                         std::span<const double> measured) {
  CEAL_EXPECT(scores.size() == measured.size());
  CEAL_EXPECT(!scores.empty());
  double sum = 0.0;
  for (std::size_t n = 1; n <= 3 && n <= scores.size(); ++n) {
    sum += recall_score_percent(n, scores, measured);
  }
  return sum;
}

}  // namespace ceal::ml
