#include "ml/metrics.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.h"
#include "core/stats.h"

namespace ceal::ml {
namespace {

// The recall's top-n is ceal::smallest_k; these pin the two properties
// the recall relies on.
TEST(Metrics, TopIndicesPicksSmallest) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0};
  const auto top = smallest_k(v, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
}

TEST(Metrics, TopIndicesTieBreaksByIndex) {
  const std::vector<double> v{1.0, 1.0, 1.0};
  const auto top = smallest_k(v, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(Metrics, PerfectModelHasFullRecall) {
  const std::vector<double> measured{4.0, 1.0, 3.0, 2.0};
  for (std::size_t n = 1; n <= 4; ++n) {
    EXPECT_DOUBLE_EQ(recall_score_percent(n, measured, measured), 100.0);
  }
}

TEST(Metrics, ReversedModelHasZeroTopRecall) {
  const std::vector<double> measured{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> scores{4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(recall_score_percent(1, scores, measured), 0.0);
  EXPECT_DOUBLE_EQ(recall_score_percent(2, scores, measured), 0.0);
  // Full-set recall is trivially 100%.
  EXPECT_DOUBLE_EQ(recall_score_percent(4, scores, measured), 100.0);
}

TEST(Metrics, PartialOverlapGivesFraction) {
  // Model top-2 = {0, 1}; truth top-2 = {0, 3} -> overlap 1/2.
  const std::vector<double> scores{0.0, 1.0, 5.0, 6.0};
  const std::vector<double> measured{0.0, 9.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(recall_score_percent(2, scores, measured), 50.0);
}

TEST(Metrics, MonotoneTransformPreservesRecall) {
  // Recall depends only on ranking, so any monotone rescale is invariant.
  const std::vector<double> measured{3.0, 1.0, 2.0, 5.0, 4.0};
  std::vector<double> scaled;
  for (const double v : measured) scaled.push_back(v * v + 7.0);
  for (std::size_t n = 1; n <= 5; ++n) {
    EXPECT_DOUBLE_EQ(recall_score_percent(n, scaled, measured), 100.0);
  }
}

TEST(Metrics, RecallRejectsBadArguments) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW(recall_score_percent(1, a, b), ceal::PreconditionError);
  EXPECT_THROW(recall_score_percent(0, a, a), ceal::PreconditionError);
  EXPECT_THROW(recall_score_percent(3, a, a), ceal::PreconditionError);
}

TEST(Metrics, RecallSumTop123PerfectModel) {
  const std::vector<double> measured{5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(recall_sum_top123(measured, measured), 300.0);
}

TEST(Metrics, RecallSumHandlesTinyBatches) {
  const std::vector<double> one{1.0};
  EXPECT_DOUBLE_EQ(recall_sum_top123(one, one), 100.0);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_DOUBLE_EQ(recall_sum_top123(two, two), 200.0);
}

TEST(Metrics, RecallSumDistinguishesModels) {
  const std::vector<double> measured{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> good{1.1, 2.1, 3.1, 4.1, 5.1, 6.1};
  const std::vector<double> bad{6.0, 5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_GT(recall_sum_top123(good, measured),
            recall_sum_top123(bad, measured));
}

}  // namespace
}  // namespace ceal::ml
