// Small statistics toolkit used by the evaluation harness and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ceal {

/// Arithmetic mean. Requires a non-empty range.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator). Requires size >= 2.
double variance(std::span<const double> xs);

/// Sample standard deviation. Requires size >= 2.
double stddev(std::span<const double> xs);

/// Median (average of middle two for even sizes). Requires non-empty.
double median(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]. Requires non-empty.
double quantile(std::span<const double> xs, double q);

/// Quantile estimated from a bucketed histogram, using the same rank
/// definition as quantile(): pos = q * (count - 1), linearly
/// interpolated within the containing bucket. `upper_bounds[i]` is the
/// inclusive upper edge of bucket i (ascending); `counts` may carry one
/// extra trailing overflow bucket. `observed_min`/`observed_max` clamp
/// the estimate so it never leaves the observed range (and bound the
/// otherwise edge-less first/overflow buckets). Requires a non-empty
/// histogram (total count >= 1) and q in [0,1].
double histogram_quantile(std::span<const std::uint64_t> counts,
                          std::span<const double> upper_bounds, double q,
                          double observed_min, double observed_max);

/// Absolute percentage error |y - yhat| / |y| of one prediction.
/// Requires y != 0.
double absolute_percentage_error(double y, double yhat);

/// Median absolute percentage error over paired actual/predicted values,
/// in percent (paper §7.4.2). Requires equal non-empty sizes, no zero actuals.
double mdape_percent(std::span<const double> actual,
                     std::span<const double> predicted);

/// Root mean squared error. Requires equal non-empty sizes.
double rmse(std::span<const double> actual, std::span<const double> predicted);

/// Indices that would sort `xs` ascending (stable).
std::vector<std::size_t> argsort(std::span<const double> xs);

/// Bounded top-k selection over streamed (score, index) pairs: keeps the
/// k smallest scores seen so far in a max-heap of k entries, so ranking
/// N candidates costs O(N log k) time and O(k) memory instead of a full
/// argsort permutation. Ties break towards the lower index, which makes
/// take() exactly the first k entries of argsort (stable ascending)
/// restricted to the pushed indices.
class TopKSelector {
 public:
  explicit TopKSelector(std::size_t k);

  /// Considers one candidate. Indices may arrive in any order but each
  /// at most once; feeding them ascending reproduces argsort exactly.
  void push(double score, std::size_t index);

  std::size_t size() const { return heap_.size(); }

  /// The kept indices, sorted ascending by (score, index). Leaves the
  /// selector empty and reusable.
  std::vector<std::size_t> take();

 private:
  std::size_t k_;
  /// Max-heap on (score, index): front() is the current worst keeper.
  std::vector<std::pair<double, std::size_t>> heap_;
};

/// Indices of the `k` smallest scores (all of them when k exceeds the
/// count), ties towards the lower index: the first k entries of
/// argsort(scores) without the O(n log n) sort or the n-entry
/// permutation.
std::vector<std::size_t> smallest_k(std::span<const double> scores,
                                    std::size_t k);

/// Ranks (0-based, ties broken by index) of each element when sorted
/// ascending: rank[i] = position of xs[i] in the sorted order.
std::vector<std::size_t> ranks(std::span<const double> xs);

/// Spearman rank correlation between two equally sized samples (>= 2).
double spearman(std::span<const double> a, std::span<const double> b);

/// Pearson correlation between two equally sized samples (>= 2).
double pearson(std::span<const double> a, std::span<const double> b);

}  // namespace ceal
