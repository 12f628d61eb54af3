#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.h"

namespace ceal {

double mean(std::span<const double> xs) {
  CEAL_EXPECT(!xs.empty());
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  CEAL_EXPECT(xs.size() >= 2);
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  CEAL_EXPECT(!xs.empty());
  CEAL_EXPECT(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double histogram_quantile(std::span<const std::uint64_t> counts,
                          std::span<const double> upper_bounds, double q,
                          double observed_min, double observed_max) {
  CEAL_EXPECT(q >= 0.0 && q <= 1.0);
  CEAL_EXPECT(!counts.empty());
  CEAL_EXPECT(counts.size() == upper_bounds.size() ||
              counts.size() == upper_bounds.size() + 1);
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  CEAL_EXPECT_MSG(total > 0, "histogram_quantile of an empty histogram");
  // Same rank definition as quantile(): the q-quantile sits at sorted
  // position q*(n-1). Walk buckets to the one containing that rank and
  // interpolate linearly across it, treating the bucket's mass as spread
  // uniformly over [lower_edge, upper_edge].
  const double pos = q * static_cast<double>(total - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double first = static_cast<double>(before);
    const double last = static_cast<double>(before + counts[i] - 1);
    if (pos <= last) {
      const double lower =
          i == 0 ? observed_min : std::max(observed_min, upper_bounds[i - 1]);
      const double upper = i < upper_bounds.size()
                               ? std::min(observed_max, upper_bounds[i])
                               : observed_max;
      if (upper <= lower || counts[i] == 1) {
        return std::clamp(upper, observed_min, observed_max);
      }
      const double frac = (pos - first) / (last - first);
      return std::clamp(lower + frac * (upper - lower), observed_min,
                        observed_max);
    }
    before += counts[i];
  }
  return observed_max;  // unreachable: total > 0 places pos in a bucket
}

double absolute_percentage_error(double y, double yhat) {
  CEAL_EXPECT(y != 0.0);
  return std::abs((y - yhat) / y);
}

double mdape_percent(std::span<const double> actual,
                     std::span<const double> predicted) {
  CEAL_EXPECT(!actual.empty());
  CEAL_EXPECT(actual.size() == predicted.size());
  std::vector<double> apes(actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i)
    apes[i] = absolute_percentage_error(actual[i], predicted[i]);
  return median(apes) * 100.0;
}

double rmse(std::span<const double> actual,
            std::span<const double> predicted) {
  CEAL_EXPECT(!actual.empty());
  CEAL_EXPECT(actual.size() == predicted.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = actual[i] - predicted[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(actual.size()));
}

std::vector<std::size_t> argsort(std::span<const double> xs) {
  std::vector<std::size_t> idx(xs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  return idx;
}

TopKSelector::TopKSelector(std::size_t k) : k_(k) { heap_.reserve(k); }

void TopKSelector::push(double score, std::size_t index) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.emplace_back(score, index);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  // (score, index) lexicographic: strictly better than the worst keeper
  // replaces it; an exact tie keeps the incumbent, matching the stable
  // argsort's preference for the index seen first.
  if (std::pair(score, index) < heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = {score, index};
    std::push_heap(heap_.begin(), heap_.end());
  }
}

std::vector<std::size_t> TopKSelector::take() {
  std::sort(heap_.begin(), heap_.end());
  std::vector<std::size_t> out;
  out.reserve(heap_.size());
  for (const auto& [score, index] : heap_) out.push_back(index);
  heap_.clear();
  return out;
}

std::vector<std::size_t> smallest_k(std::span<const double> scores,
                                    std::size_t k) {
  TopKSelector selector(k);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    selector.push(scores[i], i);
  }
  return selector.take();
}

std::vector<std::size_t> ranks(std::span<const double> xs) {
  const auto order = argsort(xs);
  std::vector<std::size_t> rank(xs.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos;
  return rank;
}

double spearman(std::span<const double> a, std::span<const double> b) {
  CEAL_EXPECT(a.size() == b.size());
  CEAL_EXPECT(a.size() >= 2);
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  std::vector<double> da(ra.size()), db(rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    da[i] = static_cast<double>(ra[i]);
    db[i] = static_cast<double>(rb[i]);
  }
  return pearson(da, db);
}

double pearson(std::span<const double> a, std::span<const double> b) {
  CEAL_EXPECT(a.size() == b.size());
  CEAL_EXPECT(a.size() >= 2);
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  CEAL_EXPECT_MSG(va > 0.0 && vb > 0.0, "constant input has no correlation");
  return num / std::sqrt(va * vb);
}

}  // namespace ceal
