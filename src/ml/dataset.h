// Row-major tabular dataset: feature rows plus one regression target each.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ceal::ml {

class Dataset {
 public:
  /// Empty dataset for rows of `n_features` features. n_features > 0.
  explicit Dataset(std::size_t n_features);

  std::size_t n_features() const { return n_features_; }
  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }

  /// Appends one example. `features.size()` must equal n_features().
  void add(std::span<const double> features, double target);

  /// Pre-allocates storage for `n_rows` total rows so a known-size
  /// add() loop performs one allocation instead of log2(n) regrowths.
  void reserve(std::size_t n_rows);

  /// Feature row i as a span (valid until the next mutation).
  std::span<const double> row(std::size_t i) const;

  double target(std::size_t i) const;
  std::span<const double> targets() const { return targets_; }

  /// Feature j of row i.
  double feature(std::size_t i, std::size_t j) const;

  /// All feature rows, row-major: feature j of row i is at
  /// i * n_features() + j (valid until the next mutation).
  std::span<const double> values() const { return x_; }

  /// Appends all examples from `other` (same width).
  void append(const Dataset& other);

  /// New dataset with the rows at `indices` (duplicates allowed).
  Dataset subset(std::span<const std::size_t> indices) const;

 private:
  std::size_t n_features_;
  std::vector<double> x_;        // row-major, size() * n_features_
  std::vector<double> targets_;  // one per row
};

/// Row-major feature matrix without targets: the cached featurization of
/// a candidate pool, scored many times per tuning run. Rows can be
/// written concurrently (one writer per row) once the shape is fixed.
class FeatureMatrix {
 public:
  /// Matrix of `n_rows` zero-initialised rows of `n_features` each.
  /// n_features > 0.
  FeatureMatrix(std::size_t n_features, std::size_t n_rows);

  std::size_t n_features() const { return n_features_; }
  std::size_t size() const { return n_rows_; }
  bool empty() const { return n_rows_ == 0; }

  std::span<const double> row(std::size_t i) const;

  /// All rows, row-major (size() * n_features() values).
  std::span<const double> values() const { return x_; }

  /// Writable row i, for filling the matrix in place (possibly from
  /// several threads, each owning disjoint rows).
  std::span<double> mutable_row(std::size_t i);

  /// Overwrites row i. `features.size()` must equal n_features().
  void set_row(std::size_t i, std::span<const double> features);

 private:
  std::size_t n_features_;
  std::size_t n_rows_;
  std::vector<double> x_;  // row-major, n_rows_ * n_features_
};

}  // namespace ceal::ml
