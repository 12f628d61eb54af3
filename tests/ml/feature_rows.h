// Test helper: a dataset's feature rows as the batch predictor's input.
#pragma once

#include "ml/dataset.h"

namespace ceal::ml {

/// The feature rows of `data` (targets dropped) as a FeatureMatrix, for
/// predict_matrix.
inline FeatureMatrix rows_of(const Dataset& data) {
  FeatureMatrix rows(data.n_features(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) rows.set_row(i, data.row(i));
  return rows;
}

}  // namespace ceal::ml
