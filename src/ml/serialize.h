// Plain-text persistence for trained models.
//
// A tuned surrogate is the deliverable of an expensive auto-tuning
// session, so it must outlive the process. The format is a line-oriented
// text table (stable, diffable, locale-independent via std::to_chars-free
// full-precision hex doubles):
//
//   gbt v1 <n_features> <n_trees> <learning_rate(hex)> <base_score(hex)>
//   tree <n_nodes>
//   node <feature> <threshold(hex)> <left> <right> <weight(hex)>
//   ...
//
// v2 adds one line directly after the header, emitted only for models
// trained with TreeMethod::kQuantized (exact models, the default, stay
// byte-identical v1):
//
//   params <exact|quantized> <max_bins> 1
//
// The last field is a retired flag that once switched the compiled
// predictor on: written as 1, accepted as 0 or 1, and ignored. The
// loader accepts both versions, reads
// the retired method name `hist` as quantized (same quantile cuts;
// prediction only uses the stored trees), rejects max_bins outside
// [2, 256], and compiles the flat predictor of every loaded model.
//
// save_gbt_file replaces the target atomically (core/atomic_file.h): an
// interrupted save leaves the previous file intact.
//
// Only GradientBoostedTrees is serialisable — it is the model every
// tuner ships. Trees expose their node tables through
// RegressionTree::export_nodes()/import_nodes().
#pragma once

#include <iosfwd>
#include <string>

#include "ml/gbt.h"

namespace ceal::ml {

/// Writes `model` (which must be fitted) to `os`. Throws on I/O failure.
void save_gbt(const GradientBoostedTrees& model, std::ostream& os,
              std::size_t n_features);

/// Reads a model previously written by save_gbt. Throws
/// ceal::PreconditionError on malformed input. Returns the model and the
/// feature count it was trained for.
struct LoadedGbt {
  GradientBoostedTrees model;
  std::size_t n_features = 0;
};
LoadedGbt load_gbt(std::istream& is);

/// Convenience file wrappers.
void save_gbt_file(const GradientBoostedTrees& model,
                   const std::string& path, std::size_t n_features);
LoadedGbt load_gbt_file(const std::string& path);

}  // namespace ceal::ml
