// Cartesian integer configuration grids with validity constraints.
//
// A ConfigSpace is the cross product of its Parameters, optionally
// filtered by a constraint predicate (e.g. "ceil(procs/ppn) <= 31 nodes").
// Configurations are stored as the concrete parameter *values* (not
// ordinals) so they read naturally in logs and match the paper's tables.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "config/parameter.h"
#include "core/rng.h"

namespace ceal::config {

/// One point of a ConfigSpace: the value of each parameter, by position.
using Configuration = std::vector<int>;

class ConfigSpace {
 public:
  /// Returns true when a configuration is admissible.
  using Constraint = std::function<bool(const Configuration&)>;

  /// `params` must be non-empty. `constraint` may be empty (all valid).
  explicit ConfigSpace(std::vector<Parameter> params,
                       Constraint constraint = {});

  std::size_t dimension() const { return params_.size(); }
  const Parameter& parameter(std::size_t i) const;
  const std::vector<Parameter>& parameters() const { return params_; }

  /// Position of the parameter with this name; throws if absent.
  std::size_t parameter_index(std::string_view name) const;

  /// Value of the named parameter inside `c`.
  int value_of(const Configuration& c, std::string_view name) const;

  /// Product of parameter cardinalities (ignores the constraint).
  std::uint64_t raw_size() const { return raw_size_; }

  /// Configuration at a mixed-radix flat index in [0, raw_size()).
  /// Ignores the constraint.
  Configuration at(std::uint64_t flat_index) const;

  /// Flat index of a configuration (inverse of at()).
  std::uint64_t flat_index(const Configuration& c) const;

  /// True iff every value is in its parameter's domain and the constraint
  /// (if any) accepts the configuration.
  bool is_valid(const Configuration& c) const;

  /// The constraint alone (true without one): is_valid() for a
  /// configuration whose values are already known to lie in their
  /// domains, e.g. one decoded by at() or checked by a space whose
  /// parameters copy these.
  bool satisfies_constraint(const Configuration& c) const {
    return !constraint_ || constraint_(c);
  }

  /// Uniformly random *valid* configuration via rejection sampling.
  /// Throws InvariantError after `max_attempts` consecutive rejections
  /// (which indicates a near-empty constraint).
  Configuration random_valid(ceal::Rng& rng,
                             std::size_t max_attempts = 100000) const;

  /// `n` independent uniformly random valid configurations (duplicates
  /// possible, as in the paper's random pools).
  std::vector<Configuration> sample_valid(ceal::Rng& rng, std::size_t n) const;

  /// Exact number of valid configurations by full enumeration.
  /// Requires raw_size() <= limit (guards accidental huge scans).
  std::uint64_t count_valid_exact(std::uint64_t limit = 5'000'000) const;

  /// Monte-Carlo estimate of the valid fraction from `samples` draws.
  double estimate_valid_fraction(ceal::Rng& rng, std::size_t samples) const;

  /// Valid configurations reachable from `c` by moving exactly one
  /// parameter one ordinal step up or down (the GEIST parameter graph).
  std::vector<Configuration> neighbors(const Configuration& c) const;

  /// Encodes a configuration as ML features (plain value casts).
  std::vector<double> features(const Configuration& c) const;

 private:
  std::vector<Parameter> params_;
  Constraint constraint_;
  std::uint64_t raw_size_;
};

/// Renders "(v0, v1, ...)" for logs and tables.
std::string to_string(const Configuration& c);

}  // namespace ceal::config
