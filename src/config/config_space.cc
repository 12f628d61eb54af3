#include "config/config_space.h"

#include <limits>
#include <sstream>

#include "core/error.h"

namespace ceal::config {

ConfigSpace::ConfigSpace(std::vector<Parameter> params, Constraint constraint)
    : params_(std::move(params)), constraint_(std::move(constraint)) {
  CEAL_EXPECT_MSG(!params_.empty(), "config space needs parameters");
  raw_size_ = 1;
  for (const auto& p : params_) {
    CEAL_EXPECT_MSG(
        raw_size_ <= std::numeric_limits<std::uint64_t>::max() /
                         p.cardinality(),
        "config space size overflows uint64");
    raw_size_ *= p.cardinality();
  }
}

const Parameter& ConfigSpace::parameter(std::size_t i) const {
  CEAL_EXPECT(i < params_.size());
  return params_[i];
}

std::size_t ConfigSpace::parameter_index(std::string_view name) const {
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (params_[i].name() == name) return i;
  throw PreconditionError("no parameter named " + std::string(name));
}

int ConfigSpace::value_of(const Configuration& c,
                          std::string_view name) const {
  CEAL_EXPECT(c.size() == params_.size());
  return c[parameter_index(name)];
}

Configuration ConfigSpace::at(std::uint64_t flat_index) const {
  CEAL_EXPECT(flat_index < raw_size_);
  Configuration c(params_.size());
  // Mixed-radix decode, last parameter fastest.
  for (std::size_t i = params_.size(); i-- > 0;) {
    const std::uint64_t card = params_[i].cardinality();
    c[i] = params_[i].value(static_cast<std::size_t>(flat_index % card));
    flat_index /= card;
  }
  return c;
}

std::uint64_t ConfigSpace::flat_index(const Configuration& c) const {
  CEAL_EXPECT(c.size() == params_.size());
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    idx = idx * params_[i].cardinality() + params_[i].index_of(c[i]);
  }
  return idx;
}

bool ConfigSpace::is_valid(const Configuration& c) const {
  if (c.size() != params_.size()) return false;
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (!params_[i].contains(c[i])) return false;
  return satisfies_constraint(c);
}

Configuration ConfigSpace::random_valid(ceal::Rng& rng,
                                        std::size_t max_attempts) const {
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    Configuration c = at(rng.uniform_u64(raw_size_));
    if (satisfies_constraint(c)) return c;
  }
  throw InvariantError(
      "random_valid: constraint rejected every draw; space nearly empty?");
}

std::vector<Configuration> ConfigSpace::sample_valid(ceal::Rng& rng,
                                                     std::size_t n) const {
  std::vector<Configuration> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(random_valid(rng));
  return out;
}

std::uint64_t ConfigSpace::count_valid_exact(std::uint64_t limit) const {
  CEAL_EXPECT_MSG(raw_size_ <= limit,
                  "space too large for exact counting; use "
                  "estimate_valid_fraction");
  if (!constraint_) return raw_size_;
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < raw_size_; ++i)
    if (constraint_(at(i))) ++count;
  return count;
}

double ConfigSpace::estimate_valid_fraction(ceal::Rng& rng,
                                            std::size_t samples) const {
  CEAL_EXPECT(samples > 0);
  if (!constraint_) return 1.0;
  std::size_t valid = 0;
  for (std::size_t i = 0; i < samples; ++i)
    if (constraint_(at(rng.uniform_u64(raw_size_)))) ++valid;
  return static_cast<double>(valid) / static_cast<double>(samples);
}

std::vector<Configuration> ConfigSpace::neighbors(
    const Configuration& c) const {
  CEAL_EXPECT(is_valid(c));
  std::vector<Configuration> out;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const std::size_t idx = params_[i].index_of(c[i]);
    for (const int step : {-1, +1}) {
      if (step < 0 && idx == 0) continue;
      const std::size_t j = idx + static_cast<std::size_t>(step);
      if (j >= params_[i].cardinality()) continue;
      Configuration n = c;
      n[i] = params_[i].value(j);
      if (is_valid(n)) out.push_back(std::move(n));
    }
  }
  return out;
}

std::vector<double> ConfigSpace::features(const Configuration& c) const {
  CEAL_EXPECT(c.size() == params_.size());
  std::vector<double> f(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) f[i] = static_cast<double>(c[i]);
  return f;
}

std::string to_string(const Configuration& c) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) os << ", ";
    os << c[i];
  }
  os << ')';
  return os.str();
}

}  // namespace ceal::config
