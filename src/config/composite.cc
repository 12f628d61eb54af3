#include "config/composite.h"

#include "core/error.h"

namespace ceal::config {

CompositeSpace::CompositeSpace(std::vector<Component> components,
                               JointConstraint workflow_constraint) {
  CEAL_EXPECT_MSG(!components.empty(), "composite space needs components");

  std::vector<Parameter> joint_params;
  std::vector<Stored> stored;
  std::size_t offset = 0;
  for (auto& comp : components) {
    const std::size_t dim = comp.space.dimension();
    for (std::size_t i = 0; i < dim; ++i) {
      const Parameter& p = comp.space.parameter(i);
      joint_params.emplace_back(comp.name + "." + p.name(), p.values());
    }
    stored.push_back(Stored{std::move(comp.name), std::move(comp.space),
                            offset, offset + dim});
    offset += dim;
  }

  components_ =
      std::make_shared<const std::vector<Stored>>(std::move(stored));

  // The joint constraint checks each component slice against its own
  // constraint, then the workflow-level predicate. ConfigSpace calls it
  // only on values already in the joint domains (decoded by at(), or
  // checked by is_valid()), whose value lists copy the component lists,
  // so the component domains need no second check. It shares ownership
  // of the component table so moving CompositeSpace cannot dangle it.
  auto constraint = [comps = components_, wf = std::move(workflow_constraint)](
                        std::span<const int> c) {
    for (const auto& comp : *comps) {
      const auto part = c.subspan(comp.begin, comp.end - comp.begin);
      if (!comp.space.satisfies_constraint(part)) return false;
    }
    return !wf || wf(c);
  };

  joint_ = std::make_shared<const ConfigSpace>(std::move(joint_params),
                                               std::move(constraint));
}

const std::string& CompositeSpace::component_name(std::size_t j) const {
  CEAL_EXPECT(j < components_->size());
  return (*components_)[j].name;
}

const ConfigSpace& CompositeSpace::component_space(std::size_t j) const {
  CEAL_EXPECT(j < components_->size());
  return (*components_)[j].space;
}

std::pair<std::size_t, std::size_t> CompositeSpace::slice_range(
    std::size_t j) const {
  CEAL_EXPECT(j < components_->size());
  return {(*components_)[j].begin, (*components_)[j].end};
}

Configuration CompositeSpace::slice(const Configuration& joint_config,
                                    std::size_t j) const {
  CEAL_EXPECT(j < components_->size());
  CEAL_EXPECT(joint_config.size() == joint_->dimension());
  const auto& comp = (*components_)[j];
  return Configuration(
      joint_config.begin() + static_cast<std::ptrdiff_t>(comp.begin),
      joint_config.begin() + static_cast<std::ptrdiff_t>(comp.end));
}

Configuration CompositeSpace::join(
    const std::vector<Configuration>& parts) const {
  CEAL_EXPECT(parts.size() == components_->size());
  Configuration joint;
  joint.reserve(joint_->dimension());
  for (std::size_t j = 0; j < parts.size(); ++j) {
    CEAL_EXPECT(parts[j].size() ==
                (*components_)[j].end - (*components_)[j].begin);
    joint.insert(joint.end(), parts[j].begin(), parts[j].end());
  }
  return joint;
}

}  // namespace ceal::config
