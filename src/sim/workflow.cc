#include "sim/workflow.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace ceal::sim {

namespace {

config::CompositeSpace build_space(const std::vector<ComponentApp>& apps,
                                   const MachineSpec& machine) {
  std::vector<config::CompositeSpace::Component> comps;
  comps.reserve(apps.size());
  for (const auto& app : apps) {
    comps.push_back({app.name(), app.space()});
  }

  // The workflow-level constraint needs each app's node demand; capture
  // lightweight (name, space-dim) agnostic closures by copying the apps'
  // node arithmetic via slice offsets computed below. We rebuild offsets
  // here because CompositeSpace computes them the same way (in order).
  std::vector<std::size_t> offsets(apps.size() + 1, 0);
  for (std::size_t j = 0; j < apps.size(); ++j) {
    offsets[j + 1] = offsets[j] + apps[j].space().dimension();
  }

  // Copy the apps into the constraint closure: they are cheap value types
  // (a space plus scalars) and this keeps the space self-contained.
  auto apps_copy = std::make_shared<const std::vector<ComponentApp>>(apps);
  auto constraint = [apps_copy, offsets,
                     max_nodes = machine.allocation_nodes](
                        const config::Configuration& joint) {
    int total = 0;
    for (std::size_t j = 0; j < apps_copy->size(); ++j) {
      const config::Configuration part(
          joint.begin() + static_cast<std::ptrdiff_t>(offsets[j]),
          joint.begin() + static_cast<std::ptrdiff_t>(offsets[j + 1]));
      total += (*apps_copy)[j].nodes(part);
      if (total > max_nodes) return false;
    }
    return true;
  };

  return config::CompositeSpace(std::move(comps), std::move(constraint));
}

}  // namespace

InSituWorkflow::InSituWorkflow(std::string name, MachineSpec machine,
                               std::vector<ComponentApp> apps,
                               std::vector<Edge> edges,
                               CouplingParams coupling)
    : name_(std::move(name)),
      machine_(machine),
      apps_(std::move(apps)),
      edges_(std::move(edges)),
      coupling_(coupling),
      space_(build_space(apps_, machine_)) {
  CEAL_EXPECT(!apps_.empty());
  CEAL_EXPECT(coupling_.pipeline_steps >= 1);
  CEAL_EXPECT(coupling_.transfer_overlap >= 0.0 &&
              coupling_.transfer_overlap <= 1.0);
  CEAL_EXPECT(coupling_.net_efficiency > 0.0 &&
              coupling_.net_efficiency <= 1.0);
  CEAL_EXPECT(coupling_.noise_sigma >= 0.0);
  for (const Edge& e : edges_) {
    CEAL_EXPECT(e.producer < apps_.size());
    CEAL_EXPECT(e.consumer < apps_.size());
    CEAL_EXPECT(e.producer != e.consumer);
  }
}

const ComponentApp& InSituWorkflow::app(std::size_t j) const {
  CEAL_EXPECT(j < apps_.size());
  return apps_[j];
}

int InSituWorkflow::total_nodes(const config::Configuration& joint) const {
  int total = 0;
  for (std::size_t j = 0; j < apps_.size(); ++j) {
    total += apps_[j].nodes(space_.slice(joint, j));
  }
  return total;
}

CostBreakdown InSituWorkflow::explain(
    const config::Configuration& joint) const {
  CEAL_EXPECT_MSG(joint_space().is_valid(joint),
                  "invalid workflow configuration");

  const std::size_t n = apps_.size();
  CostBreakdown bd;
  bd.components.resize(n);
  std::vector<config::Configuration> part(n);
  for (std::size_t j = 0; j < n; ++j) {
    part[j] = space_.slice(joint, j);
    ComponentCost& cost = bd.components[j];
    cost.name = apps_[j].name();
    cost.procs = apps_[j].procs(part[j]);
    cost.nodes = apps_[j].nodes(part[j]);
    bd.nodes += cost.nodes;
  }

  // Upstream volume arriving at each component per step.
  std::vector<double> edge_gb(edges_.size(), 0.0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    edge_gb[e] = apps_[edges_[e].producer].output_gb_per_step(
        part[edges_[e].producer]);
    bd.components[edges_[e].consumer].input_gb += edge_gb[e];
  }

  // Per-component step period: compute + staging + unhidden transfer.
  for (std::size_t j = 0; j < n; ++j) {
    ComponentCost& cost = bd.components[j];
    cost.step_compute_s = apps_[j].step_compute_s(
        part[j], machine_, cost.input_gb);
    cost.staging_s = apps_[j].staging_overhead_s(part[j]);
  }
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    // Stream bandwidth is limited by the slimmer endpoint.
    const int lanes = std::min(bd.components[edges_[e].producer].nodes,
                               bd.components[edges_[e].consumer].nodes);
    const double bw = static_cast<double>(lanes) * machine_.node_net_bw_gbs *
                      coupling_.net_efficiency;
    const double xfer = edge_gb[e] / bw + machine_.net_latency_s;
    bd.transfer_total_s += xfer;
    const double exposed = xfer * (1.0 - coupling_.transfer_overlap);
    bd.components[edges_[e].producer].transfer_exposed_s += exposed;
    bd.components[edges_[e].consumer].transfer_exposed_s += exposed;
  }

  // Synchronised pipeline: all components advance with the slowest one.
  double step = 0.0;
  std::size_t slowest = 0;
  for (std::size_t j = 0; j < n; ++j) {
    ComponentCost& cost = bd.components[j];
    cost.period_s =
        cost.step_compute_s + cost.staging_s + cost.transfer_exposed_s;
    if (cost.period_s > step) {
      step = cost.period_s;
      slowest = j;
    }
  }
  bd.components[slowest].bottleneck = true;

  // Interconnect contention: concurrent streams on the shared fabric
  // inflate the step when transfer time is significant relative to it.
  bd.contention_factor = 1.0 + coupling_.contention_coef *
                                   bd.transfer_total_s /
                                   std::max(step, 1e-9);
  bd.step_s = step * bd.contention_factor;

  for (const auto& a : apps_) {
    bd.startup_s = std::max(bd.startup_s, a.startup_s());
  }
  bd.exec_s = bd.startup_s +
              static_cast<double>(coupling_.pipeline_steps) * bd.step_s;
  bd.comp_ch = machine_.core_hours(bd.nodes, bd.exec_s);
  return bd;
}

Measurement InSituWorkflow::measurement(const CostBreakdown& bd,
                                        double factor) const {
  CEAL_EXPECT(bd.components.size() == apps_.size());
  Measurement m;
  m.exec_s = bd.exec_s * factor;
  m.nodes = bd.nodes;
  m.comp_ch = machine_.core_hours(m.nodes, m.exec_s);
  m.component_exec_s.resize(apps_.size());
  for (std::size_t j = 0; j < apps_.size(); ++j) {
    // Every component is held for the full synchronised run; its own
    // startup may end earlier but the measurement is end-to-end.
    m.component_exec_s[j] =
        (apps_[j].startup_s() +
         static_cast<double>(coupling_.pipeline_steps) * bd.step_s) *
        factor;
  }
  return m;
}

Measurement InSituWorkflow::expected(const config::Configuration& joint) const {
  return measurement(explain(joint), 1.0);
}

Measurement InSituWorkflow::run(const config::Configuration& joint,
                                ceal::Rng& rng) const {
  const double f = noise_factor(rng);
  return measurement(explain(joint), f);
}

double InSituWorkflow::noise_factor(ceal::Rng& rng) const {
  return rng.lognormal_factor(coupling_.noise_sigma);
}

Measurement InSituWorkflow::expected_component(
    std::size_t j, const config::Configuration& c) const {
  CEAL_EXPECT(j < apps_.size());
  CEAL_EXPECT_MSG(apps_[j].space().is_valid(c),
                  "invalid component configuration");
  Measurement m;
  m.exec_s = apps_[j].solo_exec_s(c, machine_, coupling_.pipeline_steps);
  m.nodes = apps_[j].nodes(c);
  m.comp_ch = machine_.core_hours(m.nodes, m.exec_s);
  m.component_exec_s = {m.exec_s};
  return m;
}

Measurement InSituWorkflow::run_component(std::size_t j,
                                          const config::Configuration& c,
                                          ceal::Rng& rng) const {
  Measurement m = expected_component(j, c);
  const double f = rng.lognormal_factor(coupling_.noise_sigma);
  m.exec_s *= f;
  m.comp_ch *= f;
  m.component_exec_s[0] *= f;
  return m;
}

}  // namespace ceal::sim
