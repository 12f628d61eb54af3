// In-situ workflow coupling simulator.
//
// Components run concurrently on disjoint node sets inside one
// allocation, exchanging per-step data over the interconnect through a
// staging library (Fig. 2b). The coupled model captures what the solo
// model cannot:
//   * pipeline synchronisation — every step advances at the pace of the
//     slowest component (T = max_j period_j);
//   * streaming-transfer cost on the shared interconnect, with partial
//     compute/transfer overlap;
//   * interconnect contention that inflates the step when transfers are
//     large relative to the step period;
//   * producer-volume-dependent consumer work (a consumer fed more data
//     than its solo benchmark works harder per step).
// That systematic solo-vs-coupled gap is the low-fidelity gap of §3.
#pragma once

#include <string>
#include <vector>

#include "config/composite.h"
#include "core/rng.h"
#include "sim/component_app.h"
#include "sim/machine.h"

namespace ceal::sim {

/// Streaming data dependency: producer j streams its per-step output to
/// consumer k for the lifetime of the run.
struct Edge {
  std::size_t producer;
  std::size_t consumer;
};

/// One observed (or expected) run.
struct Measurement {
  double exec_s = 0.0;   ///< end-to-end wall-clock (longest component)
  double comp_ch = 0.0;  ///< computer time in core-hours
  std::vector<double> component_exec_s;
  int nodes = 0;         ///< total nodes occupied
};

/// Per-component share of one coupled step (diagnostics / reports).
struct ComponentCost {
  std::string name;
  int procs = 0;
  int nodes = 0;
  double input_gb = 0.0;            ///< upstream volume per step
  double step_compute_s = 0.0;      ///< own compute per step
  double staging_s = 0.0;           ///< buffer flush/stall overhead
  double transfer_exposed_s = 0.0;  ///< unhidden transfer share
  double period_s = 0.0;            ///< compute + staging + transfer
  bool bottleneck = false;          ///< sets the synchronised step
};

/// Full noise-free cost breakdown of one coupled run (see explain()).
struct CostBreakdown {
  std::vector<ComponentCost> components;
  double transfer_total_s = 0.0;   ///< summed per-step stream transfers
  double contention_factor = 1.0;  ///< interconnect inflation multiplier
  double step_s = 0.0;             ///< synchronised step after contention
  double startup_s = 0.0;
  double exec_s = 0.0;
  double comp_ch = 0.0;
  int nodes = 0;
};

struct CouplingParams {
  int pipeline_steps = 20;       ///< synchronised steps per run
  double transfer_overlap = 0.6; ///< fraction of transfer hidden by compute
  double net_efficiency = 0.7;   ///< achieved fraction of link bandwidth
  double contention_coef = 0.25; ///< interconnect contention strength
  double noise_sigma = 0.03;     ///< lognormal measurement noise (0 = none)
};

class InSituWorkflow {
 public:
  /// `apps` become the workflow components in DAG order; every edge index
  /// must reference them. The composite space gains the allocation
  /// constraint sum_j nodes_j <= machine.allocation_nodes.
  InSituWorkflow(std::string name, MachineSpec machine,
                 std::vector<ComponentApp> apps, std::vector<Edge> edges,
                 CouplingParams coupling = {});

  const std::string& name() const { return name_; }
  const MachineSpec& machine() const { return machine_; }
  const CouplingParams& coupling() const { return coupling_; }
  const config::CompositeSpace& space() const { return space_; }
  /// The joint configuration space all tuners operate on.
  const config::ConfigSpace& joint_space() const { return space_.joint(); }

  std::size_t component_count() const { return apps_.size(); }
  const ComponentApp& app(std::size_t j) const;
  const std::vector<Edge>& edges() const { return edges_; }

  /// Total node demand of a joint configuration.
  int total_nodes(const config::Configuration& joint) const;

  /// Noise-free coupled performance of a joint configuration.
  Measurement expected(const config::Configuration& joint) const;

  /// Noise-free per-component cost breakdown of a coupled run — where
  /// each step goes (compute, staging, transfer), who the bottleneck is,
  /// and how contention inflates the pipeline.
  CostBreakdown explain(const config::Configuration& joint) const;

  /// One coupled run with measurement noise: the breakdown measured at
  /// noise_factor(rng).
  Measurement run(const config::Configuration& joint, ceal::Rng& rng) const;

  /// The multiplicative noise of one run (one lognormal draw from `rng`;
  /// 1.0 would be the noise-free run).
  double noise_factor(ceal::Rng& rng) const;

  /// The run a breakdown (explain()) yields at a noise factor. run() and
  /// expected() are this at noise_factor(rng) and at 1.0, so one
  /// breakdown serves both the noisy run and the truth.
  Measurement measurement(const CostBreakdown& bd, double factor) const;

  /// Noise-free solo performance of component `j` under its own
  /// configuration `c` (used for component-model training data).
  Measurement expected_component(std::size_t j,
                                 const config::Configuration& c) const;

  /// One noisy solo run of component `j`.
  Measurement run_component(std::size_t j, const config::Configuration& c,
                            ceal::Rng& rng) const;

 private:
  std::string name_;
  MachineSpec machine_;
  std::vector<ComponentApp> apps_;
  std::vector<Edge> edges_;
  CouplingParams coupling_;
  config::CompositeSpace space_;
};

}  // namespace ceal::sim
