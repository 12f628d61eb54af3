// Ground-truth performance model of one component application.
//
// A ComponentApp owns its configuration space (Table 1), knows which
// parameter plays which role (process count, processes per node, threads,
// output count, staging-buffer size), and exposes the analytic timing
// pieces the workflow simulator composes: per-step compute time, produced
// data volume, staging overhead, and solo-run time.
//
// The solo-run model (used to train the tuner's component models) writes
// and reads the persistent filesystem, while the coupled in-situ model in
// workflow.cc streams over the interconnect with synchronisation — the
// systematic difference between them is exactly the low-fidelity gap the
// paper's bootstrapping method is designed around (§3).
#pragma once

#include <span>
#include <string>

#include "config/config_space.h"
#include "sim/machine.h"
#include "sim/scaling.h"

namespace ceal::sim {

/// Positions of the role-carrying parameters inside the app's
/// configuration; -1 when the app does not have that knob.
struct ParamRoles {
  int procs = -1;      ///< "# processes"
  int procs_x = -1;    ///< decomposed process grid (procs = x * y)
  int procs_y = -1;
  int ppn = -1;        ///< "# processes per node"
  int tpp = -1;        ///< "# threads per process"
  int outputs = -1;    ///< "# outputs"
  int buffer_mb = -1;  ///< staging buffer size (MB)
};

/// Data-movement behaviour of the app.
struct IoProfile {
  /// Data produced per pipeline step at the *smallest* `outputs` setting
  /// (scaled linearly in outputs when that knob exists), in GB.
  double base_output_gb = 0.0;
  /// Input volume the app consumes per step in a solo benchmark run, GB.
  /// In a coupled run the actual producer volume replaces this, which is
  /// one of the interactions component models cannot see.
  double default_input_gb = 0.0;
  /// Per-flush staging latency (seconds); flushes = volume / buffer.
  double flush_latency_s = 2e-3;
  /// Stall cost per MB of staging buffer (memory pressure / burstiness).
  double buffer_stall_s_per_mb = 1.5e-3;
};

class ComponentApp {
 public:
  ComponentApp(std::string name, config::ConfigSpace space, ParamRoles roles,
               ScalingParams scaling, IoProfile io, double startup_s);

  const std::string& name() const { return name_; }
  const config::ConfigSpace& space() const { return space_; }
  bool configurable() const { return space_.raw_size() > 1; }
  double startup_s() const { return startup_s_; }
  const IoProfile& io() const { return io_; }

  /// Total MPI processes of configuration `c`.
  int procs(std::span<const int> c) const;
  int ppn(std::span<const int> c) const;
  int tpp(std::span<const int> c) const;
  /// Nodes occupied: ceil(procs / ppn).
  int nodes(std::span<const int> c) const;
  /// Decomposition skew max(px,py)/min(px,py); 1 when not decomposed.
  double aspect(const config::Configuration& c) const;

  /// GB streamed to downstream consumers per pipeline step.
  double output_gb_per_step(const config::Configuration& c) const;

  /// Per-step compute time when consuming `input_gb` of upstream data.
  /// The app's parallel work scales with input volume relative to its
  /// solo default (a consumer fed more data does more work per step).
  double step_compute_s(const config::Configuration& c,
                        const MachineSpec& machine, double input_gb) const;

  /// Producer-side staging overhead per step (flush latency + buffer
  /// stalls). Zero for apps without a buffer knob.
  double staging_overhead_s(const config::Configuration& c) const;

  /// Noise-free solo (standalone) execution time for a run of `steps`
  /// pipeline steps: startup + steps * (compute + filesystem I/O).
  double solo_exec_s(const config::Configuration& c,
                     const MachineSpec& machine, int steps) const;

  /// Noise-free solo computer time in core-hours.
  double solo_comp_ch(const config::Configuration& c,
                      const MachineSpec& machine, int steps) const;

  /// Standard constraint for Table-1 style spaces: the node demand
  /// ceil(procs/ppn) must fit `max_nodes`. Usable as a ConfigSpace
  /// constraint via the returned predicate.
  static config::ConfigSpace::Constraint node_limit_constraint(
      ParamRoles roles, int max_nodes);

 private:
  int role_value(int idx, std::span<const int> c, int fallback) const;

  std::string name_;
  config::ConfigSpace space_;
  ParamRoles roles_;
  ScalingModel scaling_;
  IoProfile io_;
  double startup_s_;
};

}  // namespace ceal::sim
