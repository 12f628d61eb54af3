#include "sim/component_app.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace ceal::sim {

ComponentApp::ComponentApp(std::string name, config::ConfigSpace space,
                           ParamRoles roles, ScalingParams scaling,
                           IoProfile io, double startup_s)
    : name_(std::move(name)),
      space_(std::move(space)),
      roles_(roles),
      scaling_(scaling),
      io_(io),
      startup_s_(startup_s) {
  CEAL_EXPECT(!name_.empty());
  CEAL_EXPECT(startup_s_ >= 0.0);
  CEAL_EXPECT_MSG(roles_.procs >= 0 ||
                      (roles_.procs_x >= 0 && roles_.procs_y >= 0) ||
                      !configurable(),
                  "configurable app needs a process-count role");
}

int ComponentApp::role_value(int idx, std::span<const int> c,
                             int fallback) const {
  if (idx < 0) return fallback;
  CEAL_EXPECT(static_cast<std::size_t>(idx) < c.size());
  return c[static_cast<std::size_t>(idx)];
}

int ComponentApp::procs(std::span<const int> c) const {
  if (roles_.procs_x >= 0 && roles_.procs_y >= 0) {
    return role_value(roles_.procs_x, c, 1) * role_value(roles_.procs_y, c, 1);
  }
  return role_value(roles_.procs, c, 1);
}

int ComponentApp::ppn(std::span<const int> c) const {
  return role_value(roles_.ppn, c, 1);
}

int ComponentApp::tpp(std::span<const int> c) const {
  return role_value(roles_.tpp, c, 1);
}

int ComponentApp::nodes(std::span<const int> c) const {
  const int p = procs(c);
  const int per_node = std::min(ppn(c), p);
  return (p + per_node - 1) / per_node;
}

double ComponentApp::aspect(const config::Configuration& c) const {
  if (roles_.procs_x < 0 || roles_.procs_y < 0) return 1.0;
  const double x = role_value(roles_.procs_x, c, 1);
  const double y = role_value(roles_.procs_y, c, 1);
  return std::max(x, y) / std::min(x, y);
}

double ComponentApp::output_gb_per_step(const config::Configuration& c) const {
  if (io_.base_output_gb <= 0.0) return 0.0;
  if (roles_.outputs < 0) return io_.base_output_gb;
  const int outputs = role_value(roles_.outputs, c, 1);
  const int min_outputs =
      space_.parameter(static_cast<std::size_t>(roles_.outputs)).value(0);
  return io_.base_output_gb * static_cast<double>(outputs) /
         static_cast<double>(min_outputs);
}

double ComponentApp::step_compute_s(const config::Configuration& c,
                                    const MachineSpec& machine,
                                    double input_gb) const {
  double t = scaling_.step_time(procs(c), ppn(c), tpp(c), aspect(c), machine);
  // A consumer fed more data than its solo benchmark does proportionally
  // more parallel work; the serial/comm terms are unaffected.
  if (io_.default_input_gb > 0.0 && input_gb > 0.0) {
    const double ratio = input_gb / io_.default_input_gb;
    const double parallel_part = t - scaling_.params().serial_s;
    t = scaling_.params().serial_s + parallel_part * ratio;
  }
  return t;
}

double ComponentApp::staging_overhead_s(const config::Configuration& c) const {
  if (roles_.buffer_mb < 0) return 0.0;
  const double buffer_mb =
      static_cast<double>(role_value(roles_.buffer_mb, c, 1));
  const double volume_mb = output_gb_per_step(c) * 1024.0;
  const double flushes = std::max(1.0, volume_mb / buffer_mb);
  return flushes * io_.flush_latency_s +
         buffer_mb * io_.buffer_stall_s_per_mb;
}

double ComponentApp::solo_exec_s(const config::Configuration& c,
                                 const MachineSpec& machine,
                                 int steps) const {
  CEAL_EXPECT(steps >= 1);
  // Standalone mode: inputs are read from and outputs written to the
  // parallel filesystem (Fig. 2a), with the same buffering behaviour.
  const double out_gb = output_gb_per_step(c);
  double io_s = 0.0;
  if (out_gb > 0.0) {
    io_s += out_gb / machine.fs_bw_gbs + machine.fs_latency_s;
  }
  if (io_.default_input_gb > 0.0) {
    io_s += io_.default_input_gb / machine.fs_bw_gbs + machine.fs_latency_s;
  }
  const double step =
      step_compute_s(c, machine, io_.default_input_gb) +
      staging_overhead_s(c) + io_s;
  return startup_s_ + static_cast<double>(steps) * step;
}

double ComponentApp::solo_comp_ch(const config::Configuration& c,
                                  const MachineSpec& machine,
                                  int steps) const {
  return machine.core_hours(nodes(c), solo_exec_s(c, machine, steps));
}

config::ConfigSpace::Constraint ComponentApp::node_limit_constraint(
    ParamRoles roles, int max_nodes) {
  return [roles, max_nodes](std::span<const int> c) {
    int p = 1;
    if (roles.procs_x >= 0 && roles.procs_y >= 0) {
      p = c[static_cast<std::size_t>(roles.procs_x)] *
          c[static_cast<std::size_t>(roles.procs_y)];
    } else if (roles.procs >= 0) {
      p = c[static_cast<std::size_t>(roles.procs)];
    }
    const int per_node =
        roles.ppn >= 0
            ? std::min(c[static_cast<std::size_t>(roles.ppn)], p)
            : p;
    const int nodes = (p + per_node - 1) / per_node;
    return nodes <= max_nodes;
  };
}

}  // namespace ceal::sim
