// ceal_explain — per-component cost breakdown of one workflow
// configuration under the coupling simulator, next to each component's
// solo profile (the low-fidelity gap, made visible).
//
//   ceal_explain --workflow LV --config 288,18,2,288,18,2
//   ceal_explain --workflow HS --expert exec
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "core/table.h"
#include "tools/args.h"
#include "tuner/session_spec.h"

namespace {

constexpr const char* kUsage =
    "--workflow LV|HS|GP (--config v0,v1,... | --expert exec|comp)";

}  // namespace

int main(int argc, char** argv) {
  using namespace ceal;
  tools::Args args(argc, argv, kUsage);
  const auto wl_name = args.required("workflow");
  const auto config_text = args.option("config", "");
  const auto expert = args.option("expert", "");
  args.finish();

  const sim::Workload wl =
      args.or_exit([&] { return tuner::workload_by_name(wl_name); });
  config::Configuration c;
  if (!config_text.empty()) {
    // "288,18,2,288,18,2"
    std::istringstream is(config_text);
    for (std::string v; std::getline(is, v, ',');)
      c.push_back(static_cast<int>(std::strtol(v.c_str(), nullptr, 10)));
  } else if (expert == "exec") {
    c = wl.expert_exec;
  } else if (expert == "comp") {
    c = wl.expert_comp;
  } else {
    std::cerr << "need --config or --expert exec|comp\n"
              << args.usage_text();
    return 2;
  }
  if (!wl.workflow.joint_space().is_valid(c)) {
    std::cerr << "configuration " << config::to_string(c)
              << " is not valid for " << wl.workflow.name() << "\n";
    return 1;
  }

  const auto bd = wl.workflow.explain(c);
  std::cout << wl.workflow.name() << " " << config::to_string(c) << "\n\n";

  Table table({"component", "procs", "nodes", "input (GB)", "compute (s)",
               "staging (s)", "transfer (s)", "period (s)", "solo exec (s)",
               ""});
  for (std::size_t j = 0; j < bd.components.size(); ++j) {
    const auto& comp = bd.components[j];
    const auto solo = wl.workflow.expected_component(
        j, wl.workflow.space().slice(c, j));
    table.add_row({comp.name, std::to_string(comp.procs),
                   std::to_string(comp.nodes), Table::num(comp.input_gb, 3),
                   Table::num(comp.step_compute_s, 4),
                   Table::num(comp.staging_s, 4),
                   Table::num(comp.transfer_exposed_s, 4),
                   Table::num(comp.period_s, 4),
                   Table::num(solo.exec_s, 2),
                   comp.bottleneck ? "<- bottleneck" : ""});
  }
  std::cout << table << "\n";
  std::cout << "synchronised step: " << Table::num(bd.step_s, 4)
            << " s (contention x" << Table::num(bd.contention_factor, 3)
            << ")\n"
            << "coupled run: " << Table::num(bd.exec_s, 2) << " s on "
            << bd.nodes << " nodes = " << Table::num(bd.comp_ch, 3)
            << " core-hours\n";
  return 0;
}
