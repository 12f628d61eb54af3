#include "tuner/result_io.h"

#include <cstdio>

#include "core/atomic_file.h"
#include "sim/fault_model.h"

namespace ceal::tuner {

std::string hex_double(double v) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", v);
  return buffer;
}

void save_result_csv(const std::string& path, const TuneResult& result,
                     const SessionSpec& spec) {
  AtomicFile file(path);
  auto& os = file.stream();
  os << "key,value\n";
  os << "algorithm," << spec.algorithm << '\n';
  os << "workflow," << spec.workflow << '\n';
  os << "objective," << objective_name(objective_by_name(spec.objective))
     << '\n';
  os << "budget," << spec.budget << '\n';
  os << "seed," << spec.seed << '\n';
  os << "runs_used," << result.runs_used << '\n';
  os << "measured," << result.measured_indices.size() << '\n';
  os << "failed_runs," << result.failed_runs << '\n';
  os << "best_predicted_index," << result.best_predicted_index << '\n';
  os << "best_measured_index," << result.best_measured_index << '\n';
  os << "cost_exec_s," << hex_double(result.cost_exec_s) << '\n';
  os << "cost_comp_ch," << hex_double(result.cost_comp_ch) << '\n';
  for (std::size_t s = 0; s < result.measured_indices.size(); ++s) {
    os << "measured." << s << ',' << result.measured_indices[s] << ':'
       << sim::run_status_name(result.measured_statuses[s]) << '\n';
  }
  for (std::size_t i = 0; i < result.model_scores.size(); ++i) {
    os << "score." << i << ',' << hex_double(result.model_scores[i]) << '\n';
  }
  file.commit();
}

}  // namespace ceal::tuner
