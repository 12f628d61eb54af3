#include "tuner/pool_io.h"

#include <charconv>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/atomic_file.h"
#include "core/error.h"

namespace ceal::tuner {

namespace {

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

// Loader errors follow the one-line "<path>:<lineno>: why" convention of
// trace_io.h, so a bad row in a 2000-line pool file points straight at
// itself. `where` is the already-formatted "<path>:<lineno>" prefix.

[[noreturn]] void fail_row(const std::string& where, const std::string& why) {
  throw PreconditionError(where + ": " + why);
}

double parse_double(const std::string& token, const std::string& where) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    fail_row(where, "malformed number '" + token + "'");
  }
  return v;
}

int parse_int(const std::string& token, const std::string& where) {
  int v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    fail_row(where, "malformed integer '" + token + "'");
  }
  return v;
}

std::string location(const std::string& path, std::size_t lineno) {
  return path + ':' + std::to_string(lineno);
}

void write_header(std::ostream& os, const config::ConfigSpace& space,
                  bool with_truth) {
  for (std::size_t j = 0; j < space.dimension(); ++j) {
    os << space.parameter(j).name() << ',';
  }
  os << "exec_s,comp_ch";
  if (with_truth) os << ",true_exec_s,true_comp_ch";
  os << '\n';
}

/// Appends `v` and `sep` to `row`.
void append(std::string& row, int v, char sep) {
  char buf[16];
  row.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  row += sep;
}

/// Appends `v` as an ostream at precision 17 prints it (printf's
/// "%.17g", which round-trips), and `sep`.
void append(std::string& row, double v, char sep) {
  char buf[32];
  row.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
  row += sep;
}

void write_row(std::ostream& os, const config::Configuration& c,
               double exec_s, double comp_ch, const double* true_exec,
               const double* true_comp) {
  std::string row;
  for (const int v : c) append(row, v, ',');
  append(row, exec_s, ',');
  if (true_exec != nullptr) {
    append(row, comp_ch, ',');
    append(row, *true_exec, ',');
    append(row, *true_comp, '\n');
  } else {
    append(row, comp_ch, '\n');
  }
  os << row;
}

struct ParsedRow {
  config::Configuration config;
  double exec_s = 0.0;
  double comp_ch = 0.0;
  double true_exec_s = 0.0;
  double true_comp_ch = 0.0;
  bool has_truth = false;
};

ParsedRow parse_row(const std::vector<std::string>& cells,
                    const config::ConfigSpace& space,
                    const std::string& where) {
  const std::size_t d = space.dimension();
  if (cells.size() != d + 2 && cells.size() != d + 4) {
    fail_row(where, "row has " + std::to_string(cells.size()) +
                        " columns, expected " + std::to_string(d + 2) +
                        " or " + std::to_string(d + 4));
  }
  ParsedRow row;
  row.config.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    row.config[j] = parse_int(cells[j], where);
  }
  if (!space.is_valid(row.config)) {
    fail_row(where, "not a valid configuration: " +
                        config::to_string(row.config));
  }
  row.exec_s = parse_double(cells[d], where);
  row.comp_ch = parse_double(cells[d + 1], where);
  if (!(row.exec_s > 0.0 && row.comp_ch > 0.0)) {
    fail_row(where, "non-positive measurements");
  }
  if (cells.size() == d + 4) {
    row.true_exec_s = parse_double(cells[d + 2], where);
    row.true_comp_ch = parse_double(cells[d + 3], where);
    row.has_truth = true;
  } else {
    row.true_exec_s = row.exec_s;
    row.true_comp_ch = row.comp_ch;
  }
  return row;
}

}  // namespace

void save_pool_csv(const MeasuredPool& pool,
                   const config::ConfigSpace& space,
                   const std::string& path) {
  CEAL_EXPECT(pool.size() > 0);
  const bool with_truth = pool.true_exec_s.size() == pool.size();
  // Atomic replace: a crash mid-save leaves the old pool file (or none),
  // never a truncated one that a later session would half-load.
  AtomicFile file(path);
  write_header(file.stream(), space, with_truth);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    write_row(file.stream(), pool.configs[i], pool.exec_s[i], pool.comp_ch[i],
              with_truth ? &pool.true_exec_s[i] : nullptr,
              with_truth ? &pool.true_comp_ch[i] : nullptr);
  }
  file.commit();
}

MeasuredPool load_pool_csv(const config::ConfigSpace& space,
                           const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::string line;
  if (!std::getline(is, line)) {
    throw PreconditionError(location(path, 1) + ": pool file is empty");
  }
  MeasuredPool pool;
  std::size_t lineno = 1;
  // Every pool entry must be a distinct configuration: the pool doubles
  // as the test set, and a duplicated row would let one configuration
  // vote twice in the rank metrics (and desync resume fingerprints).
  // Component samples are exempt — tiny component spaces legitimately
  // repeat configurations across solo runs.
  std::map<config::Configuration, std::size_t> first_seen;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const ParsedRow row =
        parse_row(split_csv(line), space, location(path, lineno));
    const auto [it, inserted] = first_seen.emplace(row.config, lineno);
    if (!inserted) {
      fail_row(location(path, lineno),
               "duplicate configuration " + config::to_string(row.config) +
                   " (first at line " + std::to_string(it->second) + ")");
    }
    pool.configs.push_back(row.config);
    pool.exec_s.push_back(row.exec_s);
    pool.comp_ch.push_back(row.comp_ch);
    pool.true_exec_s.push_back(row.true_exec_s);
    pool.true_comp_ch.push_back(row.true_comp_ch);
  }
  if (pool.size() == 0) {
    throw PreconditionError(location(path, lineno) +
                            ": pool file has no rows");
  }
  return pool;
}

void save_component_csv(const ComponentSamples& samples,
                        const config::ConfigSpace& space,
                        const std::string& path) {
  CEAL_EXPECT(samples.size() > 0);
  AtomicFile file(path);
  write_header(file.stream(), space, /*with_truth=*/false);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    write_row(file.stream(), samples.configs[i], samples.exec_s[i],
              samples.comp_ch[i], nullptr, nullptr);
  }
  file.commit();
}

ComponentSamples load_component_csv(const config::ConfigSpace& space,
                                    const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::string line;
  if (!std::getline(is, line)) {
    throw PreconditionError(location(path, 1) + ": component file is empty");
  }
  ComponentSamples samples;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const ParsedRow row =
        parse_row(split_csv(line), space, location(path, lineno));
    samples.configs.push_back(row.config);
    samples.exec_s.push_back(row.exec_s);
    samples.comp_ch.push_back(row.comp_ch);
  }
  if (samples.size() == 0) {
    throw PreconditionError(location(path, lineno) +
                            ": component file has no rows");
  }
  return samples;
}

}  // namespace ceal::tuner
