// Multiplexing fidelity: N concurrent sessions with mixed tuners and
// seeds, stepped in an interleaved (shuffled) order through the daemon,
// must each produce a result CSV byte-identical to a solo
// AutoTuner::tune run of the same (algorithm, seed, problem) — and the
// daemon's full response stream must be byte-identical across thread
// counts (responses carry no wall-clock values).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "serve/server.h"
#include "tuner/result_io.h"
#include "tuner/session_spec.h"

namespace ceal::serve {
namespace {

struct SessionSpec {
  std::string id;
  std::string algorithm;
  std::uint64_t seed;
};

constexpr std::size_t kBudget = 12;
constexpr std::size_t kPoolSize = 150;
constexpr std::size_t kPoolSeed = 7;
constexpr std::size_t kComponentSamples = 60;

std::vector<SessionSpec> specs() {
  return {{"m-ceal", "CEAL", 11},  {"m-rs", "RS", 12},
          {"m-al", "AL", 13},      {"m-geist", "GEIST", 14},
          {"m-alph", "ALpH", 15},  {"m-bo", "BO", 16},
          {"m-bo-ceal", "BO-CEAL", 17}};
}

std::string create_line(const SessionSpec& spec) {
  std::ostringstream os;
  os << "{\"op\":\"session.create\",\"id\":\"" << spec.id
     << "\",\"workflow\":\"LV\",\"objective\":\"exec\",\"budget\":"
     << kBudget << ",\"algorithm\":\"" << spec.algorithm
     << "\",\"seed\":" << spec.seed << ",\"pool_size\":" << kPoolSize
     << ",\"pool_seed\":" << kPoolSeed
     << ",\"component_samples\":" << kComponentSamples << "}";
  return os.str();
}

/// The reference: exactly what ceal_tune --save-result would produce
/// for this (algorithm, seed) — built independently of src/serve.
void write_solo_csv(const SessionSpec& spec, const std::string& path) {
  sim::Workload wl = sim::make_lv();
  const auto pool = tuner::measure_pool(wl.workflow, kPoolSize, kPoolSeed);
  const auto comps = tuner::measure_components(wl.workflow,
                                               kComponentSamples,
                                               kPoolSeed + 1);
  tuner::TuningProblem problem;
  problem.workload = &wl;
  problem.objective = tuner::Objective::kExecTime;
  problem.pool = &pool;
  problem.component_samples = &comps;
  ceal::Rng rng(spec.seed);
  const auto algo = tuner::algorithm_by_name(spec.algorithm);
  const tuner::TuneResult result = algo->tune(problem, kBudget, rng);
  tuner::SessionSpec identity;
  identity.workflow = "LV";
  identity.objective = "exec";
  identity.algorithm = algo->name();
  identity.budget = kBudget;
  identity.seed = spec.seed;
  tuner::save_result_csv(path, result, identity);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// A deterministic shuffled stepping schedule: enough single-step
/// rounds to finish every session, visiting sessions in a seeded
/// random order each round.
std::vector<std::string> step_schedule(const std::vector<SessionSpec>& all) {
  ceal::Rng order(99);
  std::vector<std::string> lines;
  for (int round = 0; round < 40; ++round) {
    for (const std::size_t i : order.permutation(all.size())) {
      lines.push_back("{\"op\":\"session.step\",\"id\":\"" + all[i].id +
                      "\"}");
    }
  }
  return lines;
}

TEST(ServeSessionMatrixTest, InterleavedSessionsMatchSoloRuns) {
  const auto all = specs();
  ServerCore core{ServerOptions{}};
  for (const auto& spec : all) {
    const json::Value response =
        json::Value::parse(core.handle_line(create_line(spec)));
    ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  }
  for (const auto& line : step_schedule(all)) {
    ASSERT_TRUE(json::Value::parse(core.handle_line(line))
                    .at("ok")
                    .as_bool());
  }
  for (const auto& spec : all) {
    const std::string served = ::testing::TempDir() + "ceal_matrix_" +
                               spec.id + "_served.csv";
    const std::string solo =
        ::testing::TempDir() + "ceal_matrix_" + spec.id + "_solo.csv";
    const json::Value response = json::Value::parse(core.handle_line(
        "{\"op\":\"session.query\",\"id\":\"" + spec.id +
        "\",\"save_result\":\"" + served + "\"}"));
    ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
    ASSERT_EQ(response.at("state").as_string(), "done")
        << spec.id << ": " << response.dump();
    write_solo_csv(spec, solo);
    EXPECT_EQ(slurp(served), slurp(solo))
        << spec.algorithm << " diverged from its solo run";
    std::remove(served.c_str());
    std::remove(solo.c_str());
  }
}

TEST(ServeSessionMatrixTest, ResponseStreamIsByteStableAcrossThreadCounts) {
  const auto all = specs();
  std::vector<std::string> outputs;
  std::vector<std::string> result_blobs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::ostringstream script;
    for (const auto& spec : all) script << create_line(spec) << "\n";
    for (const auto& line : step_schedule(all)) script << line << "\n";
    std::string results;
    for (const auto& spec : all) {
      const std::string path = ::testing::TempDir() + "ceal_matrix_t" +
                               std::to_string(threads) + "_" + spec.id +
                               ".csv";
      script << "{\"op\":\"session.query\",\"id\":\"" << spec.id
             << "\",\"save_result\":\"" << path << "\"}\n";
      results += path;
      results += "\n";
    }
    script << "{\"op\":\"server.stats\"}\n";

    ServerCore core{ServerOptions{}};
    std::istringstream in(script.str());
    std::ostringstream out;
    serve_stream(core, in, out, threads);
    outputs.push_back(out.str());

    std::string blob;
    std::istringstream paths(results);
    std::string path;
    while (std::getline(paths, path)) {
      blob += slurp(path);
      std::remove(path.c_str());
    }
    result_blobs.push_back(blob);
  }
  ASSERT_EQ(outputs.size(), 2u);
  // The response stream (including the final stats barrier) and every
  // result CSV are byte-identical at 1 and 4 threads: the only
  // differences threading could introduce would be scheduling, and
  // nothing scheduling-dependent is observable.
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(result_blobs[0], result_blobs[1]);
  EXPECT_FALSE(result_blobs[0].empty());
}

}  // namespace
}  // namespace ceal::serve
