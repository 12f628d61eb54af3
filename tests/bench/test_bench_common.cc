// annotate_bench_json on google-benchmark output: the metadata header is
// added, and non-finite counters (bare NaN/Infinity tokens, which are
// not JSON) are dropped instead of aborting the bench binary.
#include "bench/common.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/error.h"
#include "core/json.h"

namespace ceal::bench {
namespace {

class AnnotateBenchJson : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            ("ceal_annotate_" + std::string(info->name()) + ".json");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void write(const std::string& text) const {
    std::ofstream(path_) << text;
  }
  json::Value read() const {
    std::ifstream in(path_);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return json::Value::parse(buffer.str());
  }

  std::filesystem::path path_;
};

// The shape bench_measure_plane writes on a quiet host: every repetition
// saw zero retries, so the coefficient of variation is 0/0.
constexpr const char* kQuietHostOutput = R"({
  "context": {"date": "2026-01-01", "library_build_type": "release"},
  "benchmarks": [
    {
      "name": "BM_Plane/4_mean",
      "aggregate_name": "mean",
      "real_time": 1.5e+01,
      "retries": 0.0000000000000000e+00,
      "runs_per_s": 1.2e+04
    },
    {
      "name": "BM_Plane/4_cv",
      "aggregate_name": "cv",
      "real_time": 2.0e-02,
      "retries": NaN,
      "hedge_rate": -NaN,
      "runs_per_s": 1.0e-02,
      "restarts": Infinity
    }
  ]
})";

TEST_F(AnnotateBenchJson, DropsNonFiniteCountersAndAddsHeader) {
  write(kQuietHostOutput);
  annotate_bench_json(path_.string());

  const json::Value root = read();
  ASSERT_TRUE(root.contains("ceal"));
  EXPECT_TRUE(root.at("ceal").contains("git_describe"));
  const json::Value& benchmarks = root.at("benchmarks");
  ASSERT_EQ(benchmarks.size(), 2u);

  const json::Value& mean = benchmarks.at(0);
  EXPECT_EQ(mean.at("name").as_string(), "BM_Plane/4_mean");
  EXPECT_EQ(mean.at("retries").as_double(), 0.0);
  EXPECT_EQ(mean.at("runs_per_s").as_double(), 1.2e4);

  const json::Value& cv = benchmarks.at(1);
  EXPECT_EQ(cv.at("name").as_string(), "BM_Plane/4_cv");
  EXPECT_EQ(cv.at("runs_per_s").as_double(), 1.0e-2);
  EXPECT_FALSE(cv.contains("retries"));
  EXPECT_FALSE(cv.contains("hedge_rate"));
  EXPECT_FALSE(cv.contains("restarts"));
}

TEST_F(AnnotateBenchJson, KeepsNaNInsideStrings) {
  write(R"({"context": {"host_name": "NaN-box \"Infinity\""},)"
        R"( "benchmarks": [{"name": "BM_NaN", "real_time": 1}]})");
  annotate_bench_json(path_.string());
  const json::Value root = read();
  EXPECT_EQ(root.at("context").at("host_name").as_string(),
            "NaN-box \"Infinity\"");
  EXPECT_EQ(root.at("benchmarks").at(0).at("name").as_string(), "BM_NaN");
}

TEST_F(AnnotateBenchJson, StillRejectsMalformedJson) {
  write(R"({"benchmarks": [{"name": "BM_X", "real_time": NaNa}]})");
  EXPECT_THROW(annotate_bench_json(path_.string()), ceal::PreconditionError);
  write(R"({"context": {}})");
  EXPECT_THROW(annotate_bench_json(path_.string()), ceal::PreconditionError);
}

}  // namespace
}  // namespace ceal::bench
