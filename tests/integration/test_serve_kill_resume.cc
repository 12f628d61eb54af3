// Daemon kill/resume equivalence, swept over every journal record
// boundary: a checkpointed serve session whose daemon dies after record
// k (for all k) and restarts with --resume must finish with a result
// CSV byte-identical to the uninterrupted daemon's — and its completed
// journal must converge to the same bytes. The "kill" is simulated by
// rebuilding a ServerCore over a manifest plus a k-record journal
// prefix, exactly the disk state a SIGKILLed daemon leaves at boundary
// k (tools/run_tier1.sh SIGKILLs a real ceal_serve for the end-to-end
// version).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/server.h"

namespace ceal::serve {
namespace {

// Fault injection + retries on: the journal then carries fault-rng
// handoffs, the hardest state to resume.
const char* kCreateLine =
    "{\"op\":\"session.create\",\"id\":\"kr1\",\"workflow\":\"LV\","
    "\"objective\":\"exec\",\"budget\":10,\"algorithm\":\"CEAL\","
    "\"seed\":5,\"pool_size\":120,\"pool_seed\":31,"
    "\"component_samples\":50,\"fault_rate\":0.15,\"max_attempts\":2}";

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  std::ofstream os(path, std::ios::binary);
  os << bytes;
}

/// Byte offsets of the journal's record boundaries: boundaries[k] is
/// where record k ends (boundaries[0] == 0).
std::vector<std::size_t> record_boundaries(const std::string& bytes) {
  std::vector<std::size_t> boundaries{0};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  return boundaries;
}

class ServeKillResumeTest : public ::testing::Test {
 protected:
  ServeKillResumeTest()
      : root_(::testing::TempDir() + "ceal_serve_kr." +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  ServerOptions options(const std::string& dir) const {
    ServerOptions opts;
    opts.checkpoint_dir = dir;
    return opts;
  }

  /// Drives the session to completion and returns its result CSV bytes.
  std::string finish_and_save(ServerCore& core, const std::string& tag) {
    EXPECT_TRUE(json::Value::parse(
                    core.handle_line("{\"op\":\"session.step\",\"id\":"
                                     "\"kr1\",\"steps\":1000}"))
                    .at("ok")
                    .as_bool());
    const std::string csv = root_ + "/" + tag + ".csv";
    const json::Value response = json::Value::parse(core.handle_line(
        "{\"op\":\"session.query\",\"id\":\"kr1\",\"save_result\":\"" +
        csv + "\"}"));
    EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
    EXPECT_EQ(response.at("state").as_string(), "done") << response.dump();
    return slurp(csv);
  }

  std::string root_;
};

TEST_F(ServeKillResumeTest, EveryRecordBoundaryResumesBitwiseIdentically) {
  // Uninterrupted daemon: the reference CSV and the ground-truth
  // journal every crash prefix below is cut from.
  const std::string ref_dir = root_ + "/ref";
  ServerCore reference{options(ref_dir)};
  ASSERT_TRUE(json::Value::parse(reference.handle_line(kCreateLine))
                  .at("ok")
                  .as_bool());
  const std::string ref_csv = finish_and_save(reference, "ref");
  ASSERT_FALSE(ref_csv.empty());
  const std::string manifest = slurp(ref_dir + "/kr1.session.json");
  ASSERT_FALSE(manifest.empty());
  const std::string journal = slurp(ref_dir + "/kr1.cealj");
  const auto boundaries = record_boundaries(journal);
  const std::size_t n = boundaries.size() - 1;
  ASSERT_GT(n, 3u);

  // k = 0: killed before the first durable record — the manifest alone
  // must rebuild the session from scratch. k = n: killed after the
  // terminal record — resume replays the whole journal through to done.
  for (std::size_t k = 0; k <= n; ++k) {
    const std::string dir = root_ + "/kill" + std::to_string(k);
    std::filesystem::create_directories(dir);
    write_raw(dir + "/kr1.session.json", manifest);
    if (k > 0) {
      write_raw(dir + "/kr1.cealj", journal.substr(0, boundaries[k]));
    }
    ServerCore resumed{options(dir)};
    ASSERT_EQ(resumed.resume_sessions(), 1u) << "boundary " << k;
    const std::string csv =
        finish_and_save(resumed, "kill" + std::to_string(k));
    EXPECT_EQ(csv, ref_csv) << "killed after record " << k << "/" << n;
    // The resumed daemon's completed journal converges to the
    // uninterrupted daemon's bytes.
    EXPECT_EQ(slurp(dir + "/kr1.cealj"), journal)
        << "journal diverged at boundary " << k;
  }
}

TEST_F(ServeKillResumeTest, TornJournalTailsResumeToo) {
  const std::string ref_dir = root_ + "/ref";
  ServerCore reference{options(ref_dir)};
  ASSERT_TRUE(json::Value::parse(reference.handle_line(kCreateLine))
                  .at("ok")
                  .as_bool());
  const std::string ref_csv = finish_and_save(reference, "ref");
  const std::string manifest = slurp(ref_dir + "/kr1.session.json");
  const std::string journal = slurp(ref_dir + "/kr1.cealj");
  const auto boundaries = record_boundaries(journal);
  const std::size_t n = boundaries.size() - 1;
  for (std::size_t k = 1; k + 1 <= n; k += 3) {
    // A SIGKILL mid-append leaves k whole records plus a fragment of
    // record k+1; resume must drop the fragment and continue.
    const std::size_t cut =
        boundaries[k] + (boundaries[k + 1] - boundaries[k]) / 2;
    const std::string dir = root_ + "/torn" + std::to_string(k);
    std::filesystem::create_directories(dir);
    write_raw(dir + "/kr1.session.json", manifest);
    write_raw(dir + "/kr1.cealj", journal.substr(0, cut));
    ServerCore resumed{options(dir)};
    ASSERT_EQ(resumed.resume_sessions(), 1u);
    const std::string csv =
        finish_and_save(resumed, "torn" + std::to_string(k));
    EXPECT_EQ(csv, ref_csv) << "torn tail inside record " << k + 1;
  }
}

TEST_F(ServeKillResumeTest, ResumeRefusesCorruptDurableState) {
  const std::string dir = root_ + "/corrupt";
  std::filesystem::create_directories(dir);
  // Manifest whose id contradicts its filename.
  write_raw(dir + "/other.session.json",
            "{\"id\":\"kr1\",\"workflow\":\"LV\",\"objective\":\"exec\","
            "\"algorithm\":\"CEAL\",\"budget\":10,\"seed\":5,"
            "\"pool_size\":120,\"pool_seed\":31,\"component_samples\":50,"
            "\"history\":false,\"fault_rate\":0.15,\"outlier_rate\":0,"
            "\"deadline\":0,\"max_attempts\":2}");
  {
    ServerCore core{options(dir)};
    EXPECT_THROW(core.resume_sessions(), ProtocolError);
  }
  std::filesystem::remove(dir + "/other.session.json");
  // Unparseable manifest.
  write_raw(dir + "/kr1.session.json", "{\"id\":");
  {
    ServerCore core{options(dir)};
    EXPECT_THROW(core.resume_sessions(), ProtocolError);
  }
}

TEST_F(ServeKillResumeTest, CancelledSessionsAreNotResurrected) {
  const std::string dir = root_ + "/cancel";
  ServerCore core{options(dir)};
  ASSERT_TRUE(json::Value::parse(core.handle_line(kCreateLine))
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(json::Value::parse(
                  core.handle_line("{\"op\":\"session.step\",\"id\":"
                                   "\"kr1\",\"steps\":1}"))
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(json::Value::parse(core.handle_line(
                                     "{\"op\":\"session.cancel\",\"id\":"
                                     "\"kr1\"}"))
                  .at("ok")
                  .as_bool());
  EXPECT_FALSE(std::filesystem::exists(dir + "/kr1.session.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/kr1.cealj"));
  ServerCore restarted{options(dir)};
  EXPECT_EQ(restarted.resume_sessions(), 0u);
}

}  // namespace
}  // namespace ceal::serve
