// CheckpointSession semantics: journaling leaves results untouched,
// resume validates the header field-by-field (version and configuration
// skew are loud one-line errors), replay divergence and journal
// tampering are detected, and the checkpoint telemetry counters fire.
#include "tuner/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/journal.h"
#include "core/telemetry.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"

namespace ceal::tuner {
namespace {

struct Env {
  sim::Workload wl = sim::make_lv();
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;

  Env()
      : pool(measure_pool(wl.workflow, 150, 71)),
        comps(measure_components(wl.workflow, 60, 72)) {}

  TuningProblem problem(double fail_prob = 0.15) const {
    TuningProblem prob{&wl, Objective::kExecTime, &pool, &comps, false, {}};
    prob.measurement.faults.fail_prob = fail_prob;
    prob.measurement.max_attempts = 2;
    return prob;
  }
};

const Env& env() {
  static Env e;
  return e;
}

void expect_same_result(const TuneResult& a, const TuneResult& b) {
  EXPECT_EQ(a.measured_indices, b.measured_indices);
  EXPECT_EQ(a.measured_statuses, b.measured_statuses);
  EXPECT_EQ(a.failed_runs, b.failed_runs);
  EXPECT_EQ(a.best_predicted_index, b.best_predicted_index);
  EXPECT_EQ(a.best_measured_index, b.best_measured_index);
  EXPECT_EQ(a.runs_used, b.runs_used);
  EXPECT_EQ(a.cost_exec_s, b.cost_exec_s);
  EXPECT_EQ(a.cost_comp_ch, b.cost_comp_ch);
  ASSERT_EQ(a.model_scores.size(), b.model_scores.size());
  for (std::size_t i = 0; i < a.model_scores.size(); ++i) {
    ASSERT_EQ(a.model_scores[i], b.model_scores[i]) << "score " << i;
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : path_(::testing::TempDir() + "ceal_checkpoint_test." +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".cealj") {
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// One complete checkpointed CEAL session into path_.
  TuneResult run_session(std::uint64_t seed = 9, std::size_t budget = 14) {
    CheckpointSession session(path_, CheckpointSession::Mode::kStart);
    Rng rng(seed);
    return Ceal().tune(env().problem(), budget, rng, &session);
  }

  /// Rewrites path_ with the given records (used to tamper with one).
  void rewrite_journal(const std::vector<json::Value>& records) {
    std::remove(path_.c_str());
    JournalWriter writer(path_);
    for (const auto& record : records) writer.append(record);
  }

  std::string path_;
};

TEST_F(CheckpointTest, JournalingDoesNotChangeTheResult) {
  const TuneResult checkpointed = run_session();
  Rng rng(9);
  const TuneResult plain = Ceal().tune(env().problem(), 14, rng);
  expect_same_result(checkpointed, plain);
  const auto journal = read_journal_file(path_);
  EXPECT_GT(journal.records.size(), 3u);
  EXPECT_FALSE(journal.torn_tail);
  // First record is the header, last is the finish summary.
  EXPECT_EQ(journal.records.front().at("kind").as_string(), "header");
  EXPECT_EQ(journal.records.back().at("kind").as_string(), "finish");
}

TEST_F(CheckpointTest, ResumingACompleteJournalReplaysEverything) {
  const TuneResult original = run_session();
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(9);
  const TuneResult resumed = Ceal().tune(env().problem(), 14, rng, &session);
  expect_same_result(resumed, original);
  EXPECT_GT(session.replayed_runs(), 0u);
  EXPECT_EQ(session.appended_records(), 0u);
}

TEST_F(CheckpointTest, StartRefusesAnExistingJournal) {
  run_session();
  try {
    CheckpointSession session(path_, CheckpointSession::Mode::kStart);
    FAIL() << "kStart accepted a non-empty journal";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, ResumeRequiresANonEmptyJournal) {
  // Missing journal: the reader's open failure.
  EXPECT_THROW(CheckpointSession(path_, CheckpointSession::Mode::kResume),
               JournalError);
  // Present but empty: nothing to resume.
  { std::ofstream touch(path_); }
  EXPECT_THROW(CheckpointSession(path_, CheckpointSession::Mode::kResume),
               CheckpointError);
}

TEST_F(CheckpointTest, BudgetSkewNamesTheKnob) {
  run_session(9, 14);
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(9);
  try {
    Ceal().tune(env().problem(), 15, rng, &session);  // budget 15 != 14
    FAIL() << "budget skew accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("'budget'"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, SeedSkewIsRejectedViaTheRngState) {
  run_session(9);
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(10);  // different seed -> different entry rng state
  try {
    Ceal().tune(env().problem(), 14, rng, &session);
    FAIL() << "seed skew accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("'rng'"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, MeasurementPolicySkewIsRejected) {
  run_session();
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(9);
  TuningProblem skewed = env().problem(0.25);  // fail_prob 0.25 != 0.15
  try {
    Ceal().tune(skewed, 14, rng, &session);
    FAIL() << "fault-policy skew accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("'fail_prob'"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, VersionSkewIsRejected) {
  run_session();
  auto records = read_journal_file(path_).records;
  records[0].set("version", json::Value::number(std::uint64_t{999}));
  rewrite_journal(records);
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(9);
  try {
    Ceal().tune(env().problem(), 14, rng, &session);
    FAIL() << "version skew accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("999"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, TamperedDecisionRecordIsDetected) {
  run_session();
  auto records = read_journal_file(path_).records;
  // Find a journaled batch selection and corrupt its want_ok.
  bool tampered = false;
  for (auto& record : records) {
    if (record.at("kind").as_string() == "batch") {
      record.set("want_ok", json::Value::number(std::uint64_t{12345}));
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "no batch record in the journal";
  rewrite_journal(records);
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(9);
  try {
    Ceal().tune(env().problem(), 14, rng, &session);
    FAIL() << "tampered decision record accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, TamperedMeasureTargetIsDetected) {
  run_session();
  auto records = read_journal_file(path_).records;
  bool tampered = false;
  for (auto& record : records) {
    if (record.at("kind").as_string() == "measure") {
      const auto idx =
          static_cast<std::uint64_t>(record.at("pool_index").as_int());
      record.set("pool_index", json::Value::number(idx + 1));
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "no measure record in the journal";
  rewrite_journal(records);
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  Rng rng(9);
  EXPECT_THROW(Ceal().tune(env().problem(), 14, rng, &session),
               CheckpointError);
}

TEST_F(CheckpointTest, CheckpointTelemetryCountersFire) {
  telemetry::Telemetry telemetry(nullptr);
  {
    CheckpointSession session(path_, CheckpointSession::Mode::kStart);
    TuningProblem prob = env().problem();
    prob.telemetry = &telemetry;
    Rng rng(9);
    Ceal().tune(prob, 14, rng, &session);
    EXPECT_EQ(telemetry.counter("checkpoint.records"),
              session.appended_records());
  }
  EXPECT_GT(telemetry.counter("checkpoint.records"), 3u);
  EXPECT_GT(telemetry.counter("checkpoint.bytes"), 100u);
  EXPECT_EQ(telemetry.counter("resume.replayed_runs"), 0u);

  telemetry::Telemetry resumed_telemetry(nullptr);
  CheckpointSession session(path_, CheckpointSession::Mode::kResume);
  TuningProblem prob = env().problem();
  prob.telemetry = &resumed_telemetry;
  Rng rng(9);
  Ceal().tune(prob, 14, rng, &session);
  EXPECT_GT(resumed_telemetry.counter("resume.replayed_runs"), 0u);
  EXPECT_EQ(resumed_telemetry.counter("resume.replayed_runs"),
            session.replayed_runs());
}

}  // namespace
}  // namespace ceal::tuner
