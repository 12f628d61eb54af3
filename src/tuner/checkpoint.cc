#include "tuner/checkpoint.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/autotuner.h"
#include "tuner/measured_pool.h"

namespace ceal::tuner {

namespace {

// Doubles are journaled as C99 hex-float strings ("%a"): exact bitwise
// round-trip through text, matching the strict hex-float policy of
// ml/serialize.cc. Unsigned 64-bit words (rng state, fingerprints) are
// "0x..." hex strings — JSON numbers only carry 53 exact bits.

json::Value hex_double(double v) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", v);
  return json::Value::string(buffer);
}

double parse_hex_double(const json::Value& v, const char* what) {
  const std::string& text = v.as_string();
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw CheckpointError(std::string("malformed hex float in journal ") +
                          what + ": '" + text + "'");
  }
  return parsed;
}

json::Value hex_u64(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%llx",
                static_cast<unsigned long long>(v));
  return json::Value::string(buffer);
}

std::uint64_t parse_hex_u64(const json::Value& v, const char* what) {
  const std::string& text = v.as_string();
  if (text.size() < 3 || text[0] != '0' || text[1] != 'x') {
    throw CheckpointError(std::string("malformed hex word in journal ") +
                          what + ": '" + text + "'");
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 16);
  if (*end != '\0') {
    throw CheckpointError(std::string("malformed hex word in journal ") +
                          what + ": '" + text + "'");
  }
  return static_cast<std::uint64_t>(parsed);
}

std::array<std::uint64_t, 4> parse_rng_state(const json::Value& v,
                                             const char* what) {
  if (!v.is_array() || v.size() != 4) {
    throw CheckpointError(std::string("journal ") + what +
                          " is not a 4-word rng state");
  }
  std::array<std::uint64_t, 4> state{};
  for (std::size_t i = 0; i < 4; ++i) {
    state[i] = parse_hex_u64(v.at(i), what);
  }
  return state;
}

sim::RunStatus parse_run_status(const json::Value& v) {
  const std::string& name = v.as_string();
  if (name == "ok") return sim::RunStatus::kOk;
  if (name == "failed") return sim::RunStatus::kFailed;
  if (name == "censored") return sim::RunStatus::kCensored;
  throw CheckpointError("unknown run status in journal: '" + name + "'");
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv1a_double(std::uint64_t hash, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(hash, bits);
}

const std::string& record_kind(const json::Value& record) {
  const json::Value* kind = record.find("kind");
  if (kind == nullptr) {
    throw CheckpointError("journal record is missing its 'kind' member");
  }
  return kind->as_string();
}

json::Value header_json(const CheckpointHeader& header) {
  json::Value out = json::Value::object();
  out.set("kind", json::Value::string("header"));
  out.set("version", json::Value::number(kCheckpointVersion));
  out.set("algorithm", json::Value::string(header.algorithm));
  out.set("workflow", json::Value::string(header.workflow));
  out.set("objective", json::Value::string(header.objective));
  out.set("budget", json::Value::number(
                        static_cast<std::uint64_t>(header.budget_runs)));
  out.set("history", json::Value::boolean(header.history));
  out.set("pool_size", json::Value::number(
                           static_cast<std::uint64_t>(header.pool_size)));
  out.set("pool_fingerprint", hex_u64(header.pool_fingerprint));
  out.set("fail_prob", hex_double(header.fail_prob));
  out.set("outlier_prob", hex_double(header.outlier_prob));
  out.set("outlier_tail", hex_double(header.outlier_tail));
  out.set("deadline_s", hex_double(header.deadline_s));
  out.set("max_attempts", json::Value::number(static_cast<std::uint64_t>(
                              header.max_attempts)));
  out.set("charge_retries", json::Value::boolean(header.charge_retries));
  out.set("rng", rng_state_to_json(header.rng_state));
  return out;
}

json::Value measure_json(const MeasureRecord& record) {
  json::Value out = json::Value::object();
  out.set("kind", json::Value::string("measure"));
  out.set("pool_index", json::Value::number(
                            static_cast<std::uint64_t>(record.pool_index)));
  out.set("status", json::Value::string(sim::run_status_name(record.status)));
  out.set("value", hex_double(record.value));
  out.set("attempts", json::Value::number(
                          static_cast<std::uint64_t>(record.attempts)));
  out.set("budget_used", json::Value::number(static_cast<std::uint64_t>(
                             record.budget_used)));
  out.set("cost_exec_s", hex_double(record.cost_exec_s));
  out.set("cost_comp_ch", hex_double(record.cost_comp_ch));
  out.set("fault_rng", rng_state_to_json(record.fault_rng_state));
  return out;
}

MeasureRecord parse_measure(const json::Value& v) {
  MeasureRecord record;
  record.pool_index =
      static_cast<std::size_t>(v.at("pool_index").as_int());
  record.status = parse_run_status(v.at("status"));
  record.value = parse_hex_double(v.at("value"), "measure value");
  record.attempts = static_cast<std::size_t>(v.at("attempts").as_int());
  record.budget_used =
      static_cast<std::size_t>(v.at("budget_used").as_int());
  record.cost_exec_s =
      parse_hex_double(v.at("cost_exec_s"), "measure cost_exec_s");
  record.cost_comp_ch =
      parse_hex_double(v.at("cost_comp_ch"), "measure cost_comp_ch");
  record.fault_rng_state = parse_rng_state(v.at("fault_rng"), "fault_rng");
  return record;
}

bool file_nonempty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in && in.peek() != std::ifstream::traits_type::eof();
}

}  // namespace

json::Value rng_state_to_json(const std::array<std::uint64_t, 4>& state) {
  json::Value out = json::Value::array();
  for (const std::uint64_t word : state) out.push(hex_u64(word));
  return out;
}

std::uint64_t pool_fingerprint(const MeasuredPool& pool) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  hash = fnv1a(hash, pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (const int v : pool.configs[i]) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(v)));
    }
    hash = fnv1a_double(hash, pool.exec_s[i]);
    hash = fnv1a_double(hash, pool.comp_ch[i]);
  }
  return hash;
}

CheckpointHeader make_checkpoint_header(const TuningProblem& problem,
                                        const AutoTuner& algorithm,
                                        std::size_t budget_runs,
                                        const ceal::Rng& rng) {
  CEAL_EXPECT(problem.workload != nullptr && problem.pool != nullptr);
  CheckpointHeader header;
  header.algorithm = algorithm.name();
  header.workflow = problem.workload->workflow.name();
  header.objective = objective_name(problem.objective);
  header.budget_runs = budget_runs;
  header.history = problem.components_are_history;
  header.pool_size = problem.pool->size();
  header.pool_fingerprint = pool_fingerprint(*problem.pool);
  header.fail_prob = problem.measurement.faults.fail_prob;
  header.outlier_prob = problem.measurement.faults.outlier_prob;
  header.outlier_tail = problem.measurement.faults.outlier_tail;
  header.deadline_s = problem.measurement.faults.deadline_s;
  header.max_attempts = problem.measurement.max_attempts;
  header.charge_retries = problem.measurement.charge_retries;
  header.rng_state = rng.state();
  return header;
}

CheckpointSession::CheckpointSession(std::string journal_path, Mode mode)
    : path_(std::move(journal_path)) {
  if (mode == Mode::kStart) {
    if (file_nonempty(path_)) {
      throw CheckpointError(
          path_ + ": journal already exists — pass --resume to continue "
                  "the session, or point --checkpoint at a fresh directory");
    }
    writer_.emplace(path_, 0);
  } else {
    JournalReadResult loaded = read_journal_file(path_);
    if (loaded.records.empty()) {
      throw CheckpointError(path_ +
                            ": journal is empty — nothing to resume");
    }
    if (loaded.torn_tail) {
      // SIGKILL mid-append leaves a partial final line; drop it on disk
      // so the writer continues from the last durable record.
      truncate_journal_file(path_, loaded.valid_bytes);
    }
    records_ = std::move(loaded.records);
    loaded_records_ = records_.size();
    writer_.emplace(path_, records_.size());
  }
  if (const char* env = std::getenv("CEAL_CRASH_AFTER_RECORDS")) {
    crash_after_records_ = std::strtoull(env, nullptr, 10);
  }
}

std::uint64_t CheckpointSession::appended_records() const {
  return writer_->records() - loaded_records_;
}

void CheckpointSession::mismatch(const std::string& why) const {
  throw CheckpointError(path_ + ":record " + std::to_string(cursor_ + 1) +
                        ": " + why);
}

void CheckpointSession::append(const json::Value& payload) {
  const std::uint64_t bytes_before = writer_->bytes_written();
  {
    telemetry::ScopedSpan span(telemetry_, "checkpoint.flush");
    writer_->append(payload);
  }
  if (telemetry_ != nullptr) {
    telemetry_->count("checkpoint.records");
    telemetry_->count("checkpoint.bytes",
                      writer_->bytes_written() - bytes_before);
  }
  if (crash_after_records_ > 0 &&
      writer_->records() >= crash_after_records_) {
    // Deterministic mid-session kill for the tier-1 kill-resume gate:
    // the record just written is durable (fsynced), then the process
    // dies exactly as a node failure would take it.
    std::raise(SIGKILL);
  }
}

void CheckpointSession::begin_session(const CheckpointHeader& header) {
  CEAL_EXPECT_MSG(!header_done_, "begin_session called twice");
  header_done_ = true;
  const json::Value expected = header_json(header);
  if (!replaying()) {
    append(expected);
    return;
  }
  const json::Value& recorded = records_[cursor_];
  if (record_kind(recorded) != "header") {
    mismatch("first journal record is not a session header");
  }
  const json::Value* version = recorded.find("version");
  if (version == nullptr || version->as_int() != kCheckpointVersion) {
    mismatch("journal version " +
             (version == nullptr ? std::string("<missing>")
                                 : version->number_lexeme()) +
             " does not match supported version " +
             std::to_string(kCheckpointVersion));
  }
  // Field-by-field comparison so configuration skew names the knob.
  for (const auto& [key, value] : expected.members()) {
    const json::Value* got = recorded.find(key);
    if (got == nullptr || got->dump() != value.dump()) {
      mismatch("session '" + key + "' does not match the journal (journal " +
               (got == nullptr ? std::string("<missing>") : got->dump()) +
               ", session " + value.dump() +
               ") — resume must use the exact original configuration");
    }
  }
  for (const auto& [key, value] : recorded.members()) {
    (void)value;
    if (expected.find(key) == nullptr) {
      mismatch("journal header carries unknown member '" + key + "'");
    }
  }
  ++cursor_;
}

bool CheckpointSession::replay_measure(std::size_t pool_index,
                                       MeasureRecord& out) {
  CEAL_EXPECT_MSG(header_done_,
                  "checkpoint session used before begin_session");
  if (!replaying()) return false;
  const json::Value& recorded = records_[cursor_];
  const std::string& kind = record_kind(recorded);
  if (kind != "measure") {
    mismatch("replay requested a measurement but the journal holds a '" +
             kind + "' record — the session diverged from the journal");
  }
  MeasureRecord parsed;
  try {
    parsed = parse_measure(recorded);
  } catch (const CheckpointError&) {
    throw;  // already a one-line error with full context
  } catch (const std::exception& e) {
    mismatch(std::string("malformed measure record: ") + e.what());
  }
  if (parsed.pool_index != pool_index) {
    mismatch("journaled measurement targets pool index " +
             std::to_string(parsed.pool_index) +
             " but the session requested " + std::to_string(pool_index) +
             " — the session diverged from the journal");
  }
  out = parsed;
  ++cursor_;
  ++replayed_runs_;
  if (telemetry_ != nullptr) telemetry_->count("resume.replayed_runs");
  return true;
}

void CheckpointSession::record_measure(const MeasureRecord& record) {
  CEAL_EXPECT_MSG(header_done_,
                  "checkpoint session used before begin_session");
  append(measure_json(record));
}

void CheckpointSession::decision(json::Value payload) {
  CEAL_EXPECT_MSG(header_done_,
                  "checkpoint session used before begin_session");
  CEAL_EXPECT_MSG(payload.is_object() && payload.contains("kind"),
                  "decision payloads must be objects with a 'kind'");
  if (!replaying()) {
    append(payload);
    return;
  }
  const json::Value& recorded = records_[cursor_];
  if (recorded.dump() != payload.dump()) {
    mismatch("journaled '" + record_kind(recorded) +
             "' record does not match the replayed decision (journal " +
             recorded.dump() + ", session " + payload.dump() +
             ") — the session diverged from the journal");
  }
  ++cursor_;
}

void CheckpointSession::finish_session(const TuneResult& result) {
  json::Value payload = json::Value::object();
  payload.set("kind", json::Value::string("finish"));
  payload.set("runs_used", json::Value::number(
                               static_cast<std::uint64_t>(result.runs_used)));
  payload.set("measured",
              json::Value::number(static_cast<std::uint64_t>(
                  result.measured_indices.size())));
  payload.set("failed_runs",
              json::Value::number(
                  static_cast<std::uint64_t>(result.failed_runs)));
  payload.set("best_predicted_index",
              json::Value::number(static_cast<std::uint64_t>(
                  result.best_predicted_index)));
  payload.set("best_measured_index",
              json::Value::number(static_cast<std::uint64_t>(
                  result.best_measured_index)));
  payload.set("cost_exec_s", hex_double(result.cost_exec_s));
  payload.set("cost_comp_ch", hex_double(result.cost_comp_ch));
  decision(std::move(payload));
}

}  // namespace ceal::tuner
