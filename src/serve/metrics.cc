#include "serve/metrics.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

namespace ceal::serve {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:] with a non-digit start;
// anything else (the '.' in our dotted telemetry names) becomes '_'.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9'))
    out.insert(out.begin(), '_');
  return out;
}

std::string escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Sample values reuse the JSON number lexeme verbatim (byte-stable
// shortest round-trip, exactly what the JSON snapshot carries).
std::string value_text(const json::Value& v) {
  if (v.kind() == json::Value::Kind::kNumber) return v.number_lexeme();
  if (v.kind() == json::Value::Kind::kBool) return v.as_bool() ? "1" : "0";
  throw ProtocolError("prometheus: expected a number sample value");
}

void type_line(std::ostream& os, const std::string& name,
               std::string_view type) {
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

json::Value telemetry_sections_json(const telemetry::Telemetry* telemetry) {
  json::Value counters = json::Value::object();
  json::Value gauges = json::Value::object();
  json::Value histograms = json::Value::object();
  if (telemetry != nullptr) {
    for (const auto& [name, value] : telemetry->counters())
      counters.set(name, json::Value::number(value));
    for (const auto& [name, value] : telemetry->gauges())
      gauges.set(name, json::Value::number(value));
    const std::span<const double> bounds = telemetry::histogram_upper_bounds();
    for (const auto& [name, stats] : telemetry->histograms()) {
      if (stats.count == 0) continue;
      json::Value h = json::Value::object();
      h.set("count", json::Value::number(stats.count));
      h.set("sum", json::Value::number(stats.sum));
      h.set("min", json::Value::number(stats.min));
      h.set("max", json::Value::number(stats.max));
      h.set("p50", json::Value::number(stats.quantile(0.50)));
      h.set("p90", json::Value::number(stats.quantile(0.90)));
      h.set("p99", json::Value::number(stats.quantile(0.99)));
      // Sparse [le, count] pairs, ascending; the overflow bucket's le is
      // the string "+Inf" (matching the Prometheus label it becomes).
      json::Value pairs = json::Value::array();
      for (std::size_t i = 0; i < stats.buckets.size(); ++i) {
        if (stats.buckets[i] == 0) continue;
        json::Value pair = json::Value::array();
        if (i < bounds.size())
          pair.push(json::Value::number(bounds[i]));
        else
          pair.push(json::Value::string("+Inf"));
        pair.push(json::Value::number(stats.buckets[i]));
        pairs.push(std::move(pair));
      }
      h.set("buckets", std::move(pairs));
      histograms.set(name, std::move(h));
    }
  }
  json::Value out = json::Value::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

json::Value strip_wall_clock(const json::Value& metrics) {
  json::Value stripped = json::Value::object();
  for (const auto& [key, value] : metrics.members()) {
    if (key == "timing") continue;
    if (key == "histograms") {
      json::Value kept = json::Value::object();
      for (const auto& [name, hist] : value.members()) {
        if (name.starts_with("timing.")) continue;
        kept.set(name, hist);
      }
      stripped.set(key, std::move(kept));
      continue;
    }
    stripped.set(key, value);
  }
  return stripped;
}

std::string to_prometheus(const json::Value& metrics) {
  std::ostringstream os;

  // --- Server block: request/error totals as counters, the rest as
  // gauges, the per-op breakdown as one labeled family per kind. ---
  if (const json::Value* server = metrics.find("server")) {
    for (const auto& [key, value] : server->members()) {
      if (key == "ops" || key == "ok") continue;
      if (value.kind() != json::Value::Kind::kNumber &&
          value.kind() != json::Value::Kind::kBool)
        continue;
      const std::string base = "ceal_server_" + sanitize(key);
      if (key == "requests" || key == "errors") {
        type_line(os, base + "_total", "counter");
        os << base << "_total " << value_text(value) << '\n';
      } else {
        type_line(os, base, "gauge");
        os << base << ' ' << value_text(value) << '\n';
      }
    }
    if (const json::Value* ops = server->find("ops")) {
      type_line(os, "ceal_serve_op_requests_total", "counter");
      for (const auto& [op, tallies] : ops->members()) {
        os << "ceal_serve_op_requests_total{op=\"" << escape_label(op)
           << "\"} " << value_text(tallies.at("requests")) << '\n';
      }
      type_line(os, "ceal_serve_op_errors_total", "counter");
      for (const auto& [op, tallies] : ops->members()) {
        os << "ceal_serve_op_errors_total{op=\"" << escape_label(op)
           << "\"} " << value_text(tallies.at("errors")) << '\n';
      }
    }
  }

  // --- Telemetry sections. ---
  if (const json::Value* counters = metrics.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      const std::string base = "ceal_" + sanitize(name) + "_total";
      type_line(os, base, "counter");
      os << base << ' ' << value_text(value) << '\n';
    }
  }
  if (const json::Value* gauges = metrics.find("gauges")) {
    for (const auto& [name, value] : gauges->members()) {
      const std::string base = "ceal_" + sanitize(name);
      type_line(os, base, "gauge");
      os << base << ' ' << value_text(value) << '\n';
    }
  }
  if (const json::Value* histograms = metrics.find("histograms")) {
    for (const auto& [name, stats] : histograms->members()) {
      const std::string base = "ceal_" + sanitize(name);
      type_line(os, base, "histogram");
      // Sparse [le, count] pairs become the conventional cumulative
      // buckets; the +Inf bucket is always present and equals _count.
      std::uint64_t cumulative = 0;
      bool saw_inf = false;
      const json::Value& pairs = stats.at("buckets");
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const json::Value& pair = pairs.at(i);
        const json::Value& le = pair.at(std::size_t{0});
        cumulative += static_cast<std::uint64_t>(
            pair.at(std::size_t{1}).as_double());
        std::string le_text;
        if (le.kind() == json::Value::Kind::kString) {
          le_text = le.as_string();
          saw_inf = true;
        } else {
          le_text = le.number_lexeme();
        }
        os << base << "_bucket{le=\"" << le_text << "\"} "
           << json::format_number(cumulative) << '\n';
      }
      if (!saw_inf) {
        os << base << "_bucket{le=\"+Inf\"} "
           << value_text(stats.at("count")) << '\n';
      }
      os << base << "_sum " << value_text(stats.at("sum")) << '\n';
      os << base << "_count " << value_text(stats.at("count")) << '\n';
    }
  }

  // --- Per-session families (labeled by session id). ---
  if (const json::Value* sessions = metrics.find("sessions")) {
    type_line(os, "ceal_sessions", "gauge");
    os << "ceal_sessions " << json::format_number(
        static_cast<std::uint64_t>(sessions->size())) << '\n';
    const auto labeled_family =
        [&](const char* family, const char* field, std::string_view type) {
          bool declared = false;
          for (std::size_t i = 0; i < sessions->size(); ++i) {
            const json::Value& session = sessions->at(i);
            const json::Value* value = session.find(field);
            if (value == nullptr) continue;
            if (!declared) {
              type_line(os, family, type);
              declared = true;
            }
            os << family << "{id=\""
               << escape_label(session.at("id").as_string()) << "\"} "
               << value_text(*value) << '\n';
          }
        };
    labeled_family("ceal_session_budget_used", "budget_used", "gauge");
    labeled_family("ceal_session_budget_remaining", "budget_remaining",
                   "gauge");
    labeled_family("ceal_session_steps", "steps", "gauge");
    labeled_family("ceal_session_age_steps_total", "session_age_steps",
                   "counter");
    labeled_family("ceal_session_best_value", "best_value", "gauge");
    labeled_family("ceal_session_checkpoint_replay_pending",
                   "checkpoint_replay_pending", "gauge");
    labeled_family("ceal_session_recorder_events", "recorder_events",
                   "gauge");
    labeled_family("ceal_session_recorder_dropped_total",
                   "recorder_dropped", "counter");
  }

  // --- Export timestamp (present only in --metrics-export files). ---
  if (const json::Value* timing = metrics.find("timing")) {
    if (const json::Value* ts = timing->find("exported_unix_s")) {
      type_line(os, "ceal_export_timestamp_seconds", "gauge");
      os << "ceal_export_timestamp_seconds " << value_text(*ts) << '\n';
    }
  }

  return os.str();
}

namespace {

[[noreturn]] void bad_line(std::size_t line_no, const std::string& why) {
  throw ProtocolError("prometheus:line " + std::to_string(line_no) + ": " +
                      why);
}

bool name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     c == '_' || c == ':';
  return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

std::string parse_name(std::string_view line, std::size_t& pos,
                       std::size_t line_no) {
  const std::size_t start = pos;
  while (pos < line.size() && name_char(line[pos], pos == start)) ++pos;
  if (pos == start) bad_line(line_no, "expected a metric name");
  return std::string(line.substr(start, pos - start));
}

double parse_value(std::string_view token, std::size_t line_no) {
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty())
    bad_line(line_no, "bad sample value \"" + text + "\"");
  return value;
}

struct Family {
  std::string type;
  // Histogram coherence state.
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  bool has_sum = false;
  bool has_count = false;
  double count_value = 0.0;
};

}  // namespace

std::size_t validate_prometheus(const std::string& text) {
  std::map<std::string, Family> families;
  std::size_t samples = 0;
  std::size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name, type;
      comment >> hash >> keyword;
      if (keyword != "TYPE") continue;  // HELP / free comments: skipped
      if (!(comment >> name >> type))
        bad_line(line_no, "malformed TYPE comment");
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped")
        bad_line(line_no, "unknown metric type \"" + type + "\"");
      auto [it, inserted] = families.emplace(name, Family{});
      if (!inserted)
        bad_line(line_no, "duplicate TYPE for family \"" + name + "\"");
      it->second.type = type;
      continue;
    }

    // Sample line: name[{labels}] value
    std::size_t pos = 0;
    const std::string name = parse_name(line, pos, line_no);
    std::map<std::string, std::string> labels;
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        const std::string label = parse_name(line, pos, line_no);
        if (pos >= line.size() || line[pos] != '=')
          bad_line(line_no, "expected '=' after label name");
        ++pos;
        if (pos >= line.size() || line[pos] != '"')
          bad_line(line_no, "expected '\"' to open a label value");
        ++pos;
        std::string value;
        while (pos < line.size() && line[pos] != '"') {
          if (line[pos] == '\\') {
            ++pos;
            if (pos >= line.size())
              bad_line(line_no, "dangling escape in label value");
            if (line[pos] == 'n')
              value.push_back('\n');
            else
              value.push_back(line[pos]);
          } else {
            value.push_back(line[pos]);
          }
          ++pos;
        }
        if (pos >= line.size()) bad_line(line_no, "unterminated label value");
        ++pos;  // closing quote
        if (!labels.emplace(label, value).second)
          bad_line(line_no, "duplicate label \"" + label + "\"");
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      if (pos >= line.size() || line[pos] != '}')
        bad_line(line_no, "unterminated label set");
      ++pos;
    }
    if (pos >= line.size() || line[pos] != ' ')
      bad_line(line_no, "expected ' ' before the sample value");
    ++pos;
    const std::string_view token = std::string_view(line).substr(pos);
    if (token.find(' ') != std::string_view::npos)
      bad_line(line_no, "trailing content after the sample value");
    const double value = parse_value(token, line_no);
    ++samples;

    // Resolve the declared family this sample belongs to.
    std::string family_name = name;
    std::string role;  // "", "bucket", "sum", "count"
    auto it = families.find(name);
    if (it == families.end()) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string_view sv(suffix);
        if (name.size() > sv.size() && name.ends_with(sv)) {
          const std::string stem = name.substr(0, name.size() - sv.size());
          auto stem_it = families.find(stem);
          if (stem_it != families.end() &&
              stem_it->second.type == "histogram") {
            family_name = stem;
            role = std::string(sv.substr(1));
            it = stem_it;
            break;
          }
        }
      }
    }
    if (it == families.end())
      bad_line(line_no, "sample \"" + name + "\" has no TYPE declaration");
    Family& family = it->second;

    if (family.type == "histogram") {
      if (role.empty())
        bad_line(line_no, "bare sample for histogram family \"" +
                              family_name + "\"");
      if (role == "bucket") {
        auto le_it = labels.find("le");
        if (le_it == labels.end())
          bad_line(line_no, "histogram bucket without an le label");
        const double le = parse_value(le_it->second, line_no);
        if (!family.buckets.empty()) {
          if (le <= family.buckets.back().first)
            bad_line(line_no, "bucket le values must be increasing");
          if (value < family.buckets.back().second)
            bad_line(line_no, "bucket counts must be cumulative");
        }
        family.buckets.emplace_back(le, value);
      } else if (role == "sum") {
        if (family.has_sum) bad_line(line_no, "duplicate _sum sample");
        family.has_sum = true;
      } else {
        if (family.has_count) bad_line(line_no, "duplicate _count sample");
        family.has_count = true;
        family.count_value = value;
      }
    }
  }

  // Histogram family coherence: buckets present, ending in +Inf whose
  // cumulative count equals the _count sample.
  for (const auto& [name, family] : families) {
    if (family.type != "histogram") continue;
    if (family.buckets.empty())
      throw ProtocolError("prometheus: histogram \"" + name +
                          "\" has no buckets");
    if (!family.has_sum || !family.has_count)
      throw ProtocolError("prometheus: histogram \"" + name +
                          "\" is missing _sum or _count");
    const auto& [last_le, last_cum] = family.buckets.back();
    if (!(std::isinf(last_le) && last_le > 0))
      throw ProtocolError("prometheus: histogram \"" + name +
                          "\" does not end in an +Inf bucket");
    if (last_cum != family.count_value)
      throw ProtocolError("prometheus: histogram \"" + name +
                          "\": +Inf bucket != _count");
  }

  return samples;
}

}  // namespace ceal::serve
