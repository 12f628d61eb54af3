// Tiny declarative command-line parser shared by the ceal_* tools.
// Flags are "--name value" or boolean "--name"; unknown flags abort with
// the usage text.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/error.h"

namespace ceal::tools {

class Args {
 public:
  Args(int argc, char** argv, std::string usage)
      : program_(argv[0]), usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  /// Declares a boolean flag; returns true when present.
  bool flag(const std::string& name) {
    declared_.insert(name);
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] == "--" + name) {
        consumed_.insert(i);
        return true;
      }
    }
    return false;
  }

  /// Declares a valued option; returns its value or `fallback`.
  std::string option(const std::string& name, std::string fallback) {
    return value_of(name).value_or(std::move(fallback));
  }

  /// Declares a required valued option; exits with usage when missing.
  std::string required(const std::string& name) {
    auto v = value_of(name);
    if (!v) {
      std::cerr << "missing required --" << name << "\n" << usage_text();
      std::exit(2);
    }
    return *v;
  }

  /// An unsigned 64-bit integer: a count (a size, a budget, a thread or
  /// worker number) or a seed, the range the wire protocol accepts. No
  /// flag is signed, so "-1" exits with one line like any other
  /// malformed value instead of becoming 2^64 - 1.
  std::uint64_t integer(const std::string& name, std::uint64_t fallback) {
    return number<std::uint64_t>(name, fallback, "an integer >= 0");
  }

  double real(const std::string& name, double fallback) {
    return number<double>(name, fallback, "a number");
  }

  /// Returns `build()`; a bad knob or name (PreconditionError) or an
  /// unreadable file (std::runtime_error) exits with one line
  /// "<program>: why" and status 2.
  template <typename F>
  auto or_exit(F&& build) -> decltype(build()) {
    try {
      return build();
    } catch (const PreconditionError& e) {
      exit_with(e);
    } catch (const std::runtime_error& e) {
      exit_with(e);
    }
  }

  /// Call after all declarations: rejects unknown/unconsumed flags and
  /// handles --help.
  void finish() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] == "--help" || tokens_[i] == "-h") {
        std::cout << usage_text();
        std::exit(0);
      }
      if (!consumed_.count(i)) {
        std::cerr << "unknown argument '" << tokens_[i] << "'\n"
                  << usage_text();
        std::exit(2);
      }
    }
  }

  std::string usage_text() const {
    return "usage: " + program_ + " " + usage_ + "\n";
  }

 private:
  [[noreturn]] void exit_with(const std::exception& e) const {
    std::cerr << program_.substr(program_.rfind('/') + 1) << ": "
              << e.what() << "\n";
    std::exit(2);
  }

  template <typename T>
  T number(const std::string& name, T fallback, const char* expected) {
    const auto v = value_of(name);
    if (!v) return fallback;
    T parsed{};
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, parsed);
    if (ec != std::errc() || ptr != end) {
      std::cerr << "--" << name << " expects " << expected << ", got '"
                << *v << "'\n";
      std::exit(2);
    }
    return parsed;
  }

  std::optional<std::string> value_of(const std::string& name) {
    declared_.insert(name);
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i] == "--" + name) {
        consumed_.insert(i);
        consumed_.insert(i + 1);
        return tokens_[i + 1];
      }
    }
    return std::nullopt;
  }

  std::string program_;
  std::string usage_;
  std::vector<std::string> tokens_;
  std::set<std::size_t> consumed_;
  std::set<std::string> declared_;
};

}  // namespace ceal::tools
