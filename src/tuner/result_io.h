// Exact (hex-float) TuneResult artifacts, shared by `ceal_tune
// --save-result` and the serving daemon's `session.query` op: two
// sessions produced identical TuneResults iff their result CSVs are
// byte-identical, which is how the kill-resume gates and the serve
// session-matrix tests compare runs across process boundaries.
#pragma once

#include <string>

#include "tuner/autotuner.h"
#include "tuner/session_spec.h"

namespace ceal::tuner {

/// C99 hex-float ("%a"): exact bitwise round-trip through text.
std::string hex_double(double v);

/// Writes the result CSV (atomic replace, doubles as hex floats),
/// headed by the identity of the session `spec` it came from.
void save_result_csv(const std::string& path, const TuneResult& result,
                     const SessionSpec& spec);

}  // namespace ceal::tuner
