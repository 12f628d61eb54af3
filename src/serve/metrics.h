// Metric exposition for the serve layer: the JSON snapshot behind the
// server.metrics op and the daemon's --metrics-export file, plus a
// Prometheus text renderer and a strict validator for it.
//
// Four pieces:
//  * telemetry_sections_json — every counter/gauge/histogram in a
//    Telemetry registry as one JSON object; span `x` is the histogram
//    `timing.x_s`. Histogram entries carry the
//    exact count/sum/min/max, the p50/p90/p99 derived via the shared
//    ceal::histogram_quantile helper (so offline consumers computing
//    quantiles from the bucket array agree byte-for-byte), and the
//    sparse bucket array as [le, count] pairs (overflow le is the
//    string "+Inf").
//  * strip_wall_clock — the deterministic subset of a metrics object,
//    behind `ceal_top --deterministic`.
//  * to_prometheus — renders a server.metrics response (or export
//    snapshot) in Prometheus text exposition format 0.0.4. Names are
//    sanitised and prefixed with "ceal_"; histograms become the
//    conventional cumulative _bucket{le=...}/_sum/_count family.
//  * validate_prometheus — a strict line-oriented parser for the
//    renderer's output, used by the tier-1 gate and `ceal_top
//    --check-prom`. Throws ProtocolError on any malformed line or an
//    incoherent histogram (non-cumulative buckets, +Inf != _count).
#pragma once

#include <cstddef>
#include <string>

#include "core/json.h"
#include "core/telemetry.h"
#include "serve/protocol.h"

namespace ceal::serve {

/// Snapshot of every accumulator in `telemetry` as
/// {"counters":{...},"gauges":{...},"histograms":{...}}, spans included
/// as their `timing.<span>_s` histograms. Null telemetry yields the
/// three sections empty. Histogram values are
/// {"count","sum","min","max","p50","p90","p99","buckets":[[le,n],...]}.
json::Value telemetry_sections_json(const telemetry::Telemetry* telemetry);

/// The deterministic subset of a metrics object (`ceal_top
/// --deterministic`): every wall-clock member is dropped — timing.*
/// histograms (every span's among them) and the export-timestamp
/// "timing" object. What is left is a deterministic function of the
/// request stream (docs/OBSERVABILITY.md).
json::Value strip_wall_clock(const json::Value& metrics);

/// Renders a metrics object (the shape ServerCore::metrics_json
/// returns, or any subset with the same section names) as Prometheus
/// text exposition format. Deterministic: output bytes are a pure
/// function of the input document.
std::string to_prometheus(const json::Value& metrics);

/// Strictly validates Prometheus text exposition output: every
/// non-comment line must parse as `name{labels} value`, every TYPE
/// comment must precede its family, and each histogram family must have
/// cumulative bucket counts ending in an +Inf bucket that equals its
/// _count sample. Returns the number of samples. Throws ProtocolError
/// with a line number on the first violation.
std::size_t validate_prometheus(const std::string& text);

}  // namespace ceal::serve
