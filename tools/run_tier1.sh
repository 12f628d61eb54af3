#!/usr/bin/env bash
# Tier-1 verification: every test labelled tier1 (unit, system, and
# example smoke tests — see tests/CMakeLists.txt), trace determinism
# gates (serial and 4-thread pooled), the micro benches + ceal_report
# regression gate against .ceal-bench/baseline, then the same tier1
# label set rebuilt and rerun under AddressSanitizer and
# UndefinedBehaviorSanitizer (CEAL_SANITIZE, see the root
# CMakeLists.txt). Sanitizer builds go to build-address/ and
# build-undefined/ so they never disturb the primary build/ tree.
# Slow stress sweeps carry the `slow` label instead and are not part of
# tier 1; run them with `ctest --test-dir build -L slow`.
#
# Usage: tools/run_tier1.sh [--skip-sanitizers] [--with-tsan]
#   --skip-sanitizers  stop after the plain build stages
#   --with-tsan        additionally rebuild with CEAL_SANITIZE=thread and
#                      run the concurrency-sensitive tier1 tests under it
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
skip_san=0
with_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) skip_san=1 ;;
    --with-tsan) with_tsan=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: plain build + ctest -L tier1 =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs" -L tier1

echo "== tier-1: trace determinism gate =="
# Two seeded runs at the fig5 configuration must (a) print the same
# report whether or not tracing is on, and (b) produce traces that are
# byte-identical once `timing` is stripped (docs/OBSERVABILITY.md).
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
fig5_args=(--workflow LV --objective exec --budget 50 --pool-seed 20211114
           --seed 42)
./build/tools/ceal_tune "${fig5_args[@]}" > "$trace_dir/plain.txt"
./build/tools/ceal_tune "${fig5_args[@]}" \
  --trace "$trace_dir/a.jsonl" > "$trace_dir/traced.txt"
./build/tools/ceal_tune "${fig5_args[@]}" \
  --trace "$trace_dir/b.jsonl" > /dev/null
diff "$trace_dir/plain.txt" "$trace_dir/traced.txt" \
  || { echo "tracing changed ceal_tune stdout"; exit 1; }
./build/tools/ceal_trace --input "$trace_dir/a.jsonl" \
  --check-determinism "$trace_dir/b.jsonl"

echo "== tier-1: pooled-replication determinism gate =="
# A 4-thread evaluation must produce the same stripped trace as the
# serial path (per-replication child telemetry, merged in order).
rep_args=(--workflow LV --objective exec --budget 25 --pool-size 400
          --pool-seed 21 --component-samples 120 --seed 7 --replications 4
          --quiet)
./build/tools/ceal_tune "${rep_args[@]}" --trace "$trace_dir/serial.jsonl"
./build/tools/ceal_tune "${rep_args[@]}" --threads 4 \
  --trace "$trace_dir/pooled.jsonl"
./build/tools/ceal_trace --input "$trace_dir/serial.jsonl" \
  --check-determinism "$trace_dir/pooled.jsonl"

echo "== tier-1: kill-resume determinism gate =="
# Crash-safety end to end (docs/RELIABILITY.md): a checkpointed
# ceal_tune SIGKILLed mid-session (CEAL_CRASH_AFTER_RECORDS makes the
# session kill itself right after the Nth journal record is durable)
# and then resumed must print byte-identical stdout and write a
# byte-identical hex-exact result CSV to an uninterrupted run.
kill_args=(--workflow LV --objective exec --budget 20 --pool-size 300
           --pool-seed 31 --component-samples 100 --seed 5
           --fault-rate 0.15 --max-attempts 2)
./build/tools/ceal_tune "${kill_args[@]}" \
  --save-result "$trace_dir/uninterrupted.csv" \
  > "$trace_dir/uninterrupted.txt"
rc=0
CEAL_CRASH_AFTER_RECORDS=12 ./build/tools/ceal_tune "${kill_args[@]}" \
  --checkpoint "$trace_dir/ckpt" > "$trace_dir/killed.txt" 2>/dev/null || rc=$?
if [[ "$rc" -ne 137 ]]; then
  echo "expected the checkpointed session to die with SIGKILL (137), got $rc"
  exit 1
fi
./build/tools/ceal_tune "${kill_args[@]}" --checkpoint "$trace_dir/ckpt" \
  --resume --save-result "$trace_dir/resumed.csv" \
  > "$trace_dir/resumed.txt" 2> "$trace_dir/resume_info.txt"
diff "$trace_dir/uninterrupted.txt" "$trace_dir/resumed.txt" \
  || { echo "kill+resume changed ceal_tune stdout"; exit 1; }
diff "$trace_dir/uninterrupted.csv" "$trace_dir/resumed.csv" \
  || { echo "kill+resume changed the tuning result"; exit 1; }
grep -q "measurements replayed" "$trace_dir/resume_info.txt" \
  || { echo "resume did not report replayed measurements"; exit 1; }
# Torn tail: chop the journal mid-record (as a kill mid-append would)
# and resume again — the fragment must be dropped, not rejected.
journal="$trace_dir/ckpt/journal.cealj"
full_size=$(wc -c < "$journal")
truncate -s "$((full_size - 7))" "$journal"
./build/tools/ceal_tune "${kill_args[@]}" --checkpoint "$trace_dir/ckpt" \
  --resume --save-result "$trace_dir/torn.csv" \
  > "$trace_dir/torn.txt" 2>/dev/null
diff "$trace_dir/uninterrupted.csv" "$trace_dir/torn.csv" \
  || { echo "torn-tail resume changed the tuning result"; exit 1; }

echo "== tier-1: worker-chaos measurement-plane gate =="
# Distributed measurement plane (docs/RELIABILITY.md "Distributed
# measurement plane"): the same faulty session as above dispatched to
# subprocess workers — with one worker SIGKILLing itself every 2 runs
# and another hanging (forcing hedges and hang kills) — must print
# byte-identical stdout and write a byte-identical result CSV to the
# uninterrupted in-process run. A third run with an unspawnable worker
# binary must degrade gracefully to in-process execution, again with
# identical bytes.
CEAL_WORKER_CRASH_AFTER="0:2" CEAL_WORKER_HANG_AFTER="1:3" \
  ./build/tools/ceal_tune "${kill_args[@]}" \
    --measure-backend subprocess --workers 3 \
    --hedge-after-s 0.05 --hang-after-s 0.5 \
    --save-result "$trace_dir/chaos.csv" > "$trace_dir/chaos.txt"
diff "$trace_dir/uninterrupted.txt" "$trace_dir/chaos.txt" \
  || { echo "worker chaos changed ceal_tune stdout"; exit 1; }
diff "$trace_dir/uninterrupted.csv" "$trace_dir/chaos.csv" \
  || { echo "worker chaos changed the tuning result"; exit 1; }
./build/tools/ceal_tune "${kill_args[@]}" \
  --measure-backend subprocess --worker-bin /bin/false --degrade-after 2 \
  --save-result "$trace_dir/degraded.csv" > "$trace_dir/degraded.txt"
diff "$trace_dir/uninterrupted.txt" "$trace_dir/degraded.txt" \
  || { echo "degraded measurement plane changed ceal_tune stdout"; exit 1; }
diff "$trace_dir/uninterrupted.csv" "$trace_dir/degraded.csv" \
  || { echo "degraded measurement plane changed the tuning result"; exit 1; }

echo "== tier-1: serve kill-resume determinism gate =="
# The daemon version of the same contract (docs/SERVING.md): a
# ceal_serve session journaling to --checkpoint, SIGKILLed after the
# 12th durable journal record, restarted with --resume and stepped to
# completion must save a result CSV byte-identical to the solo
# ceal_tune run above (the session.create mirrors kill_args exactly).
serve_dir="$trace_dir/serve"
mkdir -p "$serve_dir"
serve_create='{"op":"session.create","id":"gate","workflow":"LV",'
serve_create+='"objective":"exec","budget":20,"algorithm":"CEAL","seed":5,'
serve_create+='"pool_size":300,"pool_seed":31,"component_samples":100,'
serve_create+='"fault_rate":0.15,"max_attempts":2}'
rc=0
printf '%s\n{"op":"session.step","id":"gate","steps":1000}\n' "$serve_create" \
  | CEAL_CRASH_AFTER_RECORDS=12 ./build/tools/ceal_serve \
      --checkpoint "$serve_dir" >/dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 137 ]]; then
  echo "expected ceal_serve to die with SIGKILL (137), got $rc"
  exit 1
fi
printf '{"op":"session.step","id":"gate","steps":1000}\n{"op":"session.query","id":"gate","save_result":"%s"}\n' \
    "$serve_dir/served.csv" \
  | ./build/tools/ceal_serve --checkpoint "$serve_dir" --resume \
      > "$serve_dir/responses.txt" 2> "$serve_dir/resume_info.txt"
grep -q "resumed 1 session(s)" "$serve_dir/resume_info.txt" \
  || { echo "ceal_serve --resume did not rebuild the killed session"; exit 1; }
grep -q '"ok":false' "$serve_dir/responses.txt" \
  && { echo "ceal_serve answered an error after resume"; exit 1; }
diff "$trace_dir/uninterrupted.csv" "$serve_dir/served.csv" \
  || { echo "daemon kill+resume changed the tuning result"; exit 1; }

echo "== tier-1: metrics exposition gate =="
# Observability plane (docs/OBSERVABILITY.md): the same request script
# through a daemon at --threads 1 and 4 with --metrics-export must
# produce (a) a Prometheus exposition that passes ceal_top's strict
# validator and (b) a deterministic metric subset (ceal_top --once
# --csv --deterministic: no spans, no timing.* histograms, no export
# timestamp) that is byte-identical across thread counts. Then a live
# socket daemon is scraped with ceal_top --once (the server.metrics op
# end to end) and SIGTERM-drained: it must exit 0 and leave a final
# valid snapshot pair behind.
metrics_dir="$trace_dir/metrics"
mkdir -p "$metrics_dir"
metrics_script() {
  printf '{"op":"session.create","id":"mg1","workflow":"LV","objective":"exec","budget":20,"algorithm":"CEAL","seed":5,"pool_size":200,"component_samples":80}\n'
  printf '{"op":"session.create","id":"mg2","workflow":"HS","objective":"comp","budget":12,"algorithm":"RS","seed":9,"pool_size":150,"component_samples":60}\n'
  printf '{"op":"session.step","id":"mg1","steps":3}\n'
  printf '{"op":"session.step","id":"mg2","steps":2}\n'
  printf '{"op":"session.cancel","id":"mg2"}\n'
  printf '{"op":"session.cancel","id":"mg2"}\n'  # double cancel: a per-op error
  printf '{"op":"server.metrics"}\n'
  printf '{"op":"session.step","id":"mg1","steps":100}\n'
  printf '{"op":"server.stats"}\n'
}
for t in 1 4; do
  metrics_script | ./build/tools/ceal_serve --threads "$t" \
    --metrics-export "$metrics_dir/t$t.json" --metrics-interval 600 \
    > "$metrics_dir/t$t.responses" 2>/dev/null
  ./build/tools/ceal_top --check-prom "$metrics_dir/t$t.json.prom" \
    > /dev/null
  ./build/tools/ceal_top --once --csv --deterministic \
    --file "$metrics_dir/t$t.json" > "$metrics_dir/t$t.det.csv"
done
# Response streams stay byte-identical across thread counts except the
# server.metrics response, which is documented to carry wall clocks
# (its "spans" member marks it) — the deterministic subset of that one
# is covered by the ceal_top CSV diff below instead.
diff <(grep -v '"spans"' "$metrics_dir/t1.responses") \
     <(grep -v '"spans"' "$metrics_dir/t4.responses") \
  || { echo "serve responses differ across thread counts"; exit 1; }
diff "$metrics_dir/t1.det.csv" "$metrics_dir/t4.det.csv" \
  || { echo "deterministic metric subset differs across thread counts"; exit 1; }
# The script double-cancels a drained session: exactly those two cancel
# requests (and nothing else) must answer errors.
[[ "$(grep -c '"ok":false' "$metrics_dir/t1.responses")" -eq 2 ]] \
  || { echo "metrics gate script answered unexpected errors"; exit 1; }
sock="$metrics_dir/live.sock"
./build/tools/ceal_serve --socket "$sock" \
  --metrics-export "$metrics_dir/live.json" --metrics-interval 600 \
  2> "$metrics_dir/live.log" &
serve_pid=$!
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.05; done
[[ -S "$sock" ]] || { echo "ceal_serve did not open its socket"; exit 1; }
./build/tools/ceal_top --socket "$sock" --once > "$metrics_dir/top.txt"
grep -q "ceal_serve:" "$metrics_dir/top.txt" \
  || { echo "ceal_top --once rendered no dashboard"; exit 1; }
kill -TERM "$serve_pid"
rc=0; wait "$serve_pid" || rc=$?
[[ "$rc" -eq 0 ]] \
  || { echo "ceal_serve did not drain cleanly on SIGTERM (rc=$rc)"; exit 1; }
./build/tools/ceal_top --check-prom "$metrics_dir/live.json.prom" >/dev/null

echo "== tier-1: chrome trace export gate =="
# Causal spans (docs/OBSERVABILITY.md "Causal spans & the flight
# recorder"): a seeded two-session daemon run with --trace-dir must
# (a) leave per-session Chrome timelines on drain that pass the strict
# ceal_trace --check-chrome validator, (b) produce per-session trace
# JSONL whose stripped span tree is byte-identical across --threads 1
# and 4, and (c) produce --strip-ts Chrome exports that are
# byte-identical across thread counts (ids and tree shape are a pure
# function of the session seed, never of scheduling).
chrome_dir="$trace_dir/chrome"
chrome_script() {
  printf '{"op":"session.create","id":"cg1","workflow":"LV","objective":"exec","budget":12,"algorithm":"CEAL","seed":11,"pool_size":200,"component_samples":80}\n'
  printf '{"op":"session.create","id":"cg2","workflow":"HS","objective":"comp","budget":8,"algorithm":"RS","seed":13,"pool_size":150,"component_samples":60}\n'
  printf '{"op":"session.step","id":"cg1","steps":6}\n'
  printf '{"op":"session.step","id":"cg2","steps":4}\n'
  printf '{"op":"session.step","id":"cg1","steps":100}\n'
  printf '{"op":"session.step","id":"cg2","steps":100}\n'
  printf '{"op":"server.stats"}\n'
}
for t in 1 4; do
  d="$chrome_dir/t$t"
  mkdir -p "$d"
  chrome_script | ./build/tools/ceal_serve --threads "$t" \
    --trace-dir "$d" > "$d/responses.txt" 2> "$d/drain.log"
  for id in cg1 cg2; do
    [[ -s "$d/$id.chrome.json" ]] \
      || { echo "drain left no chrome export for $id (threads $t)"; exit 1; }
    ./build/tools/ceal_trace --check-chrome "$d/$id.chrome.json" >/dev/null
    ./build/tools/ceal_trace --input "$d/$id.trace.jsonl" \
      --chrome "$d/$id.strip.json" --strip-ts >/dev/null
  done
done
for id in cg1 cg2; do
  ./build/tools/ceal_trace --input "$chrome_dir/t1/$id.trace.jsonl" \
    --check-determinism "$chrome_dir/t4/$id.trace.jsonl"
  diff "$chrome_dir/t1/$id.strip.json" "$chrome_dir/t4/$id.strip.json" \
    || { echo "strip-ts chrome export differs across thread counts ($id)"; exit 1; }
done

echo "== tier-1: flight-recorder crash-dump gate =="
# Crash forensics (docs/SERVING.md "server.dump and the crash-forensics
# flight recorder"): a daemon with an armed flight recorder that
# SIGSEGVs mid-step (CEAL_CRASH_SIGSEGV_AFTER raises on the Nth emit)
# must die with 139 and leave a parseable flight dump whose ring still
# contains the last event the per-session trace sink flushed to disk.
crash_dir="$trace_dir/crashdump"
mkdir -p "$crash_dir"
crash_script() {
  printf '{"op":"session.create","id":"fr1","workflow":"LV","objective":"exec","budget":20,"algorithm":"CEAL","seed":17,"pool_size":200,"component_samples":80}\n'
  for _ in $(seq 12); do
    printf '{"op":"session.step","id":"fr1","steps":1}\n'
  done
}
rc=0
crash_script | CEAL_CRASH_SIGSEGV_AFTER=80 ./build/tools/ceal_serve \
  --trace-dir "$crash_dir" --flight-recorder 512 \
  --flight-dump "$crash_dir/flight.jsonl" >/dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 139 ]]; then
  echo "expected ceal_serve to die with SIGSEGV (139), got $rc"
  exit 1
fi
[[ -s "$crash_dir/flight.jsonl" ]] \
  || { echo "crash handler left no flight dump"; exit 1; }
grep -q '"event":"flight.recorder"' "$crash_dir/flight.jsonl" \
  || { echo "flight dump carries no recorder header"; exit 1; }
grep -q '"label":"session:fr1"' "$crash_dir/flight.jsonl" \
  || { echo "flight dump is missing the session ring"; exit 1; }
# Every line of the dump must be a standalone JSON object (the trace
# reader doubles as the parser here).
./build/tools/ceal_trace --input "$crash_dir/flight.jsonl" >/dev/null \
  || { echo "flight dump is not parseable JSONL"; exit 1; }
last_flushed="$(tail -n 1 "$crash_dir/fr1.trace.jsonl")"
[[ -n "$last_flushed" ]] \
  || { echo "crashed session flushed no trace lines"; exit 1; }
grep -qF -- "$last_flushed" "$crash_dir/flight.jsonl" \
  || { echo "flight dump lost the last flushed trace event"; exit 1; }

echo "== tier-1: micro benches + ceal_report regression gate =="
# Cheap micro benches write BENCH_*.json (with the common metadata
# header) into .ceal-bench/current alongside the fig5 trace; ceal_report
# summarises and — when .ceal-bench/baseline exists from an earlier pass
# — gates span totals, bench times, and the custom counters
# (configs/sec, recall_at_64, peak RSS) against it. The pool-scale
# sweep is capped at 16k configs here (CEAL_POOL_SCALE_MAX) so the
# stage stays seconds, not minutes; a full 1M-row validation run is a
# manual `bench_pool_scale` invocation (docs/PERFORMANCE.md). Wall clocks on a
# loaded single-core box are noisy, so the bench gate uses repetition
# medians and generous tolerances; the deterministic counters in the
# trace metrics are what regressions usually show up in first.
bench_dir=".ceal-bench"
rm -rf "$bench_dir/current"
mkdir -p "$bench_dir/current"
export CEAL_TELEMETRY_OVERHEAD_TOL="${CEAL_TELEMETRY_OVERHEAD_TOL:-0.15}"
(cd "$bench_dir/current" \
  && ../../build/bench/bench_micro_ml --benchmark_min_time=0.05 \
       --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
       > bench_micro_ml.log \
  && ../../build/bench/bench_micro_telemetry --benchmark_min_time=0.05 \
       --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
       > bench_micro_telemetry.log \
  && CEAL_POOL_SCALE_MAX="${CEAL_POOL_SCALE_MAX:-16384}" \
     ../../build/bench/bench_pool_scale --benchmark_min_time=0.05 \
       --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
       > bench_pool_scale.log \
  && ../../build/bench/bench_serve_load --benchmark_min_time=0.05 \
       --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
       > bench_serve_load.log \
  && ../../build/bench/bench_measure_plane --benchmark_min_time=0.02 \
       --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
       > bench_measure_plane.log)
cp "$trace_dir/a.jsonl" "$bench_dir/current/fig5_trace.jsonl"
if [[ -d "$bench_dir/baseline" ]]; then
  ./build/tools/ceal_report --current "$bench_dir/current" \
    --baseline "$bench_dir/baseline" --tolerance 0.5
else
  ./build/tools/ceal_report --current "$bench_dir/current"
  echo "(no $bench_dir/baseline yet — summary only)"
fi
# Self-check: identical inputs must pass, a degraded fixture must not.
./build/tools/ceal_report --current "$bench_dir/current" \
  --baseline "$bench_dir/current" > /dev/null
printf '{"event":"telemetry.summary","seq":0,"x.count":2,"timing":{"x.total_s":1.0}}\n' \
  > "$trace_dir/gate_base.jsonl"
printf '{"event":"telemetry.summary","seq":0,"x.count":2,"timing":{"x.total_s":9.0}}\n' \
  > "$trace_dir/gate_cur.jsonl"
if ./build/tools/ceal_report --current "$trace_dir/gate_cur.jsonl" \
     --baseline "$trace_dir/gate_base.jsonl" --tolerance 0.5 > /dev/null; then
  echo "ceal_report failed to flag a degraded span fixture"; exit 1
fi
# Rotate: this pass becomes the next pass's baseline.
rm -rf "$bench_dir/baseline"
cp -r "$bench_dir/current" "$bench_dir/baseline"

if [[ "$skip_san" == 1 ]]; then
  echo "tier-1 OK (sanitizer stages skipped)"
  exit 0
fi

for san in address undefined; do
  echo "== tier-1: tier1 label set under ${san} sanitizer =="
  dir="build-${san}"
  cmake -B "$dir" -S . -DCEAL_SANITIZE="$san" >/dev/null
  cmake --build "$dir" -j "$jobs" --target unit_tests system_tests \
    serve_tests measure_tests ceal_worker ceal_tune quickstart component_models \
    miniapp_demo custom_workflow md_insitu
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L tier1
done

if [[ "$with_tsan" == 1 ]]; then
  echo "== tier-1: concurrency telemetry tests under ThreadSanitizer =="
  dir="build-thread"
  cmake -B "$dir" -S . -DCEAL_SANITIZE=thread >/dev/null
  cmake --build "$dir" -j "$jobs" --target unit_tests system_tests \
    serve_tests measure_tests ceal_worker
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L tier1 \
    -R 'Telemetry|ThreadPool|Trace|Parallel|Quantized|ThreadCountDeterminism|Compiled|PoolScorer|Serve|Measure'
fi

echo "tier-1 OK (plain + asan + ubsan$([[ "$with_tsan" == 1 ]] && echo ' + tsan'))"
