#!/usr/bin/env python3
"""Builds and runs the CEAL end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload suite|history|large-pool|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
ceal_e2e from source into .bench_build/ (RelWithDebInfo, the repository's
default build type); later runs only re-check the build. Journals and the
span trace of a traced run go to .bench_out/.

Every line ceal_e2e prints is passed through; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The
end-to-end metrics come with --trace 0, the per-layer ones with --trace 1.
The exit status is 0 only for a correct run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ceal_e2e")
WORKLOADS = ("suite", "history", "large-pool", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures on first use, then builds ceal_e2e; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ceal_e2e",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ceal_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if not lines:
        fail("ceal_e2e printed nothing (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of ceal_e2e is not JSON: " + lines[-1])

    # The result must describe the run that was asked for.
    if result.get("seed") != args.seed or \
            result.get("workload") != args.workload:
        fail("seed/workload mismatch: asked %s/%d, ceal_e2e reported %s/%s"
             % (args.workload, args.seed, result.get("workload"),
                result.get("seed")))
    correct = result["correct"] is True and done.returncode == 0
    metrics = result["metrics"]
    expected = expected_metrics(args.trace == 1)
    if expected is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != expected:
            print("metric set differs from BENCHMARK.json: missing %s, "
                  "extra %s" % (sorted(set(expected) - set(got)),
                                sorted(set(got) - set(expected))))
            correct = False
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
