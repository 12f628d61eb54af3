#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and summarises the spread.

    python3 perfbench/compare.py [--runs 10] [--workloads suite,serve]
        [--first-seed 1] [--trace] [--reference perfbench/reference.json]
        [--write perfbench/reference.json]

For each workload it runs perfbench/run.py once per seed (seeds
first-seed .. first-seed+runs-1, run_seconds from BENCHMARK.json) and
prints, per metric, the median, the quartiles and the spread: the
distance between the quartiles as a share of the median. A spread above
the metric's bound is marked SPREAD. With --reference it also prints how
far each median moved from the committed reference, marked WORSE when it
moved the wrong way by more than the bound. With --write it stores the
medians and quartiles under a host header (nproc, CPU, build type,
compiler, git describe). Run it from the root of a checkout.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    banner = next((l for l in lines if l.startswith("ceal_e2e ")), "")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr + done.stdout)
        sys.exit("compare.py: %s seed %d failed (exit %d)"
                 % (workload, seed, done.returncode))
    return json.loads(lines[-1]), banner


def host_header(banner):
    fields = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', banner))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True).stdout.strip() or "unknown"
    except OSError:
        describe = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "machine": platform.machine(),
            "build_type": fields.get("build", "unknown"),
            "compiler": fields.get("compiler", "unknown").strip('"'),
            "git_describe": describe}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="summarise the per-layer metrics instead")
    parser.add_argument("--reference")
    parser.add_argument("--write")
    args = parser.parse_args()

    spec = load_spec()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    reference = None
    if args.reference:
        with open(args.reference) as f:
            reference = json.load(f)["workloads"]

    out = {}
    banner = ""
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, banner = run_once(workload, seed, spec["run_seconds"],
                                      args.trace)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        out[workload] = {}
        print("== %s (%d runs)" % (workload, args.runs))
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
                else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else 0.0
            out[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                        "unit": m["unit"]}
            bound = m.get("bound")
            line = "%-28s %14.6g %-6s spread %6.3f" % (
                m["name"], med, m["unit"], spread)
            if bound is not None:
                line += " bound %.2f%s" % (
                    bound, "  SPREAD" if spread > bound else "")
            if reference and m["name"] in reference.get(workload, {}):
                ref = reference[workload][m["name"]]["median"]
                if ref:
                    moved = med / ref - 1.0
                    worse = -moved if m["better"] == "higher" else moved
                    line += "  vs ref %+.3f" % moved
                    if bound is not None and worse > bound:
                        line += "  WORSE"
            print(line)
    if args.write:
        with open(args.write, "w") as f:
            json.dump({"host": host_header(banner),
                       "run_seconds": spec["run_seconds"],
                       "runs": args.runs, "first_seed": args.first_seed,
                       "workloads": out}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
