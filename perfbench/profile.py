#!/usr/bin/env python3
"""Per-layer profile of every workload, at one or more seeds.

    python3 perfbench/profile.py --seconds 10 --seeds 1,2

Run from the root of a checkout. Makes one traced run per workload and
seed, prints the layer shares of an op as JSON, and checks the
profile that perfbench/baseline.json records: loop DP + WIG take at least
80% of a random_large op, simulate at least 90% of a blocking op, and the
layer ranking is the same at every seed. Exits 1 when a check fails.
"""
import argparse
import json
import pathlib
import subprocess
import sys

SPEC = json.loads(pathlib.Path("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Every per-layer time has a ".share" companion; those are the layers.
LAYERS = [m["name"].removesuffix(".share") for m in SPEC["per_layer"]
          if m["name"].endswith(".share")]


def traced_shares(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: traced run not correct")
    metrics = result["metrics"]
    return {layer: round(metrics[layer + ".share"]["value"], 4)
            for layer in LAYERS}, round(metrics["trace.overhead"]["value"], 4)


def ranking(shares):
    """Layers holding at least 1% of an op, largest first."""
    return [layer for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.01]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    profile, failures = {}, []
    for workload in WORKLOADS:
        for seed in seeds:
            shares, overhead = traced_shares(workload, seed, args.seconds)
            profile.setdefault(workload, {})[str(seed)] = {
                "shares": shares, "trace.overhead": overhead}
        rankings = {tuple(ranking(run["shares"]))
                    for run in profile[workload].values()}
        if len(rankings) != 1:
            failures.append(f"{workload}: layer ranking differs by seed: "
                            f"{rankings}")
        for seed, run in profile[workload].items():
            s = run["shares"]
            if workload == "random_large" and \
                    s["sched.loop_dp_ms"] + s["alloc.wig_ms"] < 0.8:
                failures.append(f"random_large seed {seed}: loop DP + WIG "
                                "below 80% of an op")
            if workload == "blocking" and s["sched.simulate_ms"] < 0.9:
                failures.append(f"blocking seed {seed}: simulate below 90% "
                                "of an op")
    print(json.dumps(profile, indent=2))
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
