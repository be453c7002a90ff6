#!/usr/bin/env python3
"""Build and run the sdfmem benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of table1, random_large,
blocking, explore, or "all" (each workload in its own process, one row
each). The first run configures and builds perfbench/ (and with it the
library under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. End-to-end times in it are normalized to
the speed of a reference host (perfbench/bench.cpp, HostSpeed); the rows
above it also give them as raw wall clock. A malformed argument prints
usage and exits 2; a missing source tree or a failed build exits 1.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("table1", "random_large", "blocking", "explore")
DEFAULT_SEED = 1  # the seed perfbench/baseline.json was recorded with
# A workload process must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def bounded_int(low, high):
    def parse(text):
        if not text.isdigit() or not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(
                f"expected an integer in [{low}, {high}], got {text!r}")
        return int(text)
    return parse


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", default=DEFAULT_SEED,
                        type=bounded_int(0, 2**32 - 1))
    parser.add_argument("--seconds", required=True,
                        type=bounded_int(1, 3600))
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no sdfmem sources under src/; run from the "
                 "root of a checkout")
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"),
                      "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 8))
    steps.append(["cmake", "--build", str(build_dir),
                  "--target", "sdfmem_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return build_dir


def run_workload(binary, workload, args, spans):
    command = [str(binary), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], lines[-1]


def main():
    args = parse_args()
    root = pathlib.Path.cwd()
    build_dir = build(root)
    binary = build_dir / "sdfmem_perfbench"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    for workload in workloads:
        spans = (build_dir.parent / f"spans-{workload}.jsonl"
                 if args.trace == "1" else None)
        rows, last = run_workload(binary, workload, args, spans)
        print("\n".join(rows), flush=True)
        if len(workloads) == 1:
            print(last)
            return
        results[workload] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric
                    for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
