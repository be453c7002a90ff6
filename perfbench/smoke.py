#!/usr/bin/env python3
"""Smoke test of the sdfmem benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout. Runs every workload in BENCHMARK.json for
one second, untraced and traced, and checks that each run exits 0, prints
every metric BENCHMARK.json names with its unit, verifies every op
(error_rate 0) and, traced, reproduces compile() on every op. Also checks
that malformed arguments print usage and exit 2. Exits 1 on any failure.
"""
import json
import math
import pathlib
import subprocess
import sys

SEED = 1


def run(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=900)


def check_run(spec, workload, trace, failures):
    done = run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        failures.append(f"{where}: exit {done.returncode}: {done.stderr}")
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{where}: result keys {sorted(result)}")
        return
    if result["attempted"] < 1 or result["failed"] != 0 or \
            not result["correct"]:
        failures.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ names)}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != metric["unit"] or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            failures.append(f"{where}: {metric['name']} = {got}")
        elif trace == "0" and value == 0:
            failures.append(f"{where}: {metric['name']} is 0")


def main():
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    failures = []
    for bad in (["--seed", "-1"], ["--seed", "x"], ["--seed", "4294967296"],
                ["--seconds", "0"], ["--workload", "nope"],
                ["--trace", "2"]):
        args = {"--workload": "table1", "--seed": "1", "--seconds": "1",
                "--trace": "0"}
        args[bad[0]] = bad[1]
        done = run(*[x for kv in args.items() for x in kv])
        if done.returncode != 2 or "usage" not in done.stderr or \
                done.stdout.strip():
            failures.append(f"{bad}: exit {done.returncode}, expected usage "
                            "and exit 2")
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            check_run(spec, workload["name"], trace, failures)
    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
