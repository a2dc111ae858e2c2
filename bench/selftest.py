"""Toy-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json on tiny inputs, untraced and traced,
and checks that the last line of output is the result object with every
declared metric under its declared unit, that the output checks passed and
that no operation failed. Then checks that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json
and the benchmark's own files. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    spec = json.load(fh)

errors = []
for w in spec["workloads"]:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(ROOT, w["name"], trace)
        where = f"{w['name']} --trace {trace}"
        if proc.returncode != 0:
            errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{where}: result keys {sorted(result)}")
            continue
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"{where}: correct={result['correct']} attempted="
                          f"{result['attempted']} failed={result['failed']}\n{proc.stderr[-2000:]}")
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            errors.append(f"{where}: metrics differ from BENCHMARK.json: missing "
                          f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                          f"unit mismatch {sorted(k for k in want if k in got and got[k] != want[k])}")
        bad = [k for k, v in result["metrics"].items()
               if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]]
        if bad:
            errors.append(f"{where}: non-numeric values for {bad}")
        print(f"ok {where}: {len(got)} metrics", flush=True)

# Without the program next to it, the benchmark must fail without a result.
bare = os.path.join(ROOT, ".bench_work", "bare")
shutil.rmtree(bare, ignore_errors=True)
os.makedirs(bare)
try:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    else:
        print(f"ok bare directory: exit {proc.returncode}, no result", flush=True)
finally:
    shutil.rmtree(bare, ignore_errors=True)

for e in errors:
    print("FAIL", e, file=sys.stderr)
sys.exit(1 if errors else 0)
