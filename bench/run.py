"""Benchmark for the eventaug pipeline.

    python3 bench/run.py --workload pipeline-hub --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` (see ``gen.py``), runs one
untimed warm-up pass with the full output checks, then repeats timed
passes of the workload's CLI chain for ``--seconds`` seconds, checking each
one. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` traced and untraced
passes alternate and the metrics are the per-layer ones plus the tracing
overhead. The program is imported from ``src/`` of the checkout that holds
this file; nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread: with the default thread pool, repeated GP
# training and diagnose calls ranged 25% and 59%; pinned, under 2%.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline-hub", "pipeline-flat", "train-sweep")
SETUP_REPEATS = 3
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: tiny inputs for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from eventaug import cli, diagnostics

    import checks
    import tracing
    import workloads

    work_root = os.path.join(ROOT, ".bench_work")
    run_dir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        # Set-up in child processes, so that each repeat pays the imports
        # and the parent's peak RSS reflects the passes alone. Each repeat
        # writes a fresh directory: creating files right after deleting
        # thousands made priming take 2.7 s instead of 0.8 s. The last
        # repeat's directory is the one the passes use.
        setup_times = []
        for k in range(SETUP_REPEATS):
            workdir = os.path.join(run_dir, f"setup-{k}")
            start = time.perf_counter()
            subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), args.workload,
                            str(args.seed), args.size, workdir], check=True, env=os.environ)
            setup_times.append(time.perf_counter() - start)

        wl = workloads.make(args.workload, workdir, args.size)
        tracer = tracing.Tracer()
        failed = attempted = 0

        def run_pass(traced: bool):
            """One pass; returns (wall seconds of the program's calls,
            stdout per command, failures)."""
            wl.prepare()
            gc.collect()
            restore = tracing.install(tracer) if traced else None
            wall, outs, bad = 0.0, [], 0
            try:
                for argv_ in wl.commands():
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        start = time.perf_counter()
                        rc = cli.main(argv_)
                        wall += time.perf_counter() - start
                    outs.append(buf.getvalue())
                    bad += rc != 0
            finally:
                if restore is not None:
                    restore()
            return wall, outs, bad

        # Warm-up pass: untimed, full checks; pca2's input is captured for
        # the eigh comparison.
        captured = []
        original_pca2 = diagnostics.pca2

        def capture_pca2(matrix):
            result = original_pca2(matrix)
            captured.append((matrix, result))
            return result

        diagnostics.pca2 = capture_pca2
        try:
            _, outs, bad = run_pass(False)
        finally:
            diagnostics.pca2 = original_pca2
        correct = bad == 0
        problems = []
        try:
            if correct:
                wl.check(outs, captured[0] if captured else None)
        except checks.CheckError as exc:
            problems.append(f"warm-up: {exc}")
        del captured

        walls, traced_walls, layer_runs, scores = [], [], [], []
        begin = time.perf_counter()
        i = 0
        while time.perf_counter() - begin < args.seconds or i < MIN_PASSES * (1 + args.trace):
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                tracer.take()
            wall, outs, bad = run_pass(traced)
            attempted += len(outs)
            failed += bad
            if traced:
                traced_walls.append(wall)
                layer_runs.append(tracing.pass_metrics(*tracer.take()))
            else:
                walls.append(wall)
            if not bad:
                try:
                    scores.append(wl.check(outs))
                except checks.CheckError as exc:
                    problems.append(f"pass {i}: {exc}")
            i += 1
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        correct = correct and not problems and bool(scores)

        if args.trace:
            trace_dir = os.path.join(work_root, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"))
            metrics = {name: {"value": statistics.median(r[name] for r in layer_runs),
                              "unit": tracing.unit_of(name)} for name in layer_runs[0]}
            untraced, traced_ = statistics.median(walls), statistics.median(traced_walls)
            metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
            metrics["trace.traced_wall_s"] = {"value": traced_, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_ - untraced, "unit": "s"}
        else:
            micro = statistics.median(s[0] for s in scores) if scores else 0.0
            macro = statistics.median(s[1] for s in scores) if scores else 0.0
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
                "macro_f1": {"value": macro, "unit": "ratio"},
                "micro_f1": {"value": micro, "unit": "ratio"},
            }
            print(f"{args.workload}: {len(walls)} timed passes, wall_s per pass "
                  f"{', '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
