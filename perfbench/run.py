"""Benchmark entry point: one workload and one seed per run.

    python3 perfbench/run.py --workload eval_mcq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

An untraced run measures the workload in ``--parts`` child processes
(default ``PARTS``), one after another, each for an equal share of
``--seconds``, and reports the median over them.  ``all`` runs every
workload in turn and ends with one JSON line whose metrics are named
``<workload>.<metric>``.

Prints the environment, every end-to-end metric of the workload with its
unit and the output checks; with ``--trace 1`` also the per-layer
breakdown (and writes the spans under ``perfbench/out/``).  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 when an output check fails and 2 when the
program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("eval_mcq", "serve_prefix", "serve_decode", "train_step")

#: Child processes per untraced run.  On a shared VM a process's speed
#: depends on where its memory landed: back-to-back processes running
#: the same training steps read up to a sixth apart, eight-second windows
#: inside one process a twentieth.  The median over several processes
#: keeps one unlucky placement from setting the run's figure.
PARTS = 3

#: BLAS threads, fixed rather than inherited: training moves by about a
#: sixth between one and two threads, and one thread is the steadier
#: choice on a shared machine.
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    """Must run before NumPy is first imported."""
    n = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _child(workload: str, seconds: float, args, parts: int):
    """Run this script for one workload in a child process and echo its
    output; returns (exit code, result or None when it printed none)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
         "--seconds", repr(seconds), "--trace", str(args.trace), "--parts", str(parts)],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1) or not lines:
        return max(proc.returncode, 1), None
    return proc.returncode, json.loads(lines[-1])


def run_all(args) -> int:
    """Run each workload in a child process; exit 1 if any check failed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        code, result = _child(name, args.seconds, args, args.parts)
        worst = max(worst, code)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return worst


def run_parts(args) -> int:
    """Measure one workload in ``args.parts`` child processes and report
    the median of each gated figure (the peak for memory)."""
    results = []
    worst = 0
    for k in range(args.parts):
        print(f"part {k + 1} of {args.parts}", flush=True)
        code, result = _child(args.workload, args.seconds / args.parts, args, 1)
        worst = max(worst, code)
        if result is None:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return worst
        results.append(result)
    from perfbench.stats import median

    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = max(values) if name == "peak_rss_mb" else median(values)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        how = "peak" if name == "peak_rss_mb" else "median"
        print(f"metric {name} {value:.6g} {entry['unit']}  # {how} of {len(values)} processes")
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(combined), flush=True)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parts", type=int, default=PARTS,
                        help="child processes an untraced run is split over (1: measure in this one)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.parts < 1:
        parser.error("--parts must be at least 1")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.parts > 1 and not args.trace:
        sys.path.insert(0, str(ROOT))
        return run_parts(args)
    _pin_blas_threads()
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.harness import environment, run_workload

    env = environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    lines, result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_dir=ROOT / "perfbench" / "out", env=env,
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
