"""Tiny-size runs of all four workloads through the harness."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

NAMED = {
    "eval_mcq": {"eval_qps": "questions/s"},
    "serve_prefix": {"busy_req_s": "requests/s", "ttft_p50_ms": "ms", "ttft_p90_ms": "ms", "goodput_frac": "ratio",
                     "itl_p50_ms": "ms", "itl_p99_ms": "ms"},
    "serve_decode": {"itl_p50_ms": "ms", "itl_p99_ms": "ms", "decode_tok_s": "tokens/s"},
    "train_step": {"train_tok_s": "tokens/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def _printed(lines):
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()
            out[name] = unit
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_emits_every_end_to_end_metric(name):
    lines, result = harness.run_workload(name, 3, 0.3, False, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(harness.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = _printed(lines)
    for metric, unit in {**COMMON, **NAMED[name], "throughput": "1/s"}.items():
        assert printed.get(metric) == unit, metric
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_emits_every_per_layer_metric(name, tmp_path):
    lines, result = harness.run_workload(name, 3, 0.3, True, sizes=TINY, trace_dir=tmp_path)
    assert result["correct"]
    expected = {m: u for m, u, _ in layers.PER_LAYER}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    trace = json.loads(next(tmp_path.iterdir()).read_text())
    assert trace["traceEvents"] and trace["metadata"]["workload"] == name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    # serve_decode runs (``--workload serve_decode`` or ``all``) but is not gated
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(set(WORKLOADS) - {"serve_decode"})


def test_all_runs_every_workload_in_one_command():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "2",
         "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    expected = {f"{w}.{m}" for w in WORKLOADS for m, _ in harness.END_TO_END}
    assert set(result["metrics"]) == expected
    assert proc.stdout.count("median of 3 processes") == 2 * len(WORKLOADS)
    printed = _printed(proc.stdout.splitlines())
    for named in NAMED.values():
        assert {m: printed.get(m) for m in named} == named


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_mcq", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
