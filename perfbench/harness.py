"""Run one workload: set up, measure untraced, check outputs, and (with
tracing) measure again under probes for the per-layer breakdown."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import hostspeed, layers, stats
from perfbench.tracing import Tracer, instrument, write_chrome_trace
from perfbench.workloads import LARGE, WORKLOADS, Sizes

#: (name, unit) of the gated end-to-end metrics every workload reports.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput", "1/s"))

#: What ``throughput`` counts on each workload.
THROUGHPUT_OF = {
    "eval_mcq": "= eval_qps",
    "serve_prefix": "= busy_req_s",
    "serve_decode": "= decode_tok_s",
    "train_step": "= train_tok_s",
}


def _commit(root: Path) -> str:
    """HEAD's commit id read from ``.git`` without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> Dict[str, Any]:
    """Where a result was measured.  The BLAS thread count is what the
    entry point pinned before NumPy was imported."""
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "commit": _commit(root),
        "src_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "inherited"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _fmt(value: Optional[float]) -> str:
    return "withheld" if value is None else f"{value:.6g}"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = LARGE,
    trace_dir: Optional[Path] = None,
    env: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], Dict[str, Any]]:
    """Returns the human-readable lines and the result object."""
    wl = WORKLOADS[name]
    lines = [f"workload {name} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    setup_times: List[float] = []
    setup_probes: List[float] = []

    def timed_setup():
        gc.collect()
        setup_probes.append(hostspeed.probe())
        start = time.perf_counter()
        built = wl.setup(seed, sizes, seconds)
        setup_times.append(time.perf_counter() - start)
        return built

    # Half the set-ups run before the timed region and half after it, so
    # the median samples the host at two moments, not one.
    before = (sizes.setup_repeats + 1) // 2
    for _ in range(before):
        state = None
        state = timed_setup()
    gc.collect()
    untraced = wl.measure(state, seconds, None)
    checks = wl.check(state, untraced)
    bad = {i for c in checks for i in c.failed_ids}
    summary = wl.summarize(state, untraced, bad)
    correct = not bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(sizes.setup_repeats - before):
        timed_setup()

    # The gated figures are stated at the reference host speed (see
    # hostspeed.py); the named metrics stay as measured.
    setup_host = hostspeed.factor(setup_probes)
    run_host = hostspeed.factor(untraced.probe_s)
    setup_s = stats.median(setup_times) / setup_host
    throughput = summary.throughput * run_host
    named = {
        "setup_s": (setup_s, "s", f"median of {len(setup_times)} set-ups, {before} before "
                    f"and the rest after the timed region, over host factor {setup_host:.4f}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident set of this process"),
        "failed_frac": (summary.failed / max(untraced.attempted, 1), "ratio",
                        f"{summary.failed} of {untraced.attempted} {wl.op}s"),
    }
    named.update(summary.named)
    for metric, (value, unit, note) in named.items():
        lines.append(f"metric {metric} {_fmt(value)} {unit}" + (f"  # {note}" if note else ""))
    lines.append(
        f"metric throughput {throughput:.6g} 1/s  # {THROUGHPUT_OF[name]} x host factor "
        f"{run_host:.4f} (median of {len(untraced.probe_s)} probes over {hostspeed.REF_S:g} s)"
    )
    for c in checks:
        lines.append(
            f"check {'pass' if not c.failed_ids else 'FAIL'}: {c.name}: {c.checked} checked, "
            f"{len(c.failed_ids)} failed, {c.ties} float near-ties"
            + (f" ({', '.join(c.failed_ids[:8])})" if c.failed_ids else "")
        )

    if not trace:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "throughput": throughput}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    else:
        tracer = Tracer()
        gc.collect()
        with instrument(tracer, wl.probes(state, tracer)):
            traced = wl.measure(state, seconds, tracer)
        per_layer = {m: 0.0 for m, _, _ in layers.PER_LAYER}
        per_layer.update(
            layers.span_metrics(tracer, traced.attempted, traced.wall_s, state.model.config.vocab_size)
        )
        per_layer.update(wl.layer_metrics(state, traced, untraced))
        per_layer["trace.overhead_frac"] = (
            (traced.busy_s / traced.attempted) / (untraced.busy_s / untraced.attempted) - 1.0
        )
        lines.append(f"note {layers.LINEAR_FLOP_NOTE}")
        lines.append(f"note per-layer times and counts are per {wl.op} unless named otherwise")
        for metric, unit, _ in layers.PER_LAYER:
            lines.append(f"layer {metric} {per_layer[metric]:.6g} {unit}")
        if trace_dir is not None:
            path = trace_dir / f"trace-{name}-seed{seed}.json"
            write_chrome_trace(
                tracer.spans, path,
                {"workload": name, "seed": seed, "env": env, "per_layer": per_layer},
            )
            lines.append(f"note {len(tracer.spans)} spans written to {path}")
        metrics = {m: {"value": per_layer[m], "unit": u} for m, u, _ in layers.PER_LAYER}

    result = {
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": summary.failed,
        "metrics": metrics,
    }
    return lines, result
