"""Measurement loops behind perfbench/run.py.

Load is one process, closed loop, one operation at a time: the next
operation starts when the previous one has returned and been checked.
Every operation is checked; one that raises, yields a non-finite value,
fails its workload check or differs from the run's first operation
counts as failed.

Untraced run (--trace 0), the end-to-end metrics:
  run_s              median wall seconds of one operation
  trial_steps_per_s  trials x steps simulated per operation / run_s
  peak_rss_mb        ru_maxrss of this process, which runs only the workload
  setup_s            median over fresh processes of importing maswatch,
                     loading the preset and a 2 x 3 warm-up run

Traced run (--trace 1), the per-layer metrics: untraced and traced
operations alternate; spans from the traced ones give each layer's
calls, total and self seconds per operation (medians), and
trace.overhead_s is the traced median minus the untraced one. A first
operation runs under tracemalloc, untimed, for the allocation peaks.
engine.slab_mb and kernels.bytes_mb are computed from array shapes.

Which layer should move which end-to-end metric, written down before
any optimisation:
  engine.self_s, watermark.*       run_s on channel_wide and hybrid_scaled,
                                   not on clean_long
  kernels.step_s                   run_s on hybrid_scaled
  detectors.kl_s, envelope_s       run_s on clean_long and hybrid_scaled,
                                   not on sweep
  hybrid.protocol_s                run_s on clean_long, by at most its share
  harness.self_s                   run_s on hybrid_scaled and clean_long
  harness.export_s                 run_s on clean_long, not on channel_wide
  engine.slab_mb, *.alloc_peak_mb  peak_rss_mb on hybrid_scaled, channel_wide
  attacks.validate_s               expected negligible everywhere
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

import maswatch
import spans
import workloads
from maswatch import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRESET = SRC / "maswatch" / "presets" / "platoon.json"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 3  # untraced operations per run, at least
MIN_PAIRS = 2  # untraced/traced pairs per traced run, at least
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"run_s": "s", "trial_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
COMPUTED = ("engine.slab_mb", "kernels.bytes_mb")
NOT_MEASURED = "graph: runs only while a scenario is loaded, on no workload's hot path"


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Ops:
    """Runs and checks one workload's operations."""

    def __init__(self, name: str, s, out_dir: Path):
        self.name = name
        self.s = s
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self._reference = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self) -> float:
        """One operation; returns its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = workloads.run_op(self.name, self.s, self.out_dir)
        except Exception:  # a raising operation is counted as failed, the run goes on
            self.failures.append(f"operation {self.attempted} raised\n{traceback.format_exc()}")
            return time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        found = workloads.check(self.name, self.s, result)
        digest = workloads.fingerprint(self.name, result)
        if self._reference is None:
            self._reference = digest
        elif digest != self._reference:
            found.append("output differs from the run's first operation")
        if found:
            self.failures.append(f"operation {self.attempted}: " + "; ".join(found))
        return seconds


def measure(name: str, seed: int, seconds: float, trace: bool, trials=None, steps=None, out: Path = OUT) -> dict:
    """Run one workload for about `seconds`; returns metrics and counts."""
    s = workloads.scenario(name, seed, PRESET, trials, steps)
    harness.run_monte_carlo(replace(s, trials=2, horizon=min(s.horizon, 3)))  # lazy set-up, untimed
    ops = Ops(name, s, out / name)
    if trace:
        metrics, samples, absent = _traced(ops, seconds, out / f"spans-{name}.npz")
    else:
        metrics, samples, absent = _untraced(ops, seconds)
    return {
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "samples": samples,
        "absent": sorted(absent),
        "provenance": provenance(name, seed, s),
    }


def _untraced(ops: Ops, seconds: float):
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        times.append(ops.run())
    run_s = statistics.median(times)
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "run_s": run_s,
        "trial_steps_per_s": workloads.trial_steps(ops.name, ops.s) / run_s,
        "peak_rss_mb": maxrss_kib * 1024 / spans.MB,
    }
    return metrics, {"operations": len(times), "min_s": min(times), "max_s": max(times)}, set()


def _traced(ops: Ops, seconds: float, spans_path: Path):
    deadline = time.perf_counter() + seconds  # the untimed tracemalloc pass counts against it
    alloc = spans.AllocPeaks()
    tracemalloc.start()
    try:
        with spans.installed(alloc.wrap, spans.ALLOC_TARGETS):
            ops.run()
    finally:
        tracemalloc.stop()
    rec = spans.Recorder()
    plain, traced, traced_ops = [], [], []
    while len(traced) < MIN_PAIRS or time.perf_counter() < deadline:
        plain.append(ops.run())
        rec.op_id += 1
        with spans.installed(rec.wrap) as absent:
            traced.append(ops.run())
        traced_ops.append(rec.op_id)
    recorded = rec.arrays()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(spans_path, **recorded)
    metrics = spans.layer_metrics(recorded, traced_ops)
    metrics["engine.alloc_peak_mb"] = alloc.peaks["engine.simulate"] / spans.MB
    metrics["harness.alloc_peak_mb"] = max(alloc.peaks["harness.run"], alloc.peaks["harness.sweep"]) / spans.MB
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"traced_ops": len(traced), "untraced_ops": len(plain), "alloc_ops": 1}
    return metrics, samples, absent


def measure_setup(runs: int = SETUP_RUNS) -> list[float]:
    """Set-up seconds of `runs` fresh processes, one after another."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(PRESET)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def provenance(name: str, seed: int, s) -> dict:
    """What was run, on what, for the result record. Names the package
    may drop later (the numba switch, backend selection) fall back."""
    engine = sys.modules.get("maswatch.engine")
    numba = getattr(sys.modules.get("maswatch._kernels"), "HAS_NUMBA", None)
    if numba is None:
        numba = importlib.util.find_spec("numba") is not None
    resolve_backend = getattr(engine, "resolve_backend", None)
    resolve_workers = getattr(engine, "resolve_workers", None)
    sizes = {"variant": workloads.WORKLOADS[name][0], "trials": s.trials, "steps": s.horizon}
    if name == "sweep":
        sizes.update(grid=list(workloads.SWEEP_GRID), probe_step=workloads.SWEEP_PROBE_STEP)
    return {
        "workload": name,
        "sizes": sizes,
        "seed": seed,
        "preset_sha256": hashlib.sha256(PRESET.read_bytes()).hexdigest(),
        "maswatch": getattr(maswatch, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": bool(numba),
        "backend": resolve_backend() if resolve_backend else "numpy",
        "workers": resolve_workers() if resolve_workers else int(os.environ.get("MASWATCH_WORKERS", "1")),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(name: str, seed: int, trace: bool, res: dict) -> dict:
    """Print the human-readable lines, save the record, return the result line."""
    m = res["metrics"]
    s = res["samples"]
    print(f"maswatch benchmark: workload {name}, seed {seed}, trace {int(trace)}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    if trace:
        print(f"per operation, median of {s['traced_ops']} traced operations ({s['untraced_ops']} untraced for the overhead)")
    for k in m:
        note = ""
        if k == "run_s":
            note = f"  (median of {s['operations']} operations, min {s['min_s']:.4f}, max {s['max_s']:.4f})"
        elif k == "setup_s":
            note = f"  (median of {s['setup_processes']} fresh processes)"
        elif k in COMPUTED:
            note = "  (computed from array shapes)"
        elif k.endswith("alloc_peak_mb"):
            note = "  (tracemalloc pass, untimed)"
        print(f"  {k:<26} {m[k]:>14.6g} {unit(k)}{note}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<26} {rate:>14.6g}   ({res['failed']} failed of {res['attempted']} operations)")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    if res["absent"]:
        print("  absent spans (wrapped name not found, 0 calls): " + ", ".join(res["absent"]))
    print(f"  not measured: {NOT_MEASURED}")
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(m[k]), "unit": unit(k)} for k in m},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{name}-trace{int(trace)}.json"
    record.write_text(json.dumps({**res, "result": line}, indent=1, sort_keys=True) + "\n")
    return line


def main(name: str, seed: int, seconds: float, trace: bool) -> int:
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}, expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = None if trace else measure_setup()
    res = measure(name, seed, seconds, trace)
    if setup is not None:
        res["metrics"]["setup_s"] = statistics.median(setup)
        res["samples"]["setup_processes"] = len(setup)
    line = report(name, seed, trace, res)
    print(json.dumps(line))
    return 0
