"""Spans around the package's public functions, installed from outside.

Each target names the module attribute through which a caller looks a
function up: `simulate` reads `edge_stream` from `maswatch.engine`'s
namespace, so wrapping `maswatch.engine.edge_stream` times exactly the
calls the engine makes, without editing the package. A wrapper records
one span per call (name, start, end, parent span, operation id) in
memory, and the benchmark writes them out when the run ends.

A target whose module or attribute no longer exists is reported as
absent and keeps 0 calls, so the trace survives code that deletes or
vectorises a wrapped function.

`graph` is not traced: it runs only while a scenario is loaded and is
on no workload's hot path.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MB = 1e6


def _ndarray_bytes(args, kwargs, result) -> float:
    """Computed bytes of every array argument (outputs are passed in too)."""
    values = list(args) + list(kwargs.values())
    return float(sum(a.nbytes for a in values if isinstance(a, np.ndarray)))


def _slab_bytes(args, kwargs, result) -> float:
    """Computed bytes of the returned SimData slabs plus the six
    pregenerated (trials, steps, edges, n) slabs behind them."""
    return float(result.states.nbytes + result.ystar1.nbytes + result.ystar2.nbytes + 6 * result.ystar1.nbytes)


def _relay_found(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def _file_bytes(args, kwargs, result) -> float:
    return float(sum(Path(p).stat().st_size for p in result))


@dataclass(frozen=True)
class Target:
    span: str  # "<layer>.<what>", the prefix names the module that defines it
    module: str  # module whose attribute the caller reads at call time
    attrs: tuple[str, ...]  # attribute names; each one that exists is wrapped
    value: Callable | None = None  # (args, kwargs, result) -> float kept with the span


TARGETS = (
    Target("harness.run", "maswatch.harness", ("run_monte_carlo",)),
    Target("harness.export", "maswatch.harness", ("export_report",), _file_bytes),
    Target("harness.sweep", "maswatch.harness", ("transient_sweep",)),
    Target("engine.simulate", "maswatch.harness", ("simulate",), _slab_bytes),
    Target("attacks.validate", "maswatch.engine", ("validate_attacks",)),
    Target("watermark.stream", "maswatch.engine", ("edge_stream",)),
    Target("watermark.blocks", "maswatch.engine", ("watermark_blocks",)),
    Target("kernels.step", "maswatch._kernels", ("_simulate_numpy", "_simulate_loop_jit"), _ndarray_bytes),
    Target("detectors.kl", "maswatch.harness", ("estimate_kl",)),
    Target("detectors.verdict", "maswatch.harness", ("kl_verdict",)),
    Target("detectors.envelope", "maswatch.harness", ("envelope_verdict",)),
    Target("hybrid.protocol", "maswatch.harness", ("run_protocol_step",)),
    Target("hybrid.relay", "maswatch.hybrid", ("select_trusted",), _relay_found),
    Target("dynamics.eta", "maswatch.harness", ("eta_curve",)),
)

# The calls whose allocation peak the tracemalloc pass records.
ALLOC_TARGETS = tuple(t for t in TARGETS if t.span in ("engine.simulate", "harness.run", "harness.sweep"))


@contextmanager
def installed(wrap: Callable, targets=TARGETS):
    """Replace each target attribute by wrap(target, fn) for the duration.

    Yields the set of span names none of whose attributes exist.
    """
    saved = []
    absent = set()
    try:
        for t in targets:
            try:
                mod = importlib.import_module(t.module)
            except ModuleNotFoundError:
                absent.add(t.span)
                continue
            found = False
            for attr in t.attrs:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrap(t, fn))
                    found = True
            if not found:
                absent.add(t.span)
        yield absent
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


class Recorder:
    """In-memory span store, one row per wrapped call.

    Parents come from a per-thread call stack, so a span's parent is the
    innermost wrapped call still open on the same thread.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.value: list[float] = []
        self.op_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.name)
                self.name.append(target.span)
                self.start.append(0.0)
                self.end.append(0.0)
                self.parent.append(stack[-1] if stack else -1)
                self.op.append(self.op_id)
                self.value.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if target.value is not None:
                self.value[idx] = target.value(args, kwargs, result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        return {
            "name": np.array(self.name, dtype=str),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "value": np.array(self.value),
            "self": self_times(start, end, parent),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are the spans whose parent index points at it; their
    intervals are clipped to the parent and merged, so time covered by
    two children is subtracted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    for p, kids in children.items():
        intervals = sorted((max(start[k], start[p]), min(end[k], end[p])) for k in kids)
        covered = 0.0
        lo = hi = None
        for s, e in intervals:
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[p] -= covered
    return out


def layer_metrics(spans: dict[str, np.ndarray], ops) -> dict[str, float]:
    """Per-layer figures: the median over the given operations of each
    operation's calls, total seconds, self seconds and kept values."""
    per_op = [_op_metrics(spans, spans["op"] == op) for op in ops]
    return {key: float(np.median([m[key] for m in per_op])) for key in per_op[0]}


def _op_metrics(spans, sel) -> dict[str, float]:
    name = spans["name"][sel]
    dur = (spans["end"] - spans["start"])[sel]
    self_s = spans["self"][sel]
    value = spans["value"][sel]

    def pick(span):
        return name == span

    def calls(span):
        return float(pick(span).sum())

    def total(span):
        return float(dur[pick(span)].sum())

    def own(span):
        return float(self_s[pick(span)].sum())

    def vsum(span):
        return float(value[pick(span)].sum())

    relay_calls = calls("hybrid.relay")
    return {
        "engine.simulate_s": total("engine.simulate"),
        "engine.simulate_calls": calls("engine.simulate"),
        "engine.self_s": own("engine.simulate"),
        "engine.slab_mb": float(value[pick("engine.simulate")].max(initial=0.0)) / MB,
        "watermark.stream_s": total("watermark.stream"),
        "watermark.stream_calls": calls("watermark.stream"),
        "watermark.blocks_s": total("watermark.blocks"),
        "watermark.blocks_calls": calls("watermark.blocks"),
        "kernels.step_s": total("kernels.step"),
        "kernels.step_calls": calls("kernels.step"),
        "kernels.bytes_mb": vsum("kernels.step") / MB,
        "attacks.validate_s": total("attacks.validate"),
        "detectors.kl_s": total("detectors.kl"),
        "detectors.kl_calls": calls("detectors.kl"),
        "detectors.verdict_s": total("detectors.verdict"),
        "detectors.envelope_s": total("detectors.envelope"),
        "detectors.envelope_calls": calls("detectors.envelope"),
        "hybrid.protocol_s": total("hybrid.protocol"),
        "hybrid.protocol_calls": calls("hybrid.protocol"),
        "hybrid.relay_calls": relay_calls,
        "hybrid.relay_found_ratio": vsum("hybrid.relay") / relay_calls if relay_calls else 0.0,
        "dynamics.eta_s": total("dynamics.eta"),
        "harness.run_s": total("harness.run"),
        "harness.self_s": own("harness.run") + own("harness.sweep"),
        "harness.export_s": total("harness.export"),
        "harness.export_mb": vsum("harness.export") / MB,
        "harness.sweep_s": total("harness.sweep"),
    }


class AllocPeaks:
    """Peak bytes traced by tracemalloc inside each wrapped call, above
    the level at its entry. Nested calls fold their peaks into every
    enclosing call before the peak is reset for the inner one."""

    def __init__(self):
        self.peaks: dict[str, float] = defaultdict(float)
        self._frames: list[list[float]] = []  # [current at entry, highest peak seen]

    def _fold(self, peak: float) -> None:
        for frame in self._frames:
            frame[1] = max(frame[1], peak)

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._fold(peak)
            tracemalloc.reset_peak()
            self._frames.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                base, seen = self._frames.pop()
                self._fold(peak)
                tracemalloc.reset_peak()
                self.peaks[target.span] = max(self.peaks[target.span], max(seen, peak) - base)

        return wrapper
