"""The four benchmark workloads and the checks on their outputs.

All four run the shipped platoon preset through the public API, with the
benchmark's seed as `master_seed`. Each stresses different layers:

  hybrid_scaled  variant hybrid, 500 trials x 300 steps: the scaled step
                 count, every layer at once and the largest slabs (six
                 pregenerated and two recovered-copy arrays of 40 MB), so
                 slab streaming and peak memory show here.
  channel_wide   variant channel, 1000 x 40: trial-heavy, 22k edge_stream
                 generators and few per-step Python loops, so per-stream
                 random-material cost dominates.
  clean_long     variant clean, 40 x 600: step-heavy, 6.6k estimate_kl and
                 13k envelope_verdict calls, 600 protocol rounds and 6.6k
                 CSV rows, and almost no random material; a random-material
                 change should show nothing here.
  sweep          transient_sweep on the clean preset, 150 x 60 over the
                 initial-error grid (0.5, 1, 2, 5) at probe step 4: the only
                 workload on the identity-watermark branch, with half its
                 simulations unwatermarked and almost no detection.

The sizes keep each workload's shape (wide, long, scaled) at about one
to three seconds an operation, so a 25-second run takes its median over
10 to 25 operations and rides out short slow spells of a shared machine.

An operation is run_monte_carlo followed by export_report, or one
transient_sweep. Functions are looked up on the `harness` module at call
time, so the spans installed there see these calls.

The expected tables restate tests/test_acceptance.py (criteria 1, 2, 4
and 5) at the workload sizes; the test module is not imported.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from maswatch import harness

# (preset variant, trials, steps)
WORKLOADS = {
    "hybrid_scaled": ("hybrid", 500, 300),
    "channel_wide": ("channel", 1000, 40),
    "clean_long": ("clean", 40, 600),
    "sweep": ("clean", 150, 60),
}
SWEEP_GRID = (0.5, 1.0, 2.0, 5.0)
SWEEP_PROBE_STEP = 4

CHANNEL_EDGE = (5, 2)
CHANNEL_FIRST_STEADY_STEP = 12  # criterion 2 counts steps 12..K
CHANNEL_MIN_RATE = 0.9

# Criterion 4: flag pair expected on each edge in each window of the
# hybrid variant; an edge not listed stays (0, 0).
HYBRID_WINDOWS = ((2, 3), (4, 5), (6, 7))
HYBRID_FLAGS = {
    (5, 2): ((1, 2), (1, 2), (0, 1)),
    (5, 1): ((0, 0), (0, 1), (0, 1)),
    (5, 3): ((0, 0), (0, 1), (0, 1)),
    (5, 4): ((0, 0), (0, 1), (0, 1)),
}
HYBRID_LABELS_52 = (  # classification of (5, 2) at steps 2..7
    "channel_only",
    "channel_only",
    "channel_only",
    "hybrid",
    "byzantine_only",
    "byzantine_only",
)

EXPORTED_FILES = ("kl_trace.csv", "residual_trace.csv", "envelope_trace.csv", "flags.csv", "eta.csv", "summary.csv")


def scenario(name: str, seed: int, preset: Path, trials: int | None = None, steps: int | None = None):
    """The workload's scenario; trials and steps default to its own size."""
    variant, t, k = WORKLOADS[name]
    s = harness.load_scenario(preset, variant)
    return replace(s, trials=trials or t, horizon=steps or k, master_seed=seed)


def trial_steps(name: str, s) -> int:
    """Trials x steps simulated by one operation."""
    sims = 2 * len(SWEEP_GRID) if name == "sweep" else 1
    return sims * s.trials * s.horizon


def run_op(name: str, s, out_dir: Path):
    """One operation; returns what the checks read."""
    if name == "sweep":
        return harness.transient_sweep(s, SWEEP_GRID, probe_step=SWEEP_PROBE_STEP)
    report = harness.run_monte_carlo(s)
    paths = harness.export_report(report, out_dir)
    return report, paths


def fingerprint(name: str, result) -> str:
    """Digest of the numbers an operation produced, for the repeat check."""
    h = hashlib.sha256()
    if name == "sweep":
        h.update(repr(result).encode())
    else:
        report, _ = result
        for a in (report.kl_stats, report.residuals, report.env_stats, report.flags, report.eta):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check(name: str, s, result) -> list[str]:
    """Failures found in one operation's output; empty when it is correct."""
    if name == "sweep":
        return _check_sweep(s, result)
    report, paths = result
    failures = _check_report_arrays(report) + _check_export(s, paths)
    if name == "clean_long":
        failures += _check_clean(report)
    elif name == "channel_wide":
        failures += _check_channel(s, report)
    elif name == "hybrid_scaled":
        failures += _check_hybrid(s, report)
    return failures


def _check_report_arrays(report) -> list[str]:
    arrays = {
        "eta": report.eta,
        "kl_stats": report.kl_stats,
        "residuals": report.residuals,
        "env_stats": report.env_stats,
    }
    return [f"{key} has non-finite values" for key, a in arrays.items() if not np.isfinite(a).all()]


def _check_export(s, paths) -> list[str]:
    names = tuple(Path(p).name for p in paths)
    if names != EXPORTED_FILES:
        return [f"export wrote {names}, expected {EXPORTED_FILES}"]
    rows = Path(paths[0]).read_bytes().count(b"\n") - 1
    expected = s.horizon * s.topology.n_edges
    return [] if rows == expected else [f"kl_trace.csv has {rows} rows, expected {expected}"]


def _check_clean(report) -> list[str]:
    kl = int(report.kl_attacked.sum())
    env = int(report.env_attacked.sum())
    return [] if kl == 0 and env == 0 else [f"clean run raised {kl} KL and {env} envelope alarms"]


def _check_channel(s, report) -> list[str]:
    failures = []
    e = s.topology.edge_index(*CHANNEL_EDGE)
    steady = report.kl_attacked[e, CHANNEL_FIRST_STEADY_STEP - 1 :]
    rate = float(steady.mean())
    if not rate >= CHANNEL_MIN_RATE:
        failures.append(f"edge {CHANNEL_EDGE} over theta on {rate:.3f} of steps {CHANNEL_FIRST_STEADY_STEP}..K")
    others = int(report.kl_attacked.sum()) - int(report.kl_attacked[e].sum())
    if others:
        failures.append(f"{others} KL alarms on edges other than {CHANNEL_EDGE}")
    return failures


def _check_hybrid(s, report) -> list[str]:
    failures = []
    t = s.topology
    for e, edge in enumerate(t.edges):
        per_window = HYBRID_FLAGS.get(edge, ((0, 0),) * len(HYBRID_WINDOWS))
        for w, (ka, kb) in enumerate(HYBRID_WINDOWS):
            exp = per_window[w]
            prev = per_window[w - 1] if w else (0, 0)
            for k in (ka, kb):
                got = tuple(int(v) for v in report.flags[k - 1, e])
                if got != exp and not (k == ka and exp != prev):  # one step of latency at a transition
                    failures.append(f"flags of {edge} at step {k} are {got}, expected {exp}")
    e52 = t.edge_index(*CHANNEL_EDGE)
    labels = tuple(report.classifications[k - 1][e52].value for k in range(2, 8))
    if labels != HYBRID_LABELS_52:
        failures.append(f"{CHANNEL_EDGE} labels at steps 2..7 are {labels}")
    (attack,) = [a for a in s.attacks.channel if a.edge == CHANNEL_EDGE]
    window = np.array([attack.active(k) for k in range(1, s.horizon + 1)])
    outside = int(report.kl_attacked.sum()) - int(report.kl_attacked[e52, window].sum())
    if outside:
        failures.append(f"{outside} KL alarms outside the {CHANNEL_EDGE} attack window")
    return failures


def _check_sweep(s, rows) -> list[str]:
    wm = [row["watermark_kl"] for row in rows]
    ab = [row["ablation_kl"] for row in rows]
    if len(rows) != len(SWEEP_GRID) or not all(math.isfinite(v) for v in wm + ab):
        return [f"sweep rows are incomplete or non-finite: {rows}"]
    failures = []
    if not max(wm) < s.kl.theta:
        failures.append(f"largest watermark KL {max(wm):.4g} is not below theta {s.kl.theta}")
    if not all(a < b for a, b in zip(ab, ab[1:])):
        failures.append(f"ablation KL {ab} does not increase strictly")
    return failures
