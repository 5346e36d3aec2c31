"""Acceptance suite: the eight headline claims, one test each.

Each test prints one PASS/FAIL line with the measured numbers; the
same lines are repeated in the terminal summary so a plain
`pytest -v` ends with the checklist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from maswatch.detectors import estimate_kl, gaussian_kl
from maswatch.graph import build_topology, two_hop_relays
from maswatch.harness import (
    export_report,
    platoon_preset,
    run_monte_carlo,
    transient_sweep,
)
from maswatch.hybrid import Classification
from maswatch.watermark import WatermarkParams, watermark_blocks, edge_stream, stream_keys, STREAM_WATERMARK

from conftest import record_criterion
from test_detectors import kl_by_quadrature

THETA = 4.61


def _line(n: int, ok: bool, detail: str) -> None:
    text = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}"
    print(text)
    record_criterion(text)


# --- criteria ---------------------------------------------------------------


def test_criterion_1_clean_run_soundness(clean_data):
    report, seconds = clean_data
    s = platoon_preset()
    noiseless = run_monte_carlo(replace(s, controller=replace(s.controller, noise_var=0.0)))
    kl_alarms = int(report.kl_attacked.sum())
    env_alarms = int(report.env_attacked.sum())
    kl_alarms_0 = int(noiseless.kl_attacked.sum())
    env_alarms_0 = int(noiseless.env_attacked.sum())
    ok = kl_alarms == env_alarms == kl_alarms_0 == env_alarms_0 == 0 and seconds < 60.0
    _line(
        1,
        ok,
        f"clean run: {kl_alarms} channel alarms, {env_alarms} envelope alarms "
        f"over {report.kl_attacked.size} edge-steps, runtime {seconds:.2f}s; "
        f"at noise_var 0: {kl_alarms_0} channel alarms (max KL {noiseless.kl_stats.max():.2g}), "
        f"{env_alarms_0} envelope alarms",
    )
    assert kl_alarms == 0
    assert env_alarms == 0
    assert kl_alarms_0 == 0
    assert env_alarms_0 == 0
    assert seconds < 60.0


def test_criterion_2_channel_attack_detection(channel_report):
    r = channel_report
    t = r.scenario.topology
    e = t.edge_index(5, 2)
    hits = int(r.kl_attacked[e, 11:60].sum())  # steps 12..60
    total = 60 - 12 + 1
    rate = hits / total
    others = int(r.kl_attacked.sum()) - int(r.kl_attacked[e].sum())
    ok = rate >= 0.9 and others == 0
    _line(
        2,
        ok,
        f"edge (5,2) above theta for {hits}/{total} steps in [12,60] "
        f"({100 * rate:.1f}%), other-edge channel alarms {others}",
    )
    assert rate >= 0.9
    assert others == 0


def test_criterion_3_byzantine_detection(byzantine_report, clean_data):
    r = byzantine_report
    t = r.scenario.topology
    firsts = {}
    for i in t.out_neighbors(5):
        e = t.edge_index(5, i)
        fired = np.flatnonzero(r.env_attacked[:, e, :].any(axis=0))
        firsts[(5, i)] = int(fired[0]) + 1 if fired.size else None
    clean_env = int(clean_data[0].env_attacked.sum())
    ok = all(f is not None and 20 <= f <= 22 for f in firsts.values()) and clean_env == 0
    _line(
        3,
        ok,
        f"first envelope alarm per edge out of agent 5: "
        f"{sorted((edge, k) for edge, k in firsts.items())}, clean-run envelope alarms {clean_env}",
    )
    for edge, first in firsts.items():
        assert first is not None and 20 <= first <= 22, (edge, first)
    assert clean_env == 0


WINDOWS = ((2, 3), (4, 5), (6, 7))

FLAG_TABLE = {
    (5, 2): ((1, 2), (1, 2), (0, 1)),
    (5, 1): ((0, 0), (0, 1), (0, 1)),
    (5, 3): ((0, 0), (0, 1), (0, 1)),
    (5, 4): ((0, 0), (0, 1), (0, 1)),
}

LABELS_52 = (
    Classification.CHANNEL_ONLY,
    Classification.CHANNEL_ONLY,
    Classification.CHANNEL_ONLY,
    Classification.HYBRID,
    Classification.BYZANTINE_ONLY,
    Classification.BYZANTINE_ONLY,
)


def test_criterion_4_hybrid_classification(hybrid_report):
    r = hybrid_report
    t = r.scenario.topology
    failures = []
    for e, edge in enumerate(t.edges):
        per_window = FLAG_TABLE.get(edge, ((0, 0),) * 3)
        for w, (ka, kb) in enumerate(WINDOWS):
            exp = per_window[w]
            prev = per_window[w - 1] if w else (0, 0)
            for k in (ka, kb):
                got = tuple(int(v) for v in r.flags[k - 1, e])
                if got == exp:
                    continue
                if k == ka and exp != prev:
                    continue  # one step of latency at a window transition
                failures.append((edge, k, got, exp))
    e52 = t.edge_index(5, 2)
    got_labels = tuple(r.classifications[k - 1][e52] for k in range(2, 8))
    labels_ok = got_labels == LABELS_52
    ok = not failures and labels_ok
    _line(
        4,
        ok,
        f"flag mismatches {failures or 'none'}; (5,2) classified "
        + "/".join(c.value for c in got_labels[1::2]),
    )
    assert not failures
    assert labels_ok, got_labels


def test_criterion_5_transient_flatness():
    grid = (0.5, 1.0, 2.0, 5.0)
    rows = transient_sweep(platoon_preset(), grid, probe_step=4)
    wm = [row["watermark_kl"] for row in rows]
    ab = [row["ablation_kl"] for row in rows]
    spread = max(wm) - min(wm)
    increasing = all(a < b for a, b in zip(ab, ab[1:]))
    ok = max(wm) < THETA and spread < 0.25 * THETA and increasing
    _line(
        5,
        ok,
        f"watermark KL max {max(wm):.3g} (spread {spread:.3g} vs allowance "
        f"{0.25 * THETA:.3g}), ablation KL {[f'{v:.3g}' for v in ab]} increasing={increasing}",
    )
    assert max(wm) < THETA
    assert spread < 0.25 * THETA
    assert increasing


# (xi1, lam1, xi2, lam2) applied to a scalar channel; the first five
# sweep the offset variance, the last three the removal floor.
TAMPER_CASES = {
    1: (0.5, 0.0, 0.3, 0.0),
    2: (1.0, 0.0, 0.3, 0.0),
    3: (1.0, 1.0, 0.3, 0.0),
    4: (0.5, 0.0, 1.0, 0.0),
    5: (0.5, 0.0, 1.0, -1.0),
    6: (1.0, 1.0, 1.0, -1.0),
    7: (1.0, 1.0, 1.0, 0.0),
    8: (1.0, 0.0, 1.0, -1.0),
}


def _tampered_kl(wp: WatermarkParams, case, rng, n=400) -> float:
    xi1, lam1, xi2, lam2 = case
    y = 10.0 + 2.0 * rng.standard_normal(n)
    m1 = wp.lambda1 + wp.sigma2_m1 * rng.standard_normal(n) ** 2
    m2 = wp.lambda2 + wp.sigma2_m2 * rng.standard_normal(n) ** 2
    f1 = np.sqrt(wp.sigma2_f1) * rng.standard_normal(n)
    f2 = np.sqrt(wp.sigma2_f2) * rng.standard_normal(n)
    y1 = xi1 * y + m1 * ((xi1 - 1.0) * f1 + lam1)
    y2 = xi2 * y + m2 * ((xi2 - 1.0) * f2 + lam2)
    return estimate_kl(y1[:, None], y2[:, None])


def test_criterion_6_divergence_monotonicity():
    bad = []
    for case_id, case in TAMPER_CASES.items():
        medians = []
        for gi in range(3):
            if case_id <= 5:
                g = (10.0, 100.0, 1000.0)[gi]
                wp = WatermarkParams(2.0, 5.0, 7.2, 4.3, math.sqrt(g), g)
            else:
                lam2 = (5.0, 25.0, 125.0)[gi]
                wp = WatermarkParams(math.sqrt(lam2), lam2, 7.2, 4.3, 2.0, 3.5)
            kls = [
                _tampered_kl(wp, case, np.random.default_rng([7, case_id, gi, seed]))
                for seed in range(50)
            ]
            medians.append(float(np.median(kls)))
        if not medians[0] < medians[1] < medians[2]:
            bad.append((case_id, [round(m, 3) for m in medians]))
    _line(
        6,
        not bad,
        f"{8 - len(bad)}/8 tampering cases with strictly increasing median KL"
        + (f", violations {bad}" if bad else ""),
    )
    assert not bad


def _brute_two_hop(edge_set, n, j, i):
    return tuple(s for s in range(n) if s not in (i, j) and (j, s) in edge_set and (s, i) in edge_set)


def _two_hop_wrong(t, edge_set, n, j, i) -> bool:
    return two_hop_relays(t, j, i) != _brute_two_hop(edge_set, n, j, i)


def test_criterion_7_oracle_suites():
    rng = np.random.default_rng(20260821)

    # closed-form KL against numerical integration
    worst_kl = 0.0
    for _ in range(100):
        mu_a, mu_b = rng.uniform(-3, 3, size=2)
        var_a, var_b = rng.uniform(0.3, 4.0, size=2)
        closed = gaussian_kl(mu_a, var_a, mu_b, var_b)
        worst_kl = max(worst_kl, abs(closed - kl_by_quadrature(mu_a, var_a, mu_b, var_b)))

    # two-hop relay sets: exhaustive digraph families up to 4 nodes, then
    # random graphs at 5, 6 and 12 nodes (the full 6-node family is
    # 2^30 graphs, far outside a test budget)
    two_hop_checked = 0
    two_hop_bad = 0
    for n in (2, 3, 4):
        pairs = [(j, i) for j in range(n) for i in range(n) if j != i]
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            chosen = [e for e, b in zip(pairs, bits) if b]
            if not chosen:
                continue
            t = build_topology(n, chosen)
            edge_set = set(chosen)
            for j, i in pairs:
                two_hop_checked += 1
                if _two_hop_wrong(t, edge_set, n, j, i):
                    two_hop_bad += 1
    for n, reps in ((5, 400), (6, 400), (12, 100)):
        for _ in range(reps):
            pairs = [(j, i) for j in range(n) for i in range(n) if j != i]
            mask = rng.random(len(pairs)) < rng.uniform(0.1, 0.6)
            chosen = [e for e, b in zip(pairs, mask) if b]
            if not chosen:
                continue
            t = build_topology(n, chosen)
            edge_set = set(chosen)
            for j, i in pairs:
                two_hop_checked += 1
                if _two_hop_wrong(t, edge_set, n, j, i):
                    two_hop_bad += 1

    # norm-splitting inequality on 1e5 random pairs (vectorized)
    rho1 = rng.uniform(0.1, 2.0, size=100_000)
    rho2 = rho1 + rng.uniform(0.0, 10.0, size=100_000)
    g = rng.uniform(rho1[:, None], rho2[:, None], size=(100_000, 4))
    o = rng.uniform(rho1[:, None], rho2[:, None], size=(100_000, 4))
    lhs = np.linalg.norm(g, axis=1) + np.linalg.norm(o, axis=1)
    rhs = np.sqrt((rho1 ** 2 + rho2 ** 2) / rho1 ** 2) * np.linalg.norm(g + o, axis=1)
    lemma_failures = int((lhs > rhs * (1.0 + 1e-12)).sum())

    # watermark round trip on 1e4 random messages
    wp = WatermarkParams(2.0, 5.0, 7.2, 4.3, 2.0, 3.5)
    stream = edge_stream(stream_keys(7, [0], [(5, 2)], STREAM_WATERMARK)[0, 0])
    m, f = (b[:, :, 0] for b in watermark_blocks(stream.standard_normal((10_000, 4, 1, 3)), wp))  # (10_000, 2, 3)
    plains = rng.uniform(-200.0, 1230.0, size=(10_000, 1, 3))
    back = m * (plains / m + f - f)
    roundtrip_err = float(np.max(np.abs(back - plains)))

    ok = (
        worst_kl < 1e-3
        and two_hop_bad == 0
        and lemma_failures == 0
        and roundtrip_err < 1e-9
    )
    _line(
        7,
        ok,
        f"KL vs quadrature worst {worst_kl:.2e}; two-hop {two_hop_checked} relay sets, "
        f"{two_hop_bad} wrong; norm-splitting failures {lemma_failures}/100000; "
        f"roundtrip worst {roundtrip_err:.2e}",
    )
    assert worst_kl < 1e-3
    assert two_hop_bad == 0
    assert lemma_failures == 0
    assert roundtrip_err < 1e-9


def test_criterion_8_determinism(tmp_path):
    s = platoon_preset("channel")
    names = None
    digests = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        report = run_monte_carlo(s, workers=workers)
        paths = export_report(report, tmp_path / tag)
        names = [p.name for p in paths]
        digests.append([p.read_bytes() for p in paths])
    same_seed = all(x == y for x, y in zip(digests[0], digests[1]))
    across_workers = all(x == y for x, y in zip(digests[0], digests[2]))
    ok = same_seed and across_workers
    _line(
        8,
        ok,
        f"{len(names)} CSV files byte-identical across repeat runs ({same_seed}) "
        f"and across 1 vs 4 workers ({across_workers})",
    )
    assert same_seed
    assert across_workers
