"""Scenario loading, the reference platoon preset, run orchestration.

A scenario JSON has sections topology / model / controller / watermark
/ detectors / attacks / run, plus an optional variants table whose
entries swap in alternative attack sections. Validation failures name
the offending field by path (for example "detectors.kl.theta"). The
loader checks the document's types; graph.Topology checks the graph
rules and engine.Scenario every run rule (the gain lengths, the run
ranges, the initial states, the attacks and their local budget), so one
built through dataclasses.replace fails as the same ScenarioError.

run_monte_carlo simulates the batch, rejects a run whose states are
not finite, and pools each step over trials: the KL statistic of every
edge and the residuals of both copies, reduced as one (trials, 2,
edges) block read in place from the recovered-copy slab. A KL or
residual that is not finite, from a tampered copy that overflows,
rejects the run too. Whole (edge, step) arrays then pass between stages:
envelope ratios against each edge's frozen reference, one
flag-protocol round per step into a (K, E) flag and label array,
scored against attacks.activity in one comparison. export_report
writes the traces as CSV: each (step, edge) row key "k,j,i" is
formatted once and shared by the three detector traces, and every
value goes through tolist, so a float is written as its shortest
round-trip repr. All exported numbers are pure functions of (scenario,
master_seed) per machine, independent of worker count. Across machines
two operations may move their last bits: detectors._kl_sum's np.log,
which numpy dispatches to SIMD code picked for the CPU, and the step
kernel's BLAS contraction diff @ K2, whose rounding follows the OpenBLAS
core picked at run time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attacks import (
    AttackScenario,
    ByzantineBehavior,
    ChannelAttack,
    Schedule,
    activity,
    window_rows,
)
from .detectors import (
    VAR_FLOOR,
    EnvelopeConfig,
    KlDetectorConfig,
    edge_residual,
    envelope_verdict,
    estimate_kl,
    gaussian_kl,
    kl_verdict,
)
from .dynamics import (
    ControllerParams,
    StateBounds,
    companion_model,
    compute_state_bounds,
    eta_curve,
    platoon_model,
    settling_step,
)
from .engine import Scenario, ScenarioError, SimData, simulate
from .graph import LEADER, LocalAttackBudget, build_topology
from .hybrid import Classification, run_protocol_step
from .watermark import WatermarkParams


@dataclass
class RunReport:
    """Pooled detector traces and protocol output for one run.

    Arrays are indexed by the scenario's edge order; step axes cover
    message steps 1..horizon (index k-1).
    """

    scenario: Scenario
    bounds_used: StateBounds
    eta: np.ndarray  # (horizon+1,)
    kl_stats: np.ndarray  # (E, K)
    kl_attacked: np.ndarray  # (E, K) bool
    residuals: np.ndarray  # (2, E, K)
    env_stats: np.ndarray  # (2, E, K) ratio of residual to threshold
    env_attacked: np.ndarray  # (2, E, K) bool
    env_tested: np.ndarray  # (E, K) bool
    flags: np.ndarray  # (K, E, 2) int
    classifications: np.ndarray  # (K, E) Classification objects
    summary: dict

    @property
    def horizon(self) -> int:
        return self.kl_stats.shape[1]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _get(section, key, path, kind=None, default=None):
    """section[key] checked against kind; required when no default is
    given. A bool passes only as bool and a float only when finite."""
    if key not in section:
        if default is None:
            raise ScenarioError(f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if kind is not None and (
        not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
    ):
        kname = kind[0].__name__ if isinstance(kind, tuple) else kind.__name__
        raise ScenarioError(f"{path}.{key}", f"expected {kname}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return value


def _num(section, key, path, default=None) -> float:
    """A finite number; required when no default is given."""
    return float(_get(section, key, path, (int, float), default))


def _vector(value, path, n=None) -> list[float]:
    """A list of finite numbers, of length n when n is given."""
    if not isinstance(value, list) or not all(_is_finite(v) for v in value):
        raise ScenarioError(path, "expected a list of finite numbers")
    if n is not None and len(value) != n:
        raise ScenarioError(path, f"expected {n} components, got {len(value)}")
    return [float(v) for v in value]


def _given(section, path, keys, kind=None) -> dict:
    """{key: value} for those keys that section names, each checked by
    _get (a finite float without a kind). A key it leaves out is not
    passed on, so the type's own default applies."""
    return {k: _get(section, k, path, kind) if kind else _num(section, k, path) for k in keys if k in section}


def _build(path, factory, *args, **kwargs):
    """factory(*args, **kwargs), its ValueError reported at path."""
    try:
        return factory(*args, **kwargs)
    except ValueError as err:
        raise ScenarioError(path, str(err)) from None


def _section(doc, key, path=""):
    prefix = f"{path}.{key}" if path else key
    sec = doc.get(key)
    if not isinstance(sec, dict):
        raise ScenarioError(prefix, "missing or malformed section")
    return sec, prefix


def _entries(sec, key, path):
    """The list sec[key], empty when absent; every entry an object."""
    items = _get(sec, key, path, list, default=[])
    for idx, d in enumerate(items):
        if not isinstance(d, dict):
            raise ScenarioError(f"{path}.{key}[{idx}]", "expected an object")
    return items


def _schedule_from(d, path) -> Schedule:
    if not isinstance(d, dict):
        raise ScenarioError(path, "schedule must be an object with kind and coeffs")
    kind = _get(d, "kind", path, str)
    coeffs = _vector(_get(d, "coeffs", path, list), f"{path}.coeffs")
    return _build(path, Schedule, kind=kind, coeffs=tuple(coeffs))


def _window_from(d, path):
    w = _get(d, "window", path, list)
    if len(w) != 2 or not _is_int(w[0]) or not (w[1] is None or _is_int(w[1])):
        raise ScenarioError(f"{path}.window", "window must be [start, stop], integers or a null stop")
    return (w[0], w[1])


def _attacks_from(sec, path) -> AttackScenario:
    if not isinstance(sec, dict):
        raise ScenarioError(path, "missing or malformed section")
    bp = f"{path}.budget"
    bud = _get(sec, "budget", path, dict, default={})
    names = {"L": "max_byzantine_neighbors", "P": "max_attacked_channels"}
    budget = _build(bp, LocalAttackBudget, **{names[k]: v for k, v in _given(bud, bp, names, int).items()})
    channel = []
    for idx, d in enumerate(_entries(sec, "channel", path)):
        p = f"{path}.channel[{idx}]"
        edge = _get(d, "edge", p, list)
        if len(edge) != 2 or not all(_is_int(v) for v in edge):
            raise ScenarioError(f"{p}.edge", "edge must be [j, i] with integer agent ids")
        channel.append(
            _build(
                p,
                ChannelAttack,
                edge=(edge[0], edge[1]),
                window=_window_from(d, p),
                xi1=_schedule_from(_get(d, "xi1", p), f"{p}.xi1"),
                lam1=_schedule_from(_get(d, "lam1", p), f"{p}.lam1"),
                xi2=_schedule_from(_get(d, "xi2", p), f"{p}.xi2"),
                lam2=_schedule_from(_get(d, "lam2", p), f"{p}.lam2"),
            )
        )
    byzantine = []
    for idx, d in enumerate(_entries(sec, "byzantine", path)):
        p = f"{path}.byzantine[{idx}]"
        offset = _vector(d.get("offset", []), f"{p}.offset")
        byzantine.append(
            _build(
                p,
                ByzantineBehavior,
                agent=_get(d, "agent", p, int),
                window=_window_from(d, p),
                kind=_get(d, "kind", p, str),
                offset=tuple(offset),
                **_given(d, p, ("scale",)),
            )
        )
    return AttackScenario(channel=tuple(channel), byzantine=tuple(byzantine), budget=budget)


def scenario_from_dict(doc: dict, variant: str | None = None, name: str = "scenario") -> Scenario:
    """Validate a scenario document and build the typed Scenario."""
    if variant is not None:
        variants = doc.get("variants")
        if not isinstance(variants, dict) or variant not in (variants or {}):
            known = sorted(variants) if isinstance(variants, dict) else []
            raise ScenarioError("variants", f"unknown variant {variant!r}, available: {known}")
        override = variants[variant]
        if not isinstance(override, dict):
            raise ScenarioError(f"variants.{variant}", "expected an object")
        extra = set(override) - {"attacks"}
        if extra:
            raise ScenarioError(f"variants.{variant}", f"only 'attacks' may be overridden, got {sorted(extra)}")
        doc = {**doc, "attacks": override.get("attacks", {})}
        name = f"{name}:{variant}"

    sec, p = _section(doc, "topology")
    n_agents = _get(sec, "n_agents", p, int)
    edges = _get(sec, "edges", p, list)
    for idx, e in enumerate(edges):
        ok = isinstance(e, list) and len(e) in (2, 3)
        if not ok or not all(map(_is_int, e[:2])) or not all(map(_is_finite, e[2:])):
            raise ScenarioError(f"{p}.edges[{idx}]", "edge must be [j, i] or [j, i, weight], ids integer")
    topology = _build(p, build_topology, n_agents, edges)

    sec, p = _section(doc, "model")
    mtype = _get(sec, "type", p, str)
    if mtype == "platoon":
        model = _build(p, platoon_model, **_given(sec, p, ("delta", "T")))
    elif mtype == "companion":
        model = _build(p, companion_model, _vector(_get(sec, "rho", p, list), f"{p}.rho"))
    else:
        raise ScenarioError(f"{p}.type", f"unknown model type {mtype!r}")
    n = model.n

    sec, p = _section(doc, "controller")
    controller = _build(
        p,
        ControllerParams,
        K1=_vector(_get(sec, "K1", p, list), f"{p}.K1"),
        K2=_vector(_get(sec, "K2", p, list), f"{p}.K2"),
        **_given(sec, p, ("gain_mu", "gain_lambda", "noise_var")),
    )

    wmsec, wmp = _section(doc, "watermark")
    keys = ("lambda1", "lambda2", "sigma2_m1", "sigma2_m2", "sigma2_f1", "sigma2_f2")
    wm = _build(wmp, WatermarkParams, **{key: _num(wmsec, key, wmp) for key in keys})

    sec, p = _section(doc, "detectors")
    klsec, klp = _section(sec, "kl", p)
    envsec, envp = _section(sec, "envelope", p)
    # Retired settings: a document may still name their one remaining value.
    for rsec, rpath, key, only in (
        (wmsec, wmp, "identity", False),
        (klsec, klp, "estimator", "gaussian_fit"),
        (envsec, envp, "factor_mode", "algorithm2"),
    ):
        value = rsec.get(key, only)
        if type(value) is not type(only) or value != only:
            raise ScenarioError(f"{rpath}.{key}", f"only {only!r} is supported, got {value!r}")
    kl_cfg = _build(
        klp,
        KlDetectorConfig,
        theta=_num(klsec, "theta", klp),
        **_given(klsec, klp, ("min_samples",), int),
    )
    env_cfg = _build(envp, EnvelopeConfig, **_given(envsec, envp, ("M_r", "phi", "lambda_min", "delta")))
    bounds = None
    if sec.get("bounds") is not None:
        bsec, bp = _section(sec, "bounds", p)
        bounds = _build(bp, StateBounds, eps1=_num(bsec, "eps1", bp), eps2=_num(bsec, "eps2", bp))

    attacks = _attacks_from(doc.get("attacks") or {}, "attacks")

    sec, p = _section(doc, "run")
    init, ip = _section(sec, "init", p)
    if "states" in init:
        rows = _get(init, "states", ip, list)
        init_states = [_vector(row, f"{ip}.states[{i}]") for i, row in enumerate(rows)]
    else:
        leader_ref = _vector(_get(init, "leader", ip, list), f"{ip}.leader", n)
        spacing = _num(init, "spacing", ip)
        try:
            init_states = np.tile(np.array(leader_ref), (n_agents, 1))
            # A spacing that overflows leaves an inf, which Scenario rejects.
            with np.errstate(over="ignore"):
                init_states[1:, 0] += spacing * np.arange(1, n_agents)
        except (ValueError, MemoryError):
            # numpy refuses an (n_agents, n) array beyond addressable memory.
            raise ScenarioError("topology.n_agents", f"{n_agents} agents x {n} state components cannot be allocated") from None

    return Scenario(
        name=name,
        topology=topology,
        model=model,
        controller=controller,
        watermark=wm,
        kl=kl_cfg,
        envelope=env_cfg,
        bounds=bounds,
        attacks=attacks,
        horizon=_get(sec, "horizon", p, int),
        trials=_get(sec, "trials", p, int),
        master_seed=_get(sec, "master_seed", p, int),
        varsigma=_num(sec, "varsigma", p, 0.05),
        init_states=init_states,
    )


def load_scenario(path, variant: str | None = None) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as err:
        raise ScenarioError(str(path), f"cannot read scenario: {err}") from None
    except json.JSONDecodeError as err:
        raise ScenarioError(str(path), f"invalid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(str(path), "scenario root must be an object")
    return scenario_from_dict(doc, variant=variant, name=path.stem)


# ---------------------------------------------------------------------------
# Reference platoon preset
# ---------------------------------------------------------------------------


def platoon_preset(variant: str | None = None) -> Scenario:
    """Reference vehicle platoon scenario, loaded from the packaged
    presets/platoon.json; variant in {clean, channel, byzantine, hybrid}
    or None for no attacks.

    Tuning behind the file's numbers:

    - Controller. K1 = (0, 0, 1/3) keeps the leader cruising (double
      integrator chain with the acceleration pole at 0.5). K2 =
      (0.1, 1.2, 1) and gain_mu = 0.5 are picked so the zero-noise
      transient settles by step ~12 without destabilizing the degree-5
      follower.
    - Initial fleet. The leader starts at (0, 20, 0) and follower i at
      position -20 i, with velocity offsets (55, -55, 55, 55, 0, 0).
      These merge-speed offsets give the envelope detector its headroom:
      each frozen reference residual is dominated by the initial
      velocity disagreement, which the strong velocity gain burns off
      within a few steps, so later residuals sit far below the latched
      thresholds unless something actually breaks.
    - Bounds. eps1 = -200 and eps2 = 1230 are the componentwise state
      range of the nominal clean run (attacker and detector knowledge),
      frozen from the preset run; regenerate them with
      compute_state_bounds if the preset dynamics change.
    - Attacks. The channel variants tamper with edge (5, 2) through
      sinusoidal schedules. Agent 5's Byzantine lie is a constant
      position offset of 1000, large enough to clear the early-transient
      envelope threshold on every outgoing edge. It is position only:
      the position gain is the weakest controller channel, so the lie
      is loud to the detector while dragging the listeners as little
      as possible.
    """
    return load_scenario(Path(__file__).with_name("presets") / "platoon.json", variant=variant)


# ---------------------------------------------------------------------------
# Run pipeline
# ---------------------------------------------------------------------------


def _require_finite_states(states: np.ndarray) -> None:
    """A ScenarioError unless the (trials, steps+1, agents, n) states are finite."""
    finite = np.isfinite(states).all(axis=(0, 2, 3))
    if not finite.all():
        raise ScenarioError("run", f"the states diverge: not finite from step {int(finite.argmin())} on")


def _nominal_bounds(s: Scenario, workers) -> tuple[StateBounds, SimData | None]:
    """Bounds from the scenario, else from a clean nominal run."""
    if s.bounds is not None:
        return s.bounds, None
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget))
    sim = simulate(clean, workers=workers)
    _require_finite_states(sim.states)
    bounds = _build("detectors.bounds", compute_state_bounds, sim.states)
    return bounds, sim if not s.attacks.channel and not s.attacks.byzantine else None


def _require_finite(*stats: np.ndarray, first_step: int = 1, at: str = "") -> None:
    """A ScenarioError unless every detector statistic is finite; the
    last axis of each array runs over steps from first_step on."""
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=tuple(range(a.ndim - 1))) for a in stats])
    if not finite.all():
        step = first_step + int(finite.argmin())
        raise ScenarioError("run", f"the recovered messages overflow the detectors{at}: first not finite at step {step}")


def run_monte_carlo(s: Scenario, workers: int | None = None) -> RunReport:
    """Simulate, detect, arbitrate; returns the full report."""
    bounds, sim = _nominal_bounds(s, workers)
    if sim is None:
        sim = simulate(s, workers=workers)
        _require_finite_states(sim.states)
    t = s.topology
    E, K = t.n_edges, s.horizon
    residuals = np.empty((2, E, K))
    kl_stats = np.zeros((E, K))
    # A tampered copy can overflow here while the states stay finite;
    # the check after the loop rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            # Residuals of both copies against the receiver state at send
            # time. With the copy axis the trial reduction is never over a
            # 1-D array, which numpy would sum pairwise rather than in order.
            y = sim.ystar[:, k - 1]  # (T, 2, E, n)
            own = sim.states[:, k - 1][:, None, t.dst]  # (T, 1, E, n)
            residuals[:, :, k - 1] = edge_residual(y, np.broadcast_to(own, y.shape))
            if s.trials >= s.kl.min_samples:
                for e in range(E):
                    kl_stats[e, k - 1] = estimate_kl(y[:, 0, e], y[:, 1, e])
    _require_finite(kl_stats, residuals)
    kl_attacked = kl_verdict(kl_stats, s.kl)

    # Each edge's envelope reference is its residual at the first step
    # the channel detector believes clean, and the envelope tests every
    # later step. Refreshing the reference later would let a single
    # missed attack step poison the baseline.
    clean_so_far = np.logical_or.accumulate(~kl_attacked, axis=1)
    env_tested = np.zeros_like(clean_so_far)
    env_tested[:, 1:] = clean_so_far[:, :-1]
    first_clean = clean_so_far & ~env_tested  # at most one step per edge
    d_ref = np.where(first_clean, residuals, 0.0).sum(axis=2, keepdims=True)
    ratio = envelope_verdict(residuals, d_ref, np.arange(1, K + 1), s.envelope, bounds)
    env_stats = np.where(env_tested, ratio, 0.0)
    env_attacked = env_stats > 1.0

    env_any = env_attacked.any(axis=0)
    flags = np.zeros((K, E, 2), dtype=np.int64)
    classifications = np.empty((K, E), dtype=object)
    for k in range(1, K + 1):
        flags[k - 1], classifications[k - 1] = run_protocol_step(kl_attacked[:, k - 1], env_any[:, k - 1], t)

    eta = eta_curve(sim.states)
    summary = _summarize(s, eta, kl_attacked, env_attacked, classifications)
    return RunReport(
        scenario=s,
        bounds_used=bounds,
        eta=eta,
        kl_stats=kl_stats,
        kl_attacked=kl_attacked,
        residuals=residuals,
        env_stats=env_stats,
        env_attacked=env_attacked,
        env_tested=env_tested,
        flags=flags,
        classifications=classifications,
        summary=summary,
    )


def _summarize(s: Scenario, eta, kl_attacked, env_attacked, classifications) -> dict:
    t = s.topology
    K = kl_attacked.shape[1]
    chan_truth, byz_truth = (m.T for m in activity(s.attacks, t, K))
    env_any = env_attacked.any(axis=0)
    clean = ~chan_truth & ~byz_truth
    n_clean = float(clean.sum())
    summary = {
        "false_alarm_rate": (
            float(((kl_attacked | env_any) & clean).sum()) / n_clean if n_clean else math.nan
        ),
        "false_alarm_kl_steps": float((kl_attacked & ~chan_truth).sum()),
        "false_alarm_envelope_steps": float((env_any & clean).sum()),
        "kl_detection_rate": float(kl_attacked[chan_truth].mean()) if chan_truth.any() else math.nan,
        "envelope_detection_rate": (
            float(env_any[byz_truth & ~chan_truth].mean()) if (byz_truth & ~chan_truth).any() else math.nan
        ),
        "eta_final": float(eta[-1]) if eta.size else math.nan,
    }
    settle = settling_step(eta, s.varsigma)
    summary["settling_step"] = float(settle) if settle is not None else -1.0

    expected = np.select(
        [chan_truth & byz_truth, chan_truth, byz_truth],
        [Classification.HYBRID, Classification.CHANNEL_ONLY, Classification.BYZANTINE_ONLY],
        Classification.NORMAL,
    )
    correct = classifications.T == expected  # (E, K)

    def time_to_detect(window, e) -> float:
        """Steps from the window start to the first correct label inside
        the window, or -1 when the window passes without one."""
        hits = np.flatnonzero(correct[e, window_rows(window, K)])
        return float(hits[0]) if hits.size else -1.0

    for a in s.attacks.channel:
        summary[f"ttd_channel_{a.edge[0]}_{a.edge[1]}"] = time_to_detect(a.window, t.edge_index(*a.edge))
    for bz in s.attacks.byzantine:
        for e in np.flatnonzero(t.src == bz.agent):
            summary[f"ttd_byzantine_{bz.agent}_{t.dst[e]}"] = time_to_detect(bz.window, e)
    return summary


# ---------------------------------------------------------------------------
# Transient sweep
# ---------------------------------------------------------------------------


def transient_sweep(
    s: Scenario,
    initial_error_grid,
    probe_step: int = 4,
    workers: int | None = None,
) -> list[dict]:
    """Transient false-alarm probe across initial error scales.

    For each scale the follower offsets from the leader are multiplied
    by the scale. The attack-free system is simulated up to the probe
    step only, since a step's numbers do not depend on the horizon, and
    in one batch for the whole grid: the random material is drawn once
    and the kernel runs once per scale. Two statistics are evaluated on
    each scale's trajectory at the probe step, each read for all edges
    at once and maximized over them (0.0 without edges):

      watermark_kl: the channel detector's KL between recovered copies
      ablation_kl:  the consensus-residual detector, which reads one
                    copy and ignores the watermark: the KL between the
                    fitted residual (ystar1 - x_i) distribution and the
                    nominal N(0, sigma_1^2 I)

    On a clean channel the recovered copy equals plaintext plus noise up
    to round-off, so the residual is the one an unwatermarked run would
    see. The watermark statistic is transient-blind by construction; the
    ablation statistic grows with the initial disagreement. Every scale
    is checked before anything is drawn: it must be positive and finite
    (a ValueError), and one that overflows the initial states is a
    ScenarioError. A scale whose states diverge or whose statistics
    overflow is a ScenarioError too, reported in grid order.
    """
    if probe_step < 1:
        raise ValueError("probe_step must be at least 1")
    if probe_step > s.horizon:
        raise ValueError(f"probe step {probe_step} beyond horizon {s.horizon}")
    grid = list(initial_error_grid)
    leader = s.init_states[LEADER]
    inits = np.empty((len(grid),) + s.init_states.shape)
    for b, scale in enumerate(grid):
        if not 0 < scale < math.inf:
            raise ValueError(f"initial error scales must be positive and finite, got {scale!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            inits[b] = leader + float(scale) * (s.init_states - leader)
        if not np.isfinite(inits[b]).all():
            raise ScenarioError("run", f"initial error scale {scale!r} overflows the initial states")
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget), horizon=probe_step)
    sim = simulate(clean, workers=workers, inits=inits)
    nominal_var = max(s.controller.noise_var, VAR_FLOOR)
    rows = []
    for b, scale in enumerate(grid):
        _require_finite_states(sim.states[b])
        # A scale this large can overflow the statistics; the check
        # below names it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y1, y2 = sim.ystar[b, :, -1, 0], sim.ystar[b, :, -1, 1]  # (T, E, n) at the probe step
            wm_kl = estimate_kl(y1, y2)
            resid = y1 - sim.states[b, :, -2][:, s.topology.dst]
            mu = resid.mean(axis=0)
            var = np.maximum(resid.var(axis=0), VAR_FLOOR)
            ab_kl = gaussian_kl(mu, var, np.zeros_like(mu), np.full_like(mu, nominal_var))
        _require_finite(wm_kl[:, None], ab_kl[:, None], first_step=probe_step, at=f" at initial error scale {scale!r}")
        rows.append(
            {
                "scale": float(scale),
                "watermark_kl": float(np.max(wm_kl, initial=0.0)),
                "ablation_kl": float(np.max(ab_kl, initial=0.0)),
                "probe_step": int(probe_step),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

EXPORT_NAMES = ("kl_trace.csv", "residual_trace.csv", "envelope_trace.csv", "flags.csv", "eta.csv", "summary.csv")


def _write_csv(path: Path, header: list[str], lines) -> None:
    """The header, then each entry of lines (one or more CSV lines)."""
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def export_report(r: RunReport, out_dir) -> list[Path]:
    """Write the six CSV artifacts; returns their paths.

    Rows run over steps, then edges in topology order, then message
    copies. Files keep their headers even for a zero-step run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = r.scenario.topology
    K, E = r.horizon, t.n_edges
    paths = [out / name for name in EXPORT_NAMES]
    detector = ["k", "edge_j", "edge_i", "detector", "statistic", "decision"]
    verdict = ("secure", "attacked")

    # The "k,j,i" key of every (step, edge) row, step-major, formatted
    # once for the three detector traces; flags.csv names the observer i
    # before the sender j.
    src, dst = t.src.tolist(), t.dst.tolist()
    keys = [f"{k},{j},{i}" for k in range(1, K + 1) for j, i in zip(src, dst)]
    flag_keys = [f"{k},{i},{j}" for k in range(1, K + 1) for j, i in zip(src, dst)]

    kl = zip(keys, r.kl_stats.T.ravel().tolist(), r.kl_attacked.T.ravel().tolist())
    _write_csv(paths[0], detector, [f"{key},kl,{v},{verdict[a]}" for key, v, a in kl])

    def copies(a):
        """The two copies' (step, edge) columns of a (2, E, K) array."""
        return a.transpose(0, 2, 1).reshape(2, K * E).tolist()

    # Two rows per (step, edge), one per message copy, in (K, E, 2) order.
    resid = zip(keys, *copies(r.residuals))
    lines = [f"{key},1,{d1}\n{key},2,{d2}" for key, d1, d2 in resid]
    _write_csv(paths[1], ["k", "edge_j", "edge_i", "msg", "d"], lines)
    env = zip(keys, r.env_tested.T.ravel().tolist(), *copies(r.env_stats), *copies(r.env_attacked))
    lines = [
        f"{key},envelope1,{v1},{verdict[a1]}\n{key},envelope2,{v2},{verdict[a2]}"
        for key, tested, v1, v2, a1, a2 in env
        if tested
    ]
    _write_csv(paths[2], detector, lines)

    flags = zip(flag_keys, *r.flags.reshape(K * E, 2).T.tolist(), np.ravel(r.classifications))
    lines = [f"{key},{p1},{p2},{c.value}" for key, p1, p2, c in flags]
    _write_csv(paths[3], ["k", "i", "j", "phi1", "phi2", "classification"], lines)
    _write_csv(paths[4], ["k", "eta"], [f"{k},{v}" for k, v in enumerate(r.eta.tolist())])
    _write_csv(paths[5], ["metric", "value"], [f"{name},{float(v)}" for name, v in r.summary.items()])
    return paths
