"""Scenario loading, the reference platoon preset, run orchestration.

A scenario JSON has sections topology / model / controller / watermark
/ detectors / attacks / run, plus an optional variants table whose
entries swap in alternative attack sections. Validation failures name
the offending field by path (for example "detectors.kl.theta").

run_monte_carlo simulates the batch and passes whole (edge, step)
arrays between stages: pooled KL statistics and their alarms, envelope
ratios against each edge's frozen reference, then one flag-protocol
round per step, scored against attacks.activity. export_report writes
the traces as CSV. All exported numbers are pure functions of
(scenario, master_seed), independent of worker count.
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
    validate_attacks,
    window_rows,
)
from .detectors import (
    EnvelopeConfig,
    KlDetectorConfig,
    edge_residual,
    envelope_verdict,
    estimate_kl,
    gaussian_kl,
    kl_verdict,
)
from .dynamics import (
    AgentModel,
    ControllerParams,
    StateBounds,
    companion_model,
    compute_state_bounds,
    eta_curve,
    platoon_model,
    settling_step,
)
from .engine import SimData, simulate
from .graph import LEADER, LocalAttackBudget, Topology, build_topology
from .hybrid import Classification, run_protocol_step
from .watermark import WatermarkParams


class ScenarioError(ValueError):
    """Scenario validation failure; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class Scenario:
    name: str
    topology: Topology
    model: AgentModel
    controller: ControllerParams
    watermark: WatermarkParams
    kl: KlDetectorConfig
    envelope: EnvelopeConfig
    bounds: StateBounds | None
    attacks: AttackScenario
    horizon: int
    trials: int
    master_seed: int
    varsigma: float
    init_states: np.ndarray


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
    classifications: list  # (K, E) Classification
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


def _schedule_from(d, path, n) -> Schedule:
    if not isinstance(d, dict):
        raise ScenarioError(path, "schedule must be an object with kind and coeffs")
    kind = _get(d, "kind", path, str)
    coeffs = _vector(_get(d, "coeffs", path, list), f"{path}.coeffs", n)
    return _build(path, Schedule, kind=kind, coeffs=tuple(coeffs))


def _window_from(d, path):
    w = _get(d, "window", path, list)
    if len(w) != 2 or not _is_int(w[0]) or not (w[1] is None or _is_int(w[1])):
        raise ScenarioError(f"{path}.window", "window must be [start, stop], integers or a null stop")
    return (w[0], w[1])


def _attacks_from(sec, path, n, n_agents) -> AttackScenario:
    if not isinstance(sec, dict):
        raise ScenarioError(path, "missing or malformed section")
    bp = f"{path}.budget"
    bud = _get(sec, "budget", path, dict, default={})
    budget = _build(bp, LocalAttackBudget, _get(bud, "L", bp, int, default=1), _get(bud, "P", bp, int, default=1))
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
                xi1=_schedule_from(_get(d, "xi1", p), f"{p}.xi1", n),
                lam1=_schedule_from(_get(d, "lam1", p), f"{p}.lam1", n),
                xi2=_schedule_from(_get(d, "xi2", p), f"{p}.xi2", n),
                lam2=_schedule_from(_get(d, "lam2", p), f"{p}.lam2", n),
            )
        )
    byzantine = []
    for idx, d in enumerate(_entries(sec, "byzantine", path)):
        p = f"{path}.byzantine[{idx}]"
        agent = _get(d, "agent", p, int)
        if not 0 <= agent < n_agents:
            raise ScenarioError(f"{p}.agent", f"agent {agent} out of range")
        offset = _vector(d.get("offset", []), f"{p}.offset")
        if offset and len(offset) != n:
            raise ScenarioError(f"{p}.offset", f"expected {n} components, got {len(offset)}")
        byzantine.append(
            _build(
                p,
                ByzantineBehavior,
                agent=agent,
                window=_window_from(d, p),
                kind=_get(d, "kind", p, str),
                offset=tuple(offset),
                scale=_num(d, "scale", p, 0.0),
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
        model = _build(p, platoon_model, _num(sec, "delta", p, 1.2), _num(sec, "T", p, 1.0))
    elif mtype == "companion":
        model = _build(p, companion_model, _vector(_get(sec, "rho", p, list), f"{p}.rho"))
    else:
        raise ScenarioError(f"{p}.type", f"unknown model type {mtype!r}")
    n = model.n

    sec, p = _section(doc, "controller")
    controller = _build(
        p,
        ControllerParams,
        K1=np.array(_vector(_get(sec, "K1", p, list), f"{p}.K1", n)),
        K2=np.array(_vector(_get(sec, "K2", p, list), f"{p}.K2", n)),
        gain_mu=_num(sec, "gain_mu", p, 1.0),
        gain_lambda=_num(sec, "gain_lambda", p, 0.6),
        noise_var=_num(sec, "noise_var", p, 0.0),
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
        min_samples=_get(klsec, "min_samples", klp, int, default=30),
    )
    env_cfg = _build(
        envp,
        EnvelopeConfig,
        M_r=_num(envsec, "M_r", envp, 100.0),
        phi=_num(envsec, "phi", envp, 0.16),
        lambda_min=_num(envsec, "lambda_min", envp, 1.0),
        delta=_num(envsec, "delta", envp, 6.0),
    )
    bounds = None
    if sec.get("bounds") is not None:
        bsec, bp = _section(sec, "bounds", p)
        bounds = _build(bp, StateBounds, eps1=_num(bsec, "eps1", bp), eps2=_num(bsec, "eps2", bp))

    attacks = _attacks_from(doc.get("attacks") or {}, "attacks", n, n_agents)
    for a in attacks.channel:
        if a.edge not in topology.edges:
            raise ScenarioError("attacks.channel", f"attack targets unknown edge {list(a.edge)}")

    sec, p = _section(doc, "run")
    horizon = _get(sec, "horizon", p, int)
    if horizon < 0:
        raise ScenarioError(f"{p}.horizon", "horizon must be nonnegative")
    trials = _get(sec, "trials", p, int)
    if trials < 1:
        raise ScenarioError(f"{p}.trials", "need at least one trial")
    master_seed = _get(sec, "master_seed", p, int)
    if master_seed < 0:
        raise ScenarioError(f"{p}.master_seed", "master_seed must be nonnegative")
    varsigma = _num(sec, "varsigma", p, 0.05)
    if varsigma <= 0:
        raise ScenarioError(f"{p}.varsigma", "varsigma must be positive")
    init, ip = _section(sec, "init", p)
    if "states" in init:
        rows = _get(init, "states", ip, list)
        if len(rows) != n_agents:
            raise ScenarioError(f"{ip}.states", f"expected shape ({n_agents}, {n})")
        init_states = np.array([_vector(row, f"{ip}.states[{i}]", n) for i, row in enumerate(rows)])
    else:
        leader_ref = _vector(_get(init, "leader", ip, list), f"{ip}.leader", n)
        spacing = _num(init, "spacing", ip)
        try:
            init_states = np.tile(np.array(leader_ref), (n_agents, 1))
            init_states[1:, 0] += spacing * np.arange(1, n_agents)
        except (ValueError, MemoryError):
            # numpy refuses an (n_agents, n) array beyond addressable memory.
            raise ScenarioError("topology.n_agents", f"{n_agents} agents x {n} state components cannot be allocated") from None

    try:
        offender = validate_attacks(attacks, topology, horizon)
    except ValueError as err:
        raise ScenarioError("attacks", str(err)) from None
    if offender is not None:
        agent, step = offender
        raise ScenarioError(
            "attacks.budget", f"local budget exceeded at agent {agent}, step {step}"
        )

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
        horizon=horizon,
        trials=trials,
        master_seed=master_seed,
        varsigma=varsigma,
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


def _simulate_scenario(s: Scenario, workers=None) -> SimData:
    """simulate(s); a batch too large to allocate is a ScenarioError on run."""
    t = s.topology
    # Bytes of the output slabs. numpy refuses an array of more than
    # intp-max bytes with a ValueError, and one the machine cannot
    # provide with a MemoryError.
    nbytes = 8 * s.trials * s.model.n * ((s.horizon + 1) * t.n_agents + 2 * s.horizon * t.n_edges)
    try:
        if nbytes <= np.iinfo(np.intp).max:
            return simulate(
                s.topology,
                s.model,
                s.controller,
                s.watermark,
                s.attacks,
                s.horizon,
                s.trials,
                s.master_seed,
                s.init_states,
                workers=workers,
            )
    except MemoryError:
        pass
    raise ScenarioError(
        "run", f"{s.trials} trials x {s.horizon} steps need {nbytes} bytes of output slabs, more than can be allocated"
    )


def _nominal_bounds(s: Scenario, workers) -> tuple[StateBounds, SimData | None]:
    """Bounds from the scenario, else from a clean nominal run."""
    if s.bounds is not None:
        return s.bounds, None
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget))
    sim = _simulate_scenario(clean, workers=workers)
    return compute_state_bounds(sim.states), sim if not s.attacks.channel and not s.attacks.byzantine else None


def run_monte_carlo(s: Scenario, workers: int | None = None) -> RunReport:
    """Simulate, detect, arbitrate; returns the full report."""
    bounds, reuse = _nominal_bounds(s, workers)
    sim = reuse if reuse is not None else _simulate_scenario(s, workers=workers)
    t = s.topology
    E, K = t.n_edges, s.horizon
    edge_dst = np.array([i for _, i in t.edges], dtype=np.int64)

    # Residuals of both copies against the receiver state at send time.
    own = sim.states[:, :-1][:, :, edge_dst]  # (T, K, E, n)
    residuals = np.stack([edge_residual(slab, own).T for slab in (sim.ystar1, sim.ystar2)])

    kl_stats = np.zeros((E, K))
    if s.trials >= s.kl.min_samples:
        for k in range(1, K + 1):
            for e in range(E):
                kl_stats[e, k - 1] = estimate_kl(sim.ystar1[:, k - 1, e], sim.ystar2[:, k - 1, e], s.kl)
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
    classifications: list[list[Classification]] = []
    for k in range(1, K + 1):
        flags[k - 1], labels = run_protocol_step(k, kl_attacked[:, k - 1], env_any[:, k - 1], t)
        classifications.append(labels)

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


# Expected label of an edge from (channel tampered, sender Byzantine).
_TRUTH = {
    (False, False): Classification.NORMAL,
    (True, False): Classification.CHANNEL_ONLY,
    (False, True): Classification.BYZANTINE_ONLY,
    (True, True): Classification.HYBRID,
}


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

    def time_to_detect(window, e) -> float:
        """Steps from the window start to the first correct label inside
        the window, or -1 when the window passes without one."""
        rows = window_rows(window, K)
        for r in range(rows.start, rows.stop):
            if classifications[r][e] is _TRUTH[bool(chan_truth[e, r]), bool(byz_truth[e, r])]:
                return float(r - rows.start)
        return -1.0

    for a in s.attacks.channel:
        summary[f"ttd_channel_{a.edge[0]}_{a.edge[1]}"] = time_to_detect(a.window, t.edge_index(*a.edge))
    for bz in s.attacks.byzantine:
        for i in t.out_neighbors(bz.agent):
            summary[f"ttd_byzantine_{bz.agent}_{i}"] = time_to_detect(bz.window, t.edge_index(bz.agent, i))
    return summary


# ---------------------------------------------------------------------------
# Transient sweep
# ---------------------------------------------------------------------------


def _scaled_initials(s: Scenario, scale: float) -> np.ndarray:
    init = s.init_states.copy()
    leader = init[LEADER].copy()
    return leader + scale * (init - leader)


def transient_sweep(
    s: Scenario,
    initial_error_grid,
    probe_step: int = 4,
    workers: int | None = None,
) -> list[dict]:
    """Transient false-alarm probe across initial error scales.

    For each scale the follower offsets from the leader are multiplied
    by the scale and the attack-free system simulated once. Two
    statistics are evaluated on that trajectory at the probe step, each
    maximized over edges:

      watermark_kl: the channel detector's KL between recovered copies
      ablation_kl:  the consensus-residual detector, which reads one
                    copy and ignores the watermark: the KL between the
                    fitted residual (ystar1 - x_i) distribution and the
                    nominal N(0, sigma_1^2 I)

    On a clean channel the recovered copy equals plaintext plus noise up
    to round-off, so the residual is the one an unwatermarked run would
    see. The watermark statistic is transient-blind by construction; the
    ablation statistic grows with the initial disagreement.
    """
    if probe_step < 1:
        raise ValueError("probe_step must be at least 1")
    rows = []
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget))
    for scale in initial_error_grid:
        if scale <= 0:
            raise ValueError("initial error scales must be positive")
        scen = replace(clean, init_states=_scaled_initials(s, float(scale)))
        if probe_step > scen.horizon:
            raise ValueError(f"probe step {probe_step} beyond horizon {scen.horizon}")
        sim = _simulate_scenario(scen, workers=workers)
        edge_dst = [i for _, i in s.topology.edges]
        wm_kl = 0.0
        ab_kl = 0.0
        for e in range(s.topology.n_edges):
            wm_kl = max(
                wm_kl,
                estimate_kl(
                    sim.ystar1[:, probe_step - 1, e, :],
                    sim.ystar2[:, probe_step - 1, e, :],
                    s.kl,
                ),
            )
            resid = sim.ystar1[:, probe_step - 1, e, :] - sim.states[:, probe_step - 1, edge_dst[e], :]
            mu = resid.mean(axis=0)
            var = np.maximum(resid.var(axis=0), 1e-30)
            nominal_var = max(s.controller.noise_var, 1e-30)
            ab_kl = max(
                ab_kl,
                gaussian_kl(mu, var, np.zeros_like(mu), np.full_like(mu, nominal_var)),
            )
        rows.append(
            {
                "scale": float(scale),
                "watermark_kl": float(wm_kl),
                "ablation_kl": float(ab_kl),
                "probe_step": int(probe_step),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def export_report(r: RunReport, out_dir) -> list[Path]:
    """Write the six CSV artifacts; returns their paths.

    Files keep their headers even for a zero-step run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = r.scenario.topology
    K = r.horizon
    paths = []

    rows = []
    for k in range(1, K + 1):
        for e, (j, i) in enumerate(t.edges):
            rows.append(
                (
                    k,
                    j,
                    i,
                    "kl",
                    float(r.kl_stats[e, k - 1]),
                    "attacked" if r.kl_attacked[e, k - 1] else "secure",
                )
            )
    p = out / "kl_trace.csv"
    _write_csv(p, ["k", "edge_j", "edge_i", "detector", "statistic", "decision"], rows)
    paths.append(p)

    rows = []
    for k in range(1, K + 1):
        for e, (j, i) in enumerate(t.edges):
            for rr in range(2):
                rows.append((k, j, i, rr + 1, float(r.residuals[rr, e, k - 1])))
    p = out / "residual_trace.csv"
    _write_csv(p, ["k", "edge_j", "edge_i", "msg", "d"], rows)
    paths.append(p)

    rows = []
    for k in range(1, K + 1):
        for e, (j, i) in enumerate(t.edges):
            if not r.env_tested[e, k - 1]:
                continue
            for rr in range(2):
                rows.append(
                    (
                        k,
                        j,
                        i,
                        f"envelope{rr + 1}",
                        float(r.env_stats[rr, e, k - 1]),
                        "attacked" if r.env_attacked[rr, e, k - 1] else "secure",
                    )
                )
    p = out / "envelope_trace.csv"
    _write_csv(p, ["k", "edge_j", "edge_i", "detector", "statistic", "decision"], rows)
    paths.append(p)

    rows = []
    for k in range(1, K + 1):
        for e, (j, i) in enumerate(t.edges):
            rows.append(
                (
                    k,
                    i,
                    j,
                    int(r.flags[k - 1, e, 0]),
                    int(r.flags[k - 1, e, 1]),
                    r.classifications[k - 1][e].value,
                )
            )
    p = out / "flags.csv"
    _write_csv(p, ["k", "i", "j", "phi1", "phi2", "classification"], rows)
    paths.append(p)

    p = out / "eta.csv"
    _write_csv(p, ["k", "eta"], [(k, float(r.eta[k])) for k in range(r.eta.shape[0])])
    paths.append(p)

    p = out / "summary.csv"
    _write_csv(p, ["metric", "value"], [(name, float(v)) for name, v in r.summary.items()])
    paths.append(p)
    return paths
