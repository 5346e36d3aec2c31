"""Scenario loading, the reference platoon preset, run orchestration.

A scenario JSON has sections topology / model / controller / watermark
/ detectors / attacks / run, plus an optional variants table whose
entries swap in alternative attack sections. The loader checks keys and
nesting only: an object of a config type has the keys of that type's
signature (a model: type, then its factory's), the ones without a
default required, and an unknown or missing key is refused at its path,
naming the known keys. Each leaf goes to its type as written; the type
checks every value by the number rule (_checks), and its refusal is
reported at the object, as "detectors.kl: theta must ...". engine.Scenario
checks every run rule (the gain lengths, the run section's values, the
run.init.states rows, the attacks and their local budget), so one built
through dataclasses.replace fails as the same ScenarioError.

run_monte_carlo simulates the batch with a sink, so it never holds the
recovered copies of the whole run: simulate hands them over one step
block at a time, and the sink pools each block over trials in place:
copy 1's residuals in sub-blocks of steps of about ETA_BLOCK_BYTES,
copy 2's at the block's tampered pairs alone (elsewhere it is copy 1),
and the KL statistic by one estimate_kl call per (step, edge). The run
keeps the whole states, and rejects them if they are not finite; a
run without attacks or bounds takes its bounds from them. A KL or
residual that is not finite, from a tampered copy that overflows,
rejects the run too. Whole (edge, step) arrays
then pass between stages: envelope ratios against each edge's frozen
reference, one flag-protocol round per step into a (K, E) flag and
label array, scored against attacks.activity in one comparison.
export_report writes the traces as CSV: each (step, edge) row key
"k,j,i" is formatted once and shared by the three detector traces, and
every value goes through tolist, so a float is written as its shortest
round-trip repr. All exported numbers are pure functions of (scenario,
master_seed), given the numpy release and the SIMD targets it
dispatches to, and independent of the chunking. The step kernel makes
no BLAS call, and the KL statistic takes its log through math.log, not
numpy's SIMD code picked for the CPU.
"""

from __future__ import annotations

import inspect
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from ._checks import integer, real
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
    ETA_BLOCK_BYTES,
    ControllerParams,
    StateBounds,
    companion_model,
    compute_state_bounds,
    eta_curve,
    platoon_model,
    settling_step,
)
from .engine import Scenario, ScenarioError, simulate
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


def _build(path, factory, *args, **kwargs):
    """factory(*args, **kwargs), its ValueError reported at path."""
    try:
        return factory(*args, **kwargs)
    except ValueError as err:
        raise ScenarioError(path, str(err)) from None


# A reader takes (value, path) and returns what the types take from
# value, or raises a ScenarioError at path.
def _of(ok, expected):
    """A reader of a value that ok accepts. A refused null, bool, string
    or float is shown, any other by its type."""

    def read(v, path):
        if not ok(v):
            got = repr(v) if v is None or isinstance(v, (bool, str, float)) else type(v).__name__
            raise ScenarioError(path, f"expected {expected}, got {got}")
        return v

    return read


_object = _of(lambda v: isinstance(v, dict), "an object")
_list = _of(lambda v: isinstance(v, list), "a list")


def _list_of(reader):
    """A reader of a list, each entry read by reader at path[i]."""
    return lambda v, path: [reader(x, f"{path}[{i}]") for i, x in enumerate(_list(v, path))]


def _or_null(reader):
    """reader, except that null reads as None."""
    return lambda v, path: None if v is None else reader(v, path)


def _fields(sec, path, readers, required=()) -> dict:
    """{key: value} over the keys sec names, in table order, a value read
    by readers[key] at path.key, or as written when that is None. sec
    must be an object naming every required key and no key outside
    readers; each refusal names the known keys."""
    known = list(readers)
    if not isinstance(sec, dict):
        raise ScenarioError(path, f"expected an object with keys {known}, got {type(sec).__name__}")
    prefix = f"{path}." if path else ""
    for key in sec:
        if key not in readers:
            raise ScenarioError(f"{prefix}{key}", f"unknown key, the known keys are {known}")
    for key in required:
        if key not in sec:
            raise ScenarioError(f"{prefix}{key}", f"missing required key, the known keys are {known}")
    return {key: sec[key] if read is None else read(sec[key], f"{prefix}{key}") for key, read in readers.items() if key in sec}


def _keys(factory, readers) -> tuple[dict, list]:
    """factory's parameters in order with their readers (None for a leaf), and those without a default."""
    params = inspect.signature(factory).parameters.values()
    return {p.name: readers.get(p.name) for p in params}, [p.name for p in params if p.default is p.empty]


def _built(factory, **readers):
    """A reader of an object whose keys are factory's parameters, those
    without a default required, passed to factory by name: a sub-object read
    by its reader, a leaf as written. The type's ValueError is reported at the object."""
    table, required = _keys(factory, readers)
    return lambda sec, path: _build(path, factory, **_fields(sec, path, table, required))


# null, like an absent section, means no attacks.
_attacks = _or_null(
    _built(
        AttackScenario,
        channel=_list_of(_built(ChannelAttack, **dict.fromkeys(("xi1", "lam1", "xi2", "lam2"), _built(Schedule)))),
        byzantine=_list_of(_built(ByzantineBehavior)),
        budget=_built(LocalAttackBudget),
    )
)


def _variants(sec, path) -> dict:
    """{name: attacks} of the named variants; a variant names its
    attacks alone."""
    return {
        name: _fields(v, f"{path}.{name}", {"attacks": _attacks}).get("attacks")
        for name, v in _object(sec, path).items()
    }


_MODELS = {"platoon": platoon_model, "companion": companion_model}
_model_type = _of(lambda v: isinstance(v, str) and v in _MODELS, f"a model type, one of {list(_MODELS)}")


def _model(sec, path):
    """The model that sec's type names; its keys are type and the factory's parameters."""
    factory = _MODELS[_model_type(_object(sec, path).get("type"), f"{path}.type")]
    table, required = _keys(factory, {})
    given = _fields(sec, path, {"type": None, **table}, required)
    return _build(path, factory, **{key: v for key, v in given.items() if key != "type"})


_DETECTORS = {
    "kl": _built(KlDetectorConfig),
    "envelope": _built(EnvelopeConfig),
    # null, like an absent entry, derives the bounds from a nominal run.
    "bounds": _or_null(_built(StateBounds)),
}
_RUN = {
    **dict.fromkeys(("horizon", "trials", "master_seed", "varsigma")),
    "init": partial(_fields, readers={"states": None}, required=("states",)),
}
_ROOT = {
    "topology": _built(build_topology),
    "model": _model,
    "controller": _built(ControllerParams),
    "watermark": _built(WatermarkParams),
    "detectors": partial(_fields, readers=_DETECTORS, required=("kl", "envelope")),
    "attacks": _attacks,
    "run": partial(_fields, readers=_RUN, required=("horizon", "trials", "master_seed", "init")),
    "variants": _variants,
}


def scenario_from_dict(doc: dict, variant: str | None = None, name: str = "scenario") -> Scenario:
    """Read every key of the scenario document named name and build the
    typed Scenario, which applies every run rule (module docstring)."""
    given = _fields(_object(doc, name), "", _ROOT, ("topology", "model", "controller", "watermark", "detectors", "run"))
    attacks = given.get("attacks")
    if variant is not None:
        variants = given.get("variants", {})
        if variant not in variants:
            raise ScenarioError("variants", f"unknown variant {variant!r}, available: {sorted(variants)}")
        attacks, name = variants[variant], f"{name}:{variant}"
    detectors, run = given["detectors"], given["run"]
    return Scenario(
        name=name,
        topology=given["topology"],
        model=given["model"],
        controller=given["controller"],
        watermark=given["watermark"],
        kl=detectors["kl"],
        envelope=detectors["envelope"],
        bounds=detectors.get("bounds"),
        attacks=attacks or AttackScenario(),
        init_states=run.pop("init")["states"],
        **run,  # horizon, trials, master_seed, and varsigma when given
    )


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key written twice in it
    rather than keeping its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is written twice in one object")
        obj[key] = value
    return obj


def load_scenario(path, variant: str | None = None) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ScenarioError(str(path), f"cannot read scenario: {err}") from None
    except ValueError as err:  # JSONDecodeError, a repeated key, an integer past Python's digit limit, or not UTF-8
        raise ScenarioError(str(path), f"invalid JSON: {err}") from None
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


def _nominal_bounds(s: Scenario) -> StateBounds | None:
    """Bounds from the scenario, else from a clean nominal run; None for a
    run without attacks, which is its own nominal run."""
    if s.bounds is not None:
        return s.bounds
    if not s.attacks.channel and not s.attacks.byzantine:
        return None
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget))
    states = simulate(clean, sink=lambda *block: None).states  # the copies are not needed
    _require_finite_states(states)
    return _build("detectors.bounds", compute_state_bounds, states)


def _require_finite(*stats: np.ndarray, first_step: int = 1, at: str = "") -> None:
    """A ScenarioError unless every detector statistic is finite; the
    last axis of each array runs over steps from first_step on."""
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=tuple(range(a.ndim - 1))) for a in stats])
    if not finite.all():
        step = first_step + int(finite.argmin())
        raise ScenarioError("run", f"the recovered messages overflow the detectors{at}: first not finite at step {step}")


def run_monte_carlo(s: Scenario) -> RunReport:
    """Simulate, detect, arbitrate; returns the full report."""
    bounds = _nominal_bounds(s)
    t = s.topology
    E, K = t.n_edges, s.horizon
    blocks = []  # (residuals, kl_stats) of each step block
    # Residual steps go in sub-blocks of about ETA_BLOCK_BYTES of
    # recovered copies, as eta_curve takes its steps.
    sub = max(1, ETA_BLOCK_BYTES // max(1, 8 * s.trials * E * s.model.n))

    def reduce_block(k0, states, ys1, ys2, pairs):
        """The residuals and KL statistics of the step block that simulate
        hands over: copy 1 of steps k0+1 .. k0+Kb and copy 2 at pairs."""
        Kb = ys1.shape[1]
        residuals, kl_stats = np.empty((2, E, Kb)), np.zeros((E, Kb))
        blocks.append((residuals, kl_stats))
        pk, pe = pairs.T - [[k0], [0]]  # the pairs' rows in the block
        # A tampered copy can overflow here while the states stay finite;
        # the check after the run rejects it.
        with np.errstate(over="ignore", invalid="ignore"):
            # Residuals against the receiver state at send time.
            for j0 in range(0, Kb, sub):
                y = ys1[:, j0 : j0 + sub]  # (T, sub, E, n)
                x = states[:, k0 + j0 : k0 + j0 + y.shape[1]][:, :, t.dst]
                residuals[0, :, j0 : j0 + y.shape[1]] = edge_residual(y, x).T
            residuals[1] = residuals[0]
            residuals[1, pe, pk] = edge_residual(ys2, states[:, k0 + pk, t.dst[pe]])
            if s.trials >= s.kl.min_samples:
                copy2 = dict(zip(zip(pk.tolist(), pe.tolist()), ys2.swapaxes(0, 1)))  # (j, e): (T, n)
                for j in range(Kb):
                    for e in range(E):
                        y = ys1[:, j, e]
                        kl_stats[e, j] = estimate_kl(y, copy2.get((j, e), y))

    sim = simulate(s, sink=reduce_block)
    residuals = np.concatenate([r for r, _ in blocks], axis=2)
    kl_stats = np.concatenate([kl for _, kl in blocks], axis=1)
    _require_finite_states(sim.states)
    if bounds is None:
        bounds = _build("detectors.bounds", compute_state_bounds, sim.states)
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

    # An edge or agent with more than one window (they never overlap)
    # names each window's entry by its start step.
    per_edge = Counter(a.edge for a in s.attacks.channel)
    per_agent = Counter(bz.agent for bz in s.attacks.byzantine)
    for a in s.attacks.channel:
        at = f"_from_{a.window[0]}" if per_edge[a.edge] > 1 else ""
        summary[f"ttd_channel_{a.edge[0]}_{a.edge[1]}{at}"] = time_to_detect(a.window, t.edge_index(*a.edge))
    for bz in s.attacks.byzantine:
        at = f"_from_{bz.window[0]}" if per_agent[bz.agent] > 1 else ""
        for e in np.flatnonzero(t.src == bz.agent):
            summary[f"ttd_byzantine_{bz.agent}_{t.dst[e]}{at}"] = time_to_detect(bz.window, e)
    return summary


# ---------------------------------------------------------------------------
# Transient sweep
# ---------------------------------------------------------------------------


def transient_sweep(s: Scenario, initial_error_grid, probe_step: int = 4) -> list[dict]:
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

    On a clean channel the recovered copy is plaintext plus noise, so
    the residual is the one an unwatermarked run would see, and the two
    copies are equal. The watermark statistic is 0 by construction; the
    ablation statistic grows with the initial disagreement. Before
    anything is drawn, a scale that is not a positive real or a
    probe_step that is not an integer from 1 to the horizon is a
    ScenarioError on sweep naming it, and a scale that overflows the
    initial states one on run; so is one whose states or statistics
    overflow, in grid order. Both statistics fit a distribution per
    edge, so a sweep needs at least 2 trials; fewer is a ScenarioError
    on run.trials.
    """
    if s.trials < 2:
        raise ScenarioError("run.trials", f"a sweep needs at least 2 trials, got {s.trials}")
    try:
        probe_step = integer(probe_step, "probe_step", 1)
        if probe_step > s.horizon:
            raise ValueError(f"probe_step must be at most the horizon {s.horizon}, got {probe_step}")
        grid = [real(v, f"initial_error_grid[{b}]", 0) for b, v in enumerate(initial_error_grid)]
    except ValueError as err:
        raise ScenarioError("sweep", str(err)) from None
    if not grid:
        return []
    leader = s.init_states[LEADER]
    inits = np.empty((len(grid),) + s.init_states.shape)
    for b, scale in enumerate(grid):
        with np.errstate(over="ignore", invalid="ignore"):
            inits[b] = leader + scale * (s.init_states - leader)
        if not np.isfinite(inits[b]).all():
            raise ScenarioError("run", f"initial error scale {scale!r} overflows the initial states")
    clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget), horizon=probe_step)
    sim = simulate(clean, inits=inits)
    nominal_var = max(s.controller.noise_var, VAR_FLOOR)
    rows = []
    for b, scale in enumerate(grid):
        _require_finite_states(sim.states[b])
        # A scale this large can overflow the statistics; the check
        # below names it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # The clean run tampers no pair, so copy 2 is copy 1.
            y1 = sim.ystar1[b, :, -1]  # (T, E, n) at the probe step
            wm_kl = estimate_kl(y1, y1)
            resid = y1 - sim.states[b, :, -2][:, s.topology.dst]
            mu = resid.mean(axis=0)
            var = np.maximum(resid.var(axis=0), VAR_FLOOR)
            ab_kl = gaussian_kl(mu, var, np.zeros_like(mu), np.full_like(mu, nominal_var))
        _require_finite(wm_kl[:, None], ab_kl[:, None], first_step=probe_step, at=f" at initial error scale {scale!r}")
        rows.append(
            {
                "scale": scale,
                "watermark_kl": float(np.max(wm_kl, initial=0.0)),
                "ablation_kl": float(np.max(ab_kl, initial=0.0)),
                "probe_step": probe_step,
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
