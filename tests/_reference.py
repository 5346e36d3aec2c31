"""The detector pipeline in its plainest form, the slow reference that
run_monte_carlo is checked against bit for bit.

reference_report simulates the batch, takes the bounds from the scenario
or from a clean run, and then pools one step at a time: the residuals of
both copies in one reduction per step, and one estimate_kl call per
(step, edge). Each edge's envelope reference is frozen at its first
clean step. The flag protocol is arbitrated edge by edge through
select_trusted and classify, and eta is transient_metric at every step.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from maswatch.attacks import AttackScenario
from maswatch.detectors import edge_residual, envelope_verdict, estimate_kl, kl_verdict
from maswatch.dynamics import compute_state_bounds, transient_metric
from maswatch.engine import Scenario, simulate
from maswatch.harness import RunReport
from maswatch.hybrid import FlagPair, classify, select_trusted


def reference_step(chan, env, t):
    """Flags and labels edge by edge through select_trusted and classify."""
    flags = np.array(
        [(1, 2) if c else (0, 1) if v else (0, 0) for c, v in zip(chan, env)], dtype=np.int64
    ).reshape(-1, 2)
    labels = []
    for e, (j, i) in enumerate(t.edges):
        own = FlagPair(*flags[e])
        relayed = None
        if own == FlagPair(1, 2):
            jhat = select_trusted(i, j, flags, t)
            if jhat is not None:
                relayed = FlagPair(*flags[t.edge_index(j, jhat)])
        labels.append(classify(own, relayed))
    return flags, labels


def reference_report(s: Scenario) -> RunReport:
    """The report run_monte_carlo returns for s, with an empty summary
    (it is a function of the arrays compared)."""
    bounds = s.bounds
    if bounds is None:
        clean = replace(s, attacks=AttackScenario(budget=s.attacks.budget))
        bounds = compute_state_bounds(simulate(clean).states)
    sim = simulate(s)
    t = s.topology
    E, K = t.n_edges, s.horizon
    residuals = np.empty((2, E, K))
    kl_stats = np.zeros((E, K))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            # The copy axis keeps the trial reduction off 1-D arrays,
            # which numpy would sum pairwise rather than in order.
            y = sim.ystar[:, k - 1]  # (T, 2, E, n)
            own = sim.states[:, k - 1][:, None, t.dst]  # (T, 1, E, n)
            residuals[:, :, k - 1] = edge_residual(y, np.broadcast_to(own, y.shape))
            if s.trials >= s.kl.min_samples:
                for e in range(E):
                    kl_stats[e, k - 1] = estimate_kl(y[:, 0, e], y[:, 1, e])
    kl_attacked = kl_verdict(kl_stats, s.kl)

    # The reference residual is the one at the first step the channel
    # detector believes clean; every later step is tested against it.
    clean_so_far = np.logical_or.accumulate(~kl_attacked, axis=1)
    env_tested = np.zeros_like(clean_so_far)
    env_tested[:, 1:] = clean_so_far[:, :-1]
    first_clean = clean_so_far & ~env_tested
    d_ref = np.where(first_clean, residuals, 0.0).sum(axis=2, keepdims=True)
    ratio = envelope_verdict(residuals, d_ref, np.arange(1, K + 1), s.envelope, bounds)
    env_stats = np.where(env_tested, ratio, 0.0)
    env_attacked = env_stats > 1.0

    flags = np.zeros((K, E, 2), dtype=np.int64)
    classifications = np.empty((K, E), dtype=object)
    for k in range(K):
        flags[k], classifications[k] = reference_step(kl_attacked[:, k], env_attacked[:, :, k].any(axis=0), t)
    return RunReport(
        scenario=s,
        bounds_used=bounds,
        eta=np.array([transient_metric(sim.states, k) for k in range(K + 1)]),
        kl_stats=kl_stats,
        kl_attacked=kl_attacked,
        residuals=residuals,
        env_stats=env_stats,
        env_attacked=env_attacked,
        env_tested=env_tested,
        flags=flags,
        classifications=classifications,
        summary={},
    )
