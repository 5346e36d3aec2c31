"""Shared tiny scenario documents for the test suite."""

from __future__ import annotations


def small_doc(horizon=8, trials=6):
    """A three agent companion-model scenario that runs in milliseconds."""
    return {
        "topology": {"n_agents": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        "model": {"type": "companion", "rho": [0.0, 0.0]},
        "controller": {
            "K1": [0.5, 0.5],
            "K2": [0.5, 1.0],
            "gain_mu": 0.5,
            "gain_lambda": 0.6,
            "noise_var": 1.0,
        },
        "watermark": {
            "lambda1": 2.0,
            "lambda2": 5.0,
            "sigma2_m1": 7.2,
            "sigma2_m2": 4.3,
            "sigma2_f1": 2.0,
            "sigma2_f2": 3.5,
        },
        "detectors": {
            "kl": {"theta": 4.61, "min_samples": 3},
            "envelope": {},
            "bounds": {"eps1": -30.0, "eps2": 30.0},
        },
        "attacks": {"budget": {"L": 1, "P": 1}},
        "run": {
            "horizon": horizon,
            "trials": trials,
            "master_seed": 42,
            "init": {"states": [[10.0, 0.0], [8.0, 0.0], [6.0, 0.0]]},
        },
    }


def overflowing_tamper_doc(xi2: float, trials=6):
    """small_doc with edge (0, 1)'s second copy scaled by xi2 from step 3.

    At 1e308 the copy overflows; at 1e200 it stays finite and the
    detectors' squares overflow. The states stay finite either way.
    """
    doc = small_doc(trials=trials)
    one, zero = {"kind": "const", "coeffs": [1.0, 1.0]}, {"kind": "const", "coeffs": [0.0, 0.0]}
    xi = {"kind": "const", "coeffs": [xi2, xi2]}
    doc["attacks"]["channel"] = [{"edge": [0, 1], "window": [3, None], "xi1": one, "lam1": zero, "xi2": xi, "lam2": zero}]
    return doc
