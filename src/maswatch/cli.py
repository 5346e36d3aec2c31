"""Command line entry points.

    maswatch run --scenario platoon.json --variant channel \
        --trials 100 --seed 7 --out results/
    maswatch check-graph --scenario platoon.json --L 1 --P 1
    maswatch sweep --scenario platoon.json --grid 0.5,1,2,5 --probe-step 4

Exit code 0 on success, 2 on scenario validation failure or an
out-of-range option. run and sweep take their worker count from
MASWATCH_WORKERS; a value that is not an integer of at least 1 is
also exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .engine import resolve_workers
from .graph import (
    LocalAttackBudget,
    check_hybrid_detectability,
    grounded_laplacian_min_eigenvalue,
    has_spanning_tree,
    two_hop_relays,
)
from .harness import (
    ScenarioError,
    export_report,
    load_scenario,
    run_monte_carlo,
    transient_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maswatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and export CSV traces")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--variant", default=None, help="attack variant name")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument("--out", required=True, help="output directory for CSV artifacts")

    check = sub.add_parser("check-graph", help="report topology health for a budget")
    check.add_argument("--scenario", required=True)
    check.add_argument("--L", type=int, required=True, help="max Byzantine in-neighbors")
    check.add_argument("--P", type=int, required=True, help="max attacked in-channels")

    sweep = sub.add_parser("sweep", help="transient robustness sweep over initial errors")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--grid", required=True, help="comma-separated initial error scales")
    sweep.add_argument("--probe-step", type=int, default=4)
    return parser


def _usage_error(message: str) -> int:
    print(f"maswatch: {message}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    if args.trials is not None and args.trials < 1:
        return _usage_error(f"--trials must be at least 1, got {args.trials}")
    if args.seed is not None and args.seed < 0:
        return _usage_error(f"--seed must be nonnegative, got {args.seed}")
    s = load_scenario(args.scenario, variant=args.variant)
    if args.trials is not None:
        s = replace(s, trials=args.trials)
    if args.seed is not None:
        s = replace(s, master_seed=args.seed)
    report = run_monte_carlo(s, workers=args.workers)
    paths = export_report(report, args.out)
    print(f"scenario {s.name}: {s.trials} trials, horizon {s.horizon}")
    for name, value in report.summary.items():
        print(f"  {name} = {value}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_check_graph(args) -> int:
    if args.L < 0 or args.P < 0:
        return _usage_error(f"--L and --P must be nonnegative, got {args.L} and {args.P}")
    s = load_scenario(args.scenario)
    t = s.topology
    print(f"agents: {t.n_agents}, edges: {t.n_edges}")
    print(f"spanning tree from leader: {has_spanning_tree(t)}")
    print(f"grounded laplacian min eigenvalue: {grounded_laplacian_min_eigenvalue(t)}")
    need, short = check_hybrid_detectability(t, LocalAttackBudget(args.L, args.P))
    for j, i in t.edges:
        count = len(two_hop_relays(t, j, i))
        status = "short" if (j, i) in short else "ok"
        print(f"edge ({j}, {i}): {count} two-hop paths, need {need}: {status}")
    if short:
        print(f"hybrid detectability violated on {len(short)} edge(s): {short}")
    else:
        print("hybrid detectability condition satisfied on every edge")
    return 0


def _cmd_sweep(args) -> int:
    if args.probe_step < 1:
        return _usage_error(f"--probe-step must be at least 1, got {args.probe_step}")
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        return _usage_error(f"invalid grid {args.grid!r}")
    if not grid:
        return _usage_error("empty grid")
    if not all(0 < v < math.inf for v in grid):
        return _usage_error(f"grid scales must be positive and finite, got {args.grid!r}")
    s = load_scenario(args.scenario)
    if args.probe_step > s.horizon:
        return _usage_error(f"--probe-step {args.probe_step} is beyond the horizon {s.horizon}")
    rows = transient_sweep(s, grid, probe_step=args.probe_step, workers=args.workers)
    print("scale,watermark_kl,ablation_kl,probe_step")
    for row in rows:
        print(f"{row['scale']!r},{row['watermark_kl']!r},{row['ablation_kl']!r},{row['probe_step']}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "check-graph": _cmd_check_graph, "sweep": _cmd_sweep}
    if args.command in ("run", "sweep"):
        try:
            args.workers = resolve_workers()
        except ValueError as err:
            return _usage_error(str(err))
    try:
        return handlers[args.command](args)
    except ScenarioError as err:
        print(f"scenario validation failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
