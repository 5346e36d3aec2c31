"""maswatch benchmark: one workload per run, checked, metrics as JSON.

    python3 perfbench/run.py --workload clean_long --seed 20260821 --seconds 25 --trace 0

Run from the root of a source checkout; maswatch is imported from its
src/ directory, nothing needs installing. Workloads: hybrid_scaled,
channel_wide, clean_long, sweep (see perfbench/workloads.py). --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/bench.py). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the same record,
with provenance and every failure, goes to .perfbench_out/.

The run is pinned to one worker thread and one BLAS thread. It exits
with code 2, printing no result, when the checkout has no maswatch
sources.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED_ENV = {
    "MASWATCH_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260821, help="master_seed of every operation")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "maswatch" / "__init__.py").is_file():
        print(f"no maswatch sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import maswatch

    if not Path(maswatch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"maswatch imported from {maswatch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
