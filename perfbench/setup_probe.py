"""Set-up time of a fresh process, printed in seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py src/maswatch/presets/platoon.json

Times importing maswatch, loading the shipped preset and one 2-trial x
3-step warm-up run, which is what every user pays before a batch.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from dataclasses import replace

    from maswatch import harness

    s = harness.load_scenario(sys.argv[1])
    harness.run_monte_carlo(replace(s, trials=2, horizon=3))
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
