"""Rewrite or check ``presets.json``: the sha256 of every preset output
and the platform fingerprint the digests were made on.

    python tests/golden/regen.py            # rewrite presets.json
    python tests/golden/regen.py --check    # print each entry that differs, exit 1 if any

The outputs are the six CSVs of ``maswatch run`` on each of the four
preset variants, the stdout of ``maswatch sweep --grid 0.5,1,2,5
--probe-step 4`` and the stdout of ``maswatch check-graph --L 1 --P 1``.
The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("presets.json")
PRESET = ROOT / "src" / "maswatch" / "presets" / "platoon.json"
VARIANTS = ("clean", "channel", "byzantine", "hybrid")

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from maswatch.cli import main as maswatch  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = maswatch(argv)
    if code != 0:
        raise RuntimeError(f"maswatch {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def run_digests(variants=VARIANTS) -> dict[str, str]:
    """sha256 of each CSV ``maswatch run`` writes, keyed ``run/<variant>/<file>``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in variants:
            d = Path(tmp) / variant
            _stdout_of(["run", "--scenario", str(PRESET), "--variant", variant, "--out", str(d)])
            for p in sorted(d.iterdir()):
                out[f"run/{variant}/{p.name}"] = _sha256(p.read_bytes())
    return out


def digests() -> dict[str, str]:
    """Every golden digest of this checkout on this machine."""
    out = run_digests()
    sweep = ["sweep", "--scenario", str(PRESET), "--grid", "0.5,1,2,5", "--probe-step", "4"]
    out["sweep"] = _sha256(_stdout_of(sweep))
    out["check-graph"] = _sha256(_stdout_of(["check-graph", "--scenario", str(PRESET), "--L", "1", "--P", "1"]))
    return out


def _openblas_core() -> str | None:
    """The core OpenBLAS's DYNAMIC_ARCH picked at run time, when the
    wheel's bundled library exports the query."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def fingerprint() -> dict:
    """What the exported bytes may depend on besides the source: numpy,
    the BLAS build and core, and the SIMD targets numpy dispatches to."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = blas.get("openblas configuration")
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        config = None
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "openblas_configuration": config,
        "openblas_core": _openblas_core(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of rewriting")
    args = parser.parse_args(argv)
    current = {"platform": fingerprint(), "digests": digests()}
    if not args.check:
        GOLDEN.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    golden = load()
    differ = 0
    for section in ("platform", "digests"):
        for key in sorted(golden[section].keys() | current[section].keys()):
            old, new = golden[section].get(key), current[section].get(key)
            if old != new:
                print(f"{section}.{key}: golden {old}, now {new}")
                differ += 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
