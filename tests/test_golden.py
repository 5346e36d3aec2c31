"""The preset outputs against the sha256 digests and the decisions in
golden/presets.json.

The four variants' flags.csv hold decisions only, so they are compared
on every machine, and so are the alarm steps of each variant's KL and
envelope detectors. The other digests cover floats whose last bits may
depend on the numpy release and the SIMD targets it dispatches to, so
they are compared only where both match the file's fingerprint. No
BLAS call is on the run path, so the BLAS build and core are not part
of it. A change that moves a digest or a decision regenerates the file
with ``python tests/golden/regen.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import pytest

from golden import regen

GOLDEN = regen.load()


@pytest.fixture(scope="module")
def current():
    return regen.outputs()


def test_flags_match_golden_on_every_machine(current):
    want = {k: v for k, v in GOLDEN["digests"].items() if k.endswith("/flags.csv")}
    assert len(want) == len(regen.VARIANTS)
    assert {k: current["digests"][k] for k in want} == want


def test_alarm_steps_match_golden_on_every_machine(current):
    assert len(GOLDEN["decisions"]) == len(regen.VARIANTS) * len(regen.DETECTORS)
    assert current["decisions"] == GOLDEN["decisions"]


def test_every_digest_matches_golden_on_its_platform(current):
    platform = regen.fingerprint()
    golden = GOLDEN["platform"]
    differ = sorted(k for k in golden.keys() | platform.keys() if golden.get(k) != platform.get(k))
    if differ:
        pytest.skip(f"platform differs from the golden file's in: {', '.join(differ)}")
    assert current["digests"] == GOLDEN["digests"]
