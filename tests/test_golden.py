"""The preset outputs against the sha256 digests in golden/presets.json.

The four variants' flags.csv hold decisions only, so they are compared
on every machine. The other digests cover floats whose last bits may
depend on numpy's SIMD dispatch and on the OpenBLAS core, so they are
compared only on the platform the file was made on. A change that moves
a digest regenerates the file with ``python tests/golden/regen.py`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import pytest

from golden import regen

GOLDEN = regen.load()


@pytest.fixture(scope="module")
def current():
    return regen.digests()


def test_flags_match_golden_on_every_machine(current):
    want = {k: v for k, v in GOLDEN["digests"].items() if k.endswith("/flags.csv")}
    assert len(want) == len(regen.VARIANTS)
    assert {k: current[k] for k in want} == want


def test_every_digest_matches_golden_on_its_platform(current):
    platform = regen.fingerprint()
    golden = GOLDEN["platform"]
    differ = sorted(k for k in golden.keys() | platform.keys() if golden.get(k) != platform.get(k))
    if differ:
        pytest.skip(f"platform differs from the golden file's in: {', '.join(differ)}")
    assert current == GOLDEN["digests"]
