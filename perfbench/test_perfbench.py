"""Tests of the benchmark itself: tiny runs of every workload with their
checks, and the span arithmetic on synthetic spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 20260821
# Small sizes at which every check still holds: the KL detector needs
# 30 trials (100, the preset's own count, for the hybrid flag table),
# criterion 2 counts steps 12..K and criterion 4 reads steps 2..7.
TINY = {
    "hybrid_scaled": (100, 12),
    "channel_wide": (40, 20),
    "clean_long": (40, 30),
    "sweep": (40, 6),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_check_at_tiny_size(name, tmp_path):
    s = workloads.scenario(name, SEED, bench.PRESET, *TINY[name])
    result = workloads.run_op(name, s, tmp_path)
    assert workloads.check(name, s, result) == []


def test_check_catches_a_wrong_output(tmp_path):
    s = workloads.scenario("clean_long", SEED, bench.PRESET, *TINY["clean_long"])
    report, paths = workloads.run_op("clean_long", s, tmp_path)
    report.kl_attacked[3, 7] = True
    report.eta[5] = np.nan
    failures = workloads.check("clean_long", s, (report, paths))
    assert any("eta" in f for f in failures)
    assert any("1 KL" in f for f in failures)


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_every_metric(trace, tmp_path):
    res = bench.measure("hybrid_scaled", SEED, 0.0, trace, *TINY["hybrid_scaled"], out=tmp_path)
    assert res["failed"] == 0 and res["attempted"] >= bench.MIN_OPS
    m = res["metrics"]
    if trace:
        assert res["absent"] == []
        assert (tmp_path / "spans-hybrid_scaled.npz").is_file()
        assert m["engine.simulate_calls"] == 1
        assert m["watermark.stream_calls"] == 100 * 11 * 2  # noise and watermark per trial and edge
        assert m["detectors.kl_calls"] == 12 * 11
        assert m["hybrid.protocol_calls"] == 12
        assert 0 < m["engine.self_s"] < m["engine.simulate_s"] < m["harness.run_s"]
        assert m["engine.alloc_peak_mb"] > 0 and m["harness.alloc_peak_mb"] >= m["engine.alloc_peak_mb"]
    else:
        assert m["run_s"] > 0 and m["peak_rss_mb"] > 0
        assert m["trial_steps_per_s"] == pytest.approx(100 * 12 / m["run_s"])


def test_setup_probe_runs_in_a_fresh_process():
    (seconds,) = bench.measure_setup(1)
    assert seconds > 0


def test_self_time_subtracts_covered_children():
    # 0: [0, 10] with children 1: [1, 3] and 2: [2, 5] overlapping, and
    # 3: [6, 7]; 4: [1.5, 2.5] is a grandchild under 1; 5: [12, 13] is a root.
    start = [0.0, 1.0, 2.0, 6.0, 1.5, 12.0]
    end = [10.0, 3.0, 5.0, 7.0, 2.5, 13.0]
    parent = [-1, 0, 0, 0, 1, -1]
    got = spans.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10 - 4 - 1, 2 - 1, 3, 1, 1, 1])


def test_self_time_clips_children_to_the_parent():
    got = spans.self_times([0.0, -1.0, 3.0], [4.0, 1.0, 9.0], [-1, 0, 0])
    np.testing.assert_allclose(got[0], 4 - 1 - 1)


def test_layer_metrics_take_the_median_over_operations():
    sp = {
        "name": np.array(["engine.simulate", "kernels.step", "engine.simulate", "kernels.step", "kernels.step"]),
        "start": np.array([0.0, 1.0, 0.0, 1.0, 3.0]),
        "end": np.array([4.0, 2.0, 8.0, 2.0, 5.0]),
        "parent": np.array([-1, 0, -1, 2, 2]),
        "op": np.array([1, 1, 2, 2, 2]),
        "value": np.zeros(5),
    }
    sp["self"] = spans.self_times(sp["start"], sp["end"], sp["parent"])
    m = spans.layer_metrics(sp, [1, 2])
    assert m["engine.simulate_s"] == 6.0  # median of 4 and 8
    assert m["engine.self_s"] == 4.0  # median of 3 and 5
    assert m["kernels.step_calls"] == 1.5
    assert m["detectors.kl_calls"] == 0.0


def test_missing_target_is_absent_and_others_still_wrap():
    mod = types.ModuleType("perfbench_fake")
    mod.present = lambda x: x + 1
    sys.modules[mod.__name__] = mod
    try:
        targets = (
            spans.Target("fake.present", mod.__name__, ("present",)),
            spans.Target("fake.gone", mod.__name__, ("gone",)),
            spans.Target("fake.module", "perfbench_no_such_module", ("f",)),
        )
        rec = spans.Recorder()
        original = mod.present
        with spans.installed(rec.wrap, targets) as absent:
            assert mod.present(1) == 2
        assert absent == {"fake.gone", "fake.module"}
        assert mod.present is original
        assert rec.name == ["fake.present"]
    finally:
        del sys.modules[mod.__name__]
