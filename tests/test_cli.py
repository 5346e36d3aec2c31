"""Command line interface: run, check-graph, sweep."""

from __future__ import annotations

import json

import pytest

from maswatch.cli import main

from _scenarios import overflowing_tamper_doc, small_doc


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "small.json"
    p.write_text(json.dumps(small_doc()))
    return p


def test_run_writes_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        ["run", "--scenario", str(scenario_file), "--trials", "4", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "4 trials, horizon 8" in captured
    assert "false_alarm_rate" in captured
    for name in ("kl_trace.csv", "flags.csv", "summary.csv"):
        assert (out / name).is_file()


def test_run_seed_override_changes_numbers(scenario_file, tmp_path, capsys):
    main(["run", "--scenario", str(scenario_file), "--seed", "1", "--out", str(tmp_path / "a")])
    main(["run", "--scenario", str(scenario_file), "--seed", "1", "--out", str(tmp_path / "b")])
    main(["run", "--scenario", str(scenario_file), "--seed", "2", "--out", str(tmp_path / "c")])
    read = lambda d: (tmp_path / d / "kl_trace.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_run_rejects_bad_scenario(tmp_path, capsys):
    doc = small_doc()
    del doc["detectors"]["kl"]["theta"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "scenario validation failed" in capsys.readouterr().err


def _eps2_zero(doc):
    doc["detectors"]["bounds"] = {"eps1": -1, "eps2": 0}


def _diverging(doc):
    doc["run"]["horizon"] = 800
    doc["model"]["rho"] = [0.5, 1.6]


def _overflowing_tamper(xi2):
    def edit(doc):
        doc["attacks"] = overflowing_tamper_doc(xi2)["attacks"]

    return edit


OVERFLOW = "run: the recovered messages overflow the detectors: first not finite at step 3"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_eps2_zero, "detectors.bounds: eps2 = 0"),
        (_diverging, "run: the states diverge: not finite from step 774 on"),
        (_overflowing_tamper(1e308), OVERFLOW),
        (_overflowing_tamper(1e200), OVERFLOW),
    ],
    ids=["eps2_zero", "diverging", "copy_overflows", "detectors_overflow"],
)
def test_run_exits_2_on_a_scenario_it_cannot_run(tmp_path, capsys, edit, message):
    doc = small_doc(trials=40)
    edit(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"scenario validation failed: {message}")
    assert not (tmp_path / "out").exists()


def test_check_graph(scenario_file, capsys):
    code = main(["check-graph", "--scenario", str(scenario_file), "--L", "1", "--P", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "agents: 3" in out
    assert "spanning tree from leader: True" in out
    assert "two-hop paths" in out


def test_sweep(scenario_file, capsys):
    code = main(
        ["sweep", "--scenario", str(scenario_file), "--grid", "0.5,1,2", "--probe-step", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scale,watermark_kl,ablation_kl,probe_step"
    assert len(lines) == 4


def test_sweep_exits_2_when_a_scale_overflows_the_statistics(scenario_file, capsys):
    # A RuntimeWarning is an error under the suite's filter, so a warning
    # would end this call in a traceback.
    assert main(["sweep", "--scenario", str(scenario_file), "--grid", "1e160", "--probe-step", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "scenario validation failed: run: the recovered messages overflow the detectors"
        " at initial error scale 1e+160: first not finite at step 4\n"
    )


def test_sweep_exits_2_when_a_scale_overflows_the_initial_states(scenario_file, capsys):
    assert main(["sweep", "--scenario", str(scenario_file), "--grid", "1.7e308", "--probe-step", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "scenario validation failed: run: initial error scale 1.7e+308 overflows the initial states\n"


@pytest.mark.parametrize("args", [["run", "--out", "unused"], ["check-graph", "--L", "1", "--P", "1"]], ids=["run", "check_graph"])
def test_init_spacing_that_overflows_exits_2(tmp_path, capsys, args):
    # Under the suite's RuntimeWarning filter an overflow warning would
    # end the call in a traceback instead.
    doc = small_doc()
    doc["run"]["init"]["spacing"] = 1e308
    p = tmp_path / "spacing.json"
    p.write_text(json.dumps(doc))
    assert main([args[0], "--scenario", str(p), *args[1:]]) == 2
    assert capsys.readouterr().err == "scenario validation failed: run.init: initial states must be finite\n"


def test_sweep_rejects_malformed_grid(scenario_file, capsys):
    assert main(["sweep", "--scenario", str(scenario_file), "--grid", "a,b"]) == 2
    assert main(["sweep", "--scenario", str(scenario_file), "--grid", ","]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--trials", "0", "--out", "unused"],
        ["sweep", "--probe-step", "0", "--grid", "1"],
        ["sweep", "--grid", "-1"],
        ["check-graph", "--L", "-1", "--P", "1"],
    ],
    ids=["run_trials", "sweep_probe_step", "sweep_grid", "check_graph_L"],
)
def test_out_of_range_override_exits_2(scenario_file, capsys, args):
    assert main([args[0], "--scenario", str(scenario_file), *args[1:]]) == 2
    assert capsys.readouterr().err.startswith("maswatch: ")


@pytest.mark.parametrize(
    "value, message",
    [("0", "must be at least 1, got 0"), ("abc", "must be an integer, got 'abc'")],
    ids=["zero", "not_an_integer"],
)
@pytest.mark.parametrize(
    "args",
    [["run", "--out", "unused"], ["sweep", "--grid", "1"]],
    ids=["run", "sweep"],
)
def test_bad_worker_count_exits_2(scenario_file, monkeypatch, capsys, args, value, message):
    monkeypatch.setenv("MASWATCH_WORKERS", value)
    assert main([args[0], "--scenario", str(scenario_file), *args[1:]]) == 2
    assert capsys.readouterr().err == f"maswatch: MASWATCH_WORKERS {message}\n"


def test_sweep_has_no_variant_option(scenario_file, capsys):
    # transient_sweep drops the attacks, so a variant would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", str(scenario_file), "--grid", "1", "--variant", "hybrid"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err


@pytest.mark.parametrize("size", [10**12, 10**18], ids=["beyond_memory", "beyond_address_space"])
@pytest.mark.parametrize(
    "args, field, batch",
    [
        (["run", "--out", "unused"], "horizon", "6 trials x {} steps"),
        (["sweep", "--grid", "1"], "trials", "{} trials x 4 steps"),
        (["sweep", "--grid", "1,2"], "trials", "{} trials x 4 steps x 2 initial states"),
    ],
    ids=["run", "sweep", "sweep_two_scales"],
)
def test_huge_horizon_is_a_scenario_error(tmp_path, capsys, args, field, batch, size):
    # numpy refuses either allocation at once, so nothing is allocated.
    # A sweep simulates only up to its probe step (4), so its batch is
    # made huge through the trial count instead; a grid of two scales
    # runs as one batch of two initial-state tables.
    doc = small_doc(**{field: size})
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    assert main([args[0], "--scenario", str(p), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario validation failed: run: ")
    assert batch.format(size) in err
