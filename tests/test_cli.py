"""Config parsing and the four command-line subcommands."""

import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import patchlab
from patchlab import BlackBoxFunction, PdeSpec, main
from patchlab.config import ConfigError, parse_config, render_config
from patchlab.runner import EXPERIMENTS

MINIMAL_PROJECTIVE = """
[experiment]
name = projective
seed = 7

[parameters]
n_steps = 200
"""

FAST_PATCH = """
[experiment]
name = patch
seed = 3

[parameters]
pde = heat
lifting = central_d2
n_points = 16
probe_steps = 50
grids = 16, 32
final_time = 0.1
expect_stability = stable
expect_order = 2.0
"""

FAST_ORDER = """
[experiment]
name = order-detect
seed = 0

[parameters]
target = heat
n_perturb = 256
expected_order = 2
"""

FAST_KP = """
[experiment]
name = kp

[parameters]
deltas = 1.0
n_trajectories = 2
n_modes = 32
calibrate = false
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------- parsing


def test_parse_fills_defaults():
    cfg = parse_config(MINIMAL_PROJECTIVE)
    assert cfg.experiment == "projective"
    assert cfg.seed == 7
    assert cfg.parameters["n_steps"] == 200
    assert cfg.parameters["ensemble_size"] == 10
    assert cfg.parameters["dt_macro"] == 0.1
    assert cfg.parameters["drift"] == "zero"
    assert cfg.output == ""
    assert cfg.output_dir() == "projective_out"


def test_parse_render_roundtrip():
    cfg = parse_config(FAST_PATCH)
    again = parse_config(render_config(cfg))
    assert again.experiment == cfg.experiment
    assert again.seed == cfg.seed
    for key, value in cfg.parameters.items():
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(again.parameters[key])
        else:
            assert again.parameters[key] == value


def test_parse_band_list():
    cfg = parse_config(
        "[experiment]\nname = kp\n[parameters]\ndeltas = 1.0, 0.05\n"
        "gamma_bands = 1.7:2.1, 0.8:1.2\n"
    )
    assert cfg.parameters["deltas"] == (1.0, 0.05)
    assert cfg.parameters["gamma_bands"] == ((1.7, 2.1), (0.8, 1.2))


def test_parse_band_needs_increasing_edges():
    with pytest.raises(ConfigError, match="needs lo < hi"):
        parse_config(
            "[experiment]\nname = kp\n[parameters]\ndeltas = 1.0\n"
            "gamma_bands = 1.2:0.8\n"
        )


@pytest.mark.parametrize("band", ["5:inf", "-inf:inf", "nan:2"])
def test_a_band_with_an_end_that_is_not_finite_fails_before_the_run(tmp_path, capsys, band):
    # an infinite end made every gamma pass (5:inf) or fail (-inf:inf)
    cfg = write(tmp_path, FAST_KP + f"gamma_bands = {band}\n")
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 10: bad value for 'gamma_bands': band '{band}' needs finite ends\n")
    assert not out.exists()


def test_missing_required_keys_are_all_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nname = patch\n[parameters]\nn_points = 8\n")
    assert "'pde'" in str(err.value)
    assert "'lifting'" in str(err.value)


def test_errors_collected_with_line_numbers():
    text = (
        "[experiment]\n"        # 1
        "name = projective\n"   # 2
        "[bogus]\n"             # 3
        "lost = 1\n"            # 4
        "[parameters]\n"        # 5
        "n_steps = ten\n"       # 6
        "mystery = 3\n"         # 7
        "n_steps = 5\n"         # 8  (duplicate of line 6)
        "[experiment]\n"        # 9
        "colour = red\n"        # 10
        "no equals sign\n"      # 11
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "line 3: unknown section [bogus]" in msg
    assert "line 4" in msg
    assert "line 6: bad value for 'n_steps'" in msg
    assert "line 7: unknown key 'mystery'" in msg
    assert "line 8: duplicate key 'n_steps'" in msg
    assert "line 10: unknown key 'colour' in [experiment]" in msg
    assert "line 11: expected 'key = value', got 'no equals sign'" in msg


def test_unknown_experiment_is_fatal():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("[experiment]\nname = quantum\n")


def test_missing_name_is_fatal():
    with pytest.raises(ConfigError, match="missing required key 'name'"):
        parse_config("[experiment]\nseed = 1\n")


def test_bad_seed_and_bad_bool():
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        parse_config("[experiment]\nname = projective\nseed = -1\n")
    with pytest.raises(ConfigError, match="bad value for 'calibrate'"):
        parse_config(
            "[experiment]\nname = kp\n[parameters]\ndeltas = 1.0\ncalibrate = maybe\n"
        )


def test_bad_choice_reported():
    with pytest.raises(ConfigError, match="'drift' must be one of"):
        parse_config("[experiment]\nname = projective\n[parameters]\ndrift = sideways\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# header\n\n[experiment]\nname = projective\n# tail\n")
    assert cfg.experiment == "projective"


def test_readme_config_example_parses():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.experiment == "projective"
    assert cfg.seed == 42
    assert cfg.output == "my_run_dir"
    assert cfg.parameters["drift"] == "ou"


def test_readme_config_key_tables_match_the_schemas():
    from patchlab.config import _KINDS
    from patchlab.runner import EXPERIMENTS, PATCH_PDES, TARGET_PDES

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config keys\n", 1)[1].split("\n## ", 1)[0]
    tables = dict(re.findall(r"^`([a-z-]+)`:\n\n((?:\|.*\n)+)", section, re.M))
    assert list(tables) == list(EXPERIMENTS)
    meanings = {}
    for experiment, table in tables.items():
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[2:]]
        params = EXPERIMENTS[experiment][1]
        assert [row[0] for row in rows] == [f"`{p.name}`" for p in params]
        for param, (_, default, meaning) in zip(params, rows):
            meanings[experiment, param.name] = meaning
            if param.default is None:
                assert default == "*required*", param.name
                continue
            raw = "" if default == "*empty*" else default.strip("`")
            value = _KINDS[param.kind][0](raw)
            assert value == param.default or (
                math.isnan(value) and math.isnan(param.default)
            ), param.name
    # "...; 0: <choice> <default>, <choice> <default>, ..." quotes a table column
    for experiment, key, table, column in [
        ("patch", "dt_ratio", PATCH_PDES, 1),
        ("patch", "final_time", PATCH_PDES, 2),
        ("order-detect", "d_max", TARGET_PDES, 0),
    ]:
        quoted = re.findall(r"(\w+) ([\d.]+)", meanings[experiment, key].split("; 0: ", 1)[1])
        assert {choice: float(default) for choice, default in quoted} == {
            choice: row[column] for choice, row in table.items()
        }, key


def test_every_choice_the_schema_offers_resolves_through_its_table():
    from patchlab.runner import EXPERIMENTS, _order_detect_box, _patch_setup

    choices = {p.name: p.choices for _, params, _ in EXPERIMENTS.values() for p in params
               if p.choices}
    for pde, lifting in itertools.product(choices["pde"], choices["lifting"]):
        p = parse_config(
            f"[experiment]\nname = patch\n[parameters]\npde = {pde}\nlifting = {lifting}\n"
        ).parameters
        spec, cfg, _ = _patch_setup(p, p["n_points"])
        assert spec == getattr(PdeSpec, pde)(1.0)
        assert cfg.lifting.variant == lifting
    for target in choices["target"]:
        p = parse_config(
            f"[experiment]\nname = order-detect\n[parameters]\ntarget = {target}\n"
        ).parameters
        assert isinstance(_order_detect_box(p), BlackBoxFunction), target


def test_readme_quickstart_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"## Library quickstart\n\n```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_hash_after_a_value_is_part_of_it():
    # only whole-line comments exist, so a path may contain '#'
    cfg = parse_config("[experiment]\nname = projective\noutput = runs/#3\n")
    assert cfg.output == "runs/#3"
    assert parse_config(render_config(cfg)) == cfg


# ---------------------------------------------------------------- subcommands


def test_projective_command_runs_clean(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = str(tmp_path / "out")
    assert main(["projective", "--config", cfg, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# patchlab ")
    assert "# experiment = projective" in captured
    assert "wrote" in captured
    assert (tmp_path / "out" / "summary").exists()
    assert (tmp_path / "out" / "config").exists()
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_patch_command_runs_clean(tmp_path):
    cfg = write(tmp_path, FAST_PATCH)
    out = str(tmp_path / "out")
    assert main(["patch", "--config", cfg, "--out", out]) == 0
    summary = (tmp_path / "out" / "summary").read_text()
    assert "stability_is_stable" in summary
    assert "convergence_order" in summary
    assert " fail" not in summary


def test_order_detect_command_runs_clean(tmp_path):
    cfg = write(tmp_path, FAST_ORDER)
    out = str(tmp_path / "out")
    assert main(["order-detect", "--config", cfg, "--out", out]) == 0
    summary = (tmp_path / "out" / "summary").read_text()
    assert "detected_order 2 2" in summary


def test_kp_command_runs_clean(tmp_path):
    cfg = write(tmp_path, FAST_KP)
    out = str(tmp_path / "out")
    assert main(["kp", "--config", cfg, "--out", out]) == 0
    summary = (tmp_path / "out" / "summary").read_text()
    assert "gamma_delta_1p0" in summary
    assert (tmp_path / "out" / "msd_1p0.csv").exists()
    # the step check's largest relative energy error over the trajectories
    value, *rest = next(line.split()[1:] for line in summary.splitlines()
                        if line.startswith("energy_error_delta_1p0 "))
    assert 0.0 < float(value) < 0.005 and rest == ["-", "-", "info"]
    unchecked = write(tmp_path, FAST_KP + "validate_dt = false\n", "unchecked.cfg")
    assert main(["kp", "--config", unchecked, "--out", str(tmp_path / "unchecked")]) == 0
    assert "energy_error" not in (tmp_path / "unchecked" / "summary").read_text()


def test_failed_check_exits_one(tmp_path):
    cfg = write(tmp_path, FAST_ORDER.replace("expected_order = 2", "expected_order = 1"))
    out = str(tmp_path / "out")
    assert main(["order-detect", "--config", cfg, "--out", out]) == 1
    assert "detected_order 2 1 0 fail" in (tmp_path / "out" / "summary").read_text()


def test_unresolved_kp_step_is_a_failed_check(tmp_path):
    # dt = 0.05 delta^2 fails the energy check at delta = 0.02: that is a
    # numerical verdict (exit 1), not a usage error, and the fit is skipped
    text = (
        "[experiment]\nname = kp\nseed = 9\n[parameters]\n"
        "deltas = 0.02\ndt_scale = 0.05\nn_trajectories = 1\ncalibrate = false\n"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 1
    summary = (out / "summary").read_text()
    assert "dt_self_consistent_delta_0p02 false - - fail" in summary
    # the failure detail: the lowest failing trajectory and its energy error
    rows = [line.split() for line in summary.splitlines() if not line.startswith("#")]
    assert [row[0] for row in rows] == [
        "dt_self_consistent_delta_0p02",
        "dt_check_trajectory_delta_0p02",
        "energy_error_delta_0p02",
    ]
    assert rows[1][1:] == ["0", "-", "-", "info"]
    value, *rest = rows[2][1:]
    assert float(value) == pytest.approx(1.405, abs=1e-3)
    assert rest == ["-", "-", "info"]
    assert "gamma_delta_0p02" not in summary
    assert not (out / "msd_0p02.csv").exists()


def test_a_stack_names_its_lowest_failing_trajectory(tmp_path):
    # at seed 141 trajectory 0 passes the energy check (0.0033) and trajectory
    # 1 is the lowest to fail it
    text = (
        "[experiment]\nname = kp\nseed = 141\n[parameters]\n"
        "deltas = 0.02\ndt_scale = 0.0125\nn_trajectories = 4\ncalibrate = false\n"
    )
    out = tmp_path / "out"
    assert main(["kp", "--config", write(tmp_path, text), "--out", str(out)]) == 1
    assert list(summary_lines(out).values()) == [
        "dt_self_consistent_delta_0p02 false - - fail",
        "dt_check_trajectory_delta_0p02 1 - - info",
        "energy_error_delta_0p02 0.005662092159084693 - - info",
    ]


def test_python_dash_m_patchlab_runs_the_cli():
    src = str(pathlib.Path(patchlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "patchlab", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert "usage: patchlab" in done.stdout
    assert "RuntimeWarning" not in done.stderr
    for name, text in [
        ("projective", "coarse projective integration of a scalar SDE"),
        ("patch", "gap-tooth stability probe and grid convergence study"),
        ("order-detect", "black-box spatial order detection"),
        ("kp", "particle-in-random-field displacement exponents"),
    ]:
        assert re.search(rf"^\s+{name}\s+{text}$", done.stdout, re.M), name


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus", "--config", "run.cfg"], ["kp"],
     ["kp", "--config", "run.cfg", "--seed", str(2**64)],
     ["kp", "--config", "run.cfg", "--seed", "abc"]],
    ids=["no-command", "unknown-command", "no-config", "seed-beyond-64-bits",
         "seed-not-an-integer"],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: patchlab")
    if "--seed" in argv:
        assert err.endswith("\npatchlab: error: argument --seed: "
                            "seed must be an unsigned 64-bit integer\n")


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["projective", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_error_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nname = projective\n[parameters]\nbogus = 1\n")
    assert main(["projective", "--config", cfg]) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, parameters, message",
    [
        ("patch", "pde = wave\nlifting = central_d2\n",
         "line 4: 'pde' must be one of 'heat', 'advection', 'biharmonic'"),
        ("kp", "deltas = 1.0, fast\n",
         "line 4: bad value for 'deltas': could not convert string to float: ' fast'"),
        ("patch", "lifting = central_d2\n", "missing required key 'pde' in [parameters]"),
    ],
    ids=["bad-choice", "bad-value", "missing"],
)
def test_a_required_key_is_reported_once(tmp_path, capsys, command, parameters, message):
    # a bad value for a required key used to be reported as missing too
    cfg = write(tmp_path, f"[experiment]\nname = {command}\n[parameters]\n{parameters}")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_command_experiment_mismatch_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    assert main(["kp", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "names experiment 'projective'" in err
    assert "'kp' command" in err


def test_runtime_config_error_exits_two(tmp_path, capsys):
    # band count disagrees with delta count: caught inside the runner
    text = (
        "[experiment]\nname = kp\n[parameters]\n"
        "deltas = 1.0, 0.5\ngamma_bands = 1.7:2.1\n"
        "n_trajectories = 2\nn_modes = 8\ncalibrate = false\n"
    )
    cfg = write(tmp_path, text)
    assert main(["kp", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "gamma_bands" in capsys.readouterr().err


PATCH_PARAMETERS = "[experiment]\nname = patch\n[parameters]\npde = heat\nlifting = central_d2\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("probe_steps = 3\n", "error: patch: probe_steps must be >= 4"),
        ("n_points = 16\ngrids = 32, 32\n", "error: patch: grid sizes must be distinct"),
        ("expect_order = 2.0\n", "error: patch: expect_order needs grids"),
        # a final time the study never reaches used to loop forever
        ("grids = 16, 32\nfinal_time = inf\n",
         "error: patch: final_time must be positive and finite\n"),
        ("grids = 16, 32\nfinal_time = nan\n",
         "error: patch: final_time must be positive and finite\n"),
        # 6.5e16 steps of the 32-point grid, which the study used to count out one by one
        ("grids = 16, 32\nfinal_time = 1e15\n",
         "error: patch: final_time 1e+15 needs more than 10000000 macro steps of 0.061685\n"),
        ("grids = 16, 2\n", "error: patch: grids must be >= 3\n"),
        ("n_points = 2\n", "error: patch: n_points must be >= 3\n"),
        # each derived key is named as set, not by the library argument it becomes
        ("dt_ratio = -1\n", "error: patch: dt_ratio must be positive and finite\n"),
        ("dt_micro_factor = 0\n", "error: patch: dt_micro_factor must be positive and finite\n"),
        ("h_fraction = -1\n", "error: patch: h_fraction must be positive and finite\n"),
        ("h_fraction = 2\n", "error: patch: h_fraction must not exceed 1, got 2\n"),
        ("dt_micro_factor = 2\n", "error: patch: dt_micro_factor must not exceed 1, got 2\n"),
        ("coefficient = nan\n", "error: patch: coefficient must be finite\n"),
    ],
    ids=["probe_steps", "repeated-grids", "order-without-grids", "infinite-final-time",
         "nan-final-time", "unreachable-final-time", "small-grid", "small-n_points",
         "dt_ratio", "dt_micro_factor", "h_fraction", "overlapping-teeth", "long-micro-step",
         "nan-coefficient"],
)
def test_patch_config_errors_exit_two(tmp_path, capsys, extra, message):
    cfg = write(tmp_path, PATCH_PARAMETERS + extra)
    out = tmp_path / "o"
    assert main(["patch", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_order_without_grids_fails_before_any_work(tmp_path, monkeypatch):
    import patchlab.runner as runner

    def no_work(*args, **kwargs):
        raise AssertionError("the run started before its config was checked")

    monkeypatch.setattr(runner, "_patch_setup", no_work)
    cfg = write(tmp_path, PATCH_PARAMETERS + "expect_order = 2.0\n")
    assert main(["patch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "extra",
    ["grids = 16, 2\n", "grids = 16, 32\nfinal_time = 1e15\n", "grids = 16, 32\nfinal_time = -1\n",
     "grids = 16\n", "n_points = 16\ngrids = 32, 32\n"],
    ids=["small-grid", "unreachable-final-time", "negative-final-time", "one-grid",
         "repeated-grid"],
)
def test_bad_patch_config_fails_before_any_work(tmp_path, monkeypatch, extra):
    import patchlab.runner as runner

    calls = []
    for name in ("lift_coefficients", "step_symbol", "seeded_noise_state"):
        def no_work(*args, name=name, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the config was checked")

        monkeypatch.setattr(runner, name, no_work)
    cfg = write(tmp_path, PATCH_PARAMETERS + extra)
    assert main(["patch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert calls == []


def test_patch_reports_the_largest_amplification(tmp_path):
    cfg = write(tmp_path, PATCH_PARAMETERS)
    assert main(["patch", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = {line.split()[0]: line.split()[1:]
            for line in (tmp_path / "o" / "summary").read_text().splitlines()
            if not line.startswith("#")}
    value, expected, tolerance, verdict = rows["amplification_max"]
    assert float(value) == pytest.approx(0.996148, abs=5e-7)
    assert (expected, tolerance, verdict) == ("-", "-", "info")


def test_overflowing_propagator_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nname = patch\n[parameters]\npde = advection\n"
                          "lifting = central_d2\ndt_ratio = 1e200\n")
    out = tmp_path / "o"
    assert main(["patch", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: patch: ") and "dt = " in err[0]
    assert not out.exists()


@pytest.mark.parametrize("target", ["heat", "advection", "biharmonic_d4", "biharmonic_d2"])
def test_overflowing_average_weights_are_a_config_error(tmp_path, capsys, target):
    cfg = write(tmp_path, f"[experiment]\nname = order-detect\n[parameters]\n"
                          f"target = {target}\nd_max = 150\n")
    out = tmp_path / "o"
    assert main(["order-detect", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: order-detect: average weights overflow at degree 150, h = 0.1\n"
    )
    assert not out.exists()


def test_kp_without_samples_fails_before_any_integration(tmp_path, monkeypatch, capsys):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated before n_samples was checked")

    monkeypatch.setattr(runner, "ensemble_velocities", no_run)
    cfg = write(tmp_path, FAST_KP + "n_samples = 0\n")
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: kp: n_samples must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("deltas = 1.0, 0.05, -0.05\n", "delta must be positive and finite"),
        ("deltas = 1.0, inf\n", "delta must be positive and finite"),
        # the fit's window is set by both its ends and total_time, so it names all three
        ("deltas = 1.0\nfit_lag_hi = 0.5\n",
         "fit_lag_lo 0.0001 and fit_lag_hi 0.5 must satisfy "
         "total_time/100 <= fit_lag_lo < fit_lag_hi <= total_time/4 at total_time 0.008"),
        ("deltas = 1.0\nn_lags = 1\n", "n_lags must be >= 2"),
        ("deltas = 1.0\ntotal_time = inf\n", "total_time must be positive and finite"),
        ("deltas = 1.0\ntotal_time = 0\n", "total_time must be positive and finite"),
        ("deltas = 1.0\ndt_scale = nan\n", "dt_scale must be positive and finite"),
        # too many leapfrog steps used to integrate without end; the count is
        # set by total_time, dt_scale and the delta, and the refusal names all three
        ("deltas = 1.0\ndt_scale = 1e-300\n",
         "total_time 0.008 at dt_scale 1e-300 and delta 1 needs more than 10000000 "
         "leapfrog steps of 1e-300"),
        ("deltas = 1.0, 1e-4\n",
         "total_time 0.008 at dt_scale 0.001 and delta 0.0001 needs more than 10000000 "
         "leapfrog steps of 1e-11"),
        ("deltas = 1.0\ntotal_time = 1e308\n",
         "total_time 1e+308 at dt_scale 0.001 and delta 1 needs more than 10000000 "
         "leapfrog steps of 0.001"),
        # the leapfrog scales by 1/delta**2, so the delta is at fault, not dt_scale
        ("deltas = 1.0, 1e-200\n", "delta 1e-200 is too small: 1/delta**2 overflows"),
        ("deltas = 1.0, 1e-160\n", "delta 1e-160 is too small: 1/delta**2 overflows"),
        # equal deltas would write one msd table twice
        ("deltas = 1.0, 1.0\n", "deltas must be distinct, got (1.0, 1.0)"),
    ],
    ids=["negative-delta", "infinite-delta", "lag-window", "one-lag", "infinite-total-time",
         "zero-total-time", "nan-dt_scale", "tiny-dt_scale", "small-delta", "huge-total-time",
         "underflowing-dt", "overflowing-inverse-square", "repeated-delta"],
)
def test_kp_config_errors_fail_before_any_integration(tmp_path, monkeypatch, capsys, recwarn,
                                                     extra, message):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated before its config was checked")

    monkeypatch.setattr(runner, "ensemble_velocities", no_run)
    cfg = write(tmp_path, FAST_KP.replace("deltas = 1.0\n", extra))
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: kp: {message}\n"
    assert not out.exists()
    assert [str(w.message) for w in recwarn] == []


def test_non_finite_kp_start_is_a_config_error(tmp_path, monkeypatch, capsys):
    import patchlab.kp as kp

    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated from a non-finite start")

    monkeypatch.setattr(kp, "_leapfrog", no_run)
    cfg = write(tmp_path, FAST_KP + "x0 = nan\n")
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: kp: x0 must be finite\n"
    assert not out.exists()


def test_overflowing_kp_run_is_a_failed_step_check(tmp_path):
    cfg = write(tmp_path, FAST_KP + "v0 = 1e200\n")
    out = tmp_path / "o"
    # the failing rows report the overflow; numpy does not warn of it as well
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["kp", "--config", cfg, "--out", str(out)]) == 1
    rows = summary_lines(out)
    assert rows["dt_self_consistent_delta_1p0"] == "dt_self_consistent_delta_1p0 false - - fail"
    # a nan energy error fails its own row, as every estimate that is not finite does
    assert rows["energy_error_delta_1p0"] == "energy_error_delta_1p0 nan - - fail"
    assert "gamma_delta_1p0" not in rows


def test_empty_required_list_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nname = kp\n[parameters]\ndeltas =\n")
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 4: 'deltas' needs at least one value\n"
    assert not out.exists()
    # the optional lists may stay empty
    params = parse_config("[experiment]\nname = kp\n[parameters]\ndeltas = 1.0\n"
                          "gamma_bands =\n").parameters
    assert params["gamma_bands"] == ()
    assert parse_config(PATCH_PARAMETERS + "grids =\n").parameters["grids"] == ()


def test_one_lag_step_is_a_config_error(tmp_path, capsys):
    # two samples leave one distinct lag step: no exponent can be fitted
    cfg = write(tmp_path, FAST_KP + "n_samples = 2\n")
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: kp: lags in ")
    assert "two distinct lag steps" in err[0]
    assert not out.exists()


def test_a_velocity_that_does_not_move_is_a_failed_check(tmp_path, capsys):
    # at delta = 1e100 a step changes v by about 1e-100, which rounds to v0
    # exactly: the MSD vanishes, a result at that scale, not a config error
    cfg = write(tmp_path, "[experiment]\nname = kp\nseed = 3\n[parameters]\n"
                          "deltas = 1.0, 1e100\nn_trajectories = 2\nn_modes = 8\n")
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rows = summary_lines(out)
    assert rows["gamma_delta_1e+100"] == "gamma_delta_1e+100 nan - - fail"
    assert rows["gamma_delta_1p0"].endswith(" - - info")
    assert "calibration_ballistic" in rows
    assert sorted(path.name for path in out.glob("*.csv")) == ["msd_1e+100.csv", "msd_1p0.csv"]
    msd = (out / "msd_1e+100.csv").read_text().splitlines()
    assert msd[0] == "lag,msd" and {line.split(",")[1] for line in msd[1:]} == {"0.0"}


def test_a_delta_whose_square_overflows_fails_before_any_integration(tmp_path, monkeypatch,
                                                                     capsys):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated before delta was checked")

    monkeypatch.setattr(runner, "ensemble_velocities", no_run)
    cfg = write(tmp_path, FAST_KP.replace("deltas = 1.0\n", "deltas = 1.0, 1e160\n"))
    out = tmp_path / "o"
    assert main(["kp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: kp: delta 1e+160 is too large: delta**2 overflows\n"
    assert not out.exists()


def test_too_many_one_step_samples_name_n_samples(tmp_path, monkeypatch, capsys):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated before its step count was checked")

    # each sample interval is already a single step, so no dt_scale helps
    monkeypatch.setattr(runner, "ensemble_velocities", no_run)
    cfg = write(tmp_path, FAST_KP.replace("deltas = 1.0\n", "deltas = 0.5\nn_samples = 10000001\n"))
    assert main(["kp", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: kp: n_samples 10000001 needs more than 10000000 leapfrog steps of 8e-10\n")


# one key at a time is set to values that no plan may accept in silence; values
# past a cap are 1e11 or more, so that no plan that wrongly accepts one can run
HOSTILE = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "1e11", "100000000000")
HOSTILE_LISTS = {
    "float_list": ("", "nan", "1.0, nan", "1.0, 1e-4", "1.0, 1.0", "-1", "0", "1e308", "1e-308"),
    "int_list": ("0", "-1", "8, 0", "8, 8", "100000000000"),
    "band_list": ("1:0", "nan:1", "0:inf", "0:1, 1:2, 2:3"),
}
# the keys without a default, which a swept key replaces when it is one of them
REQUIRED = {"patch": {"pde": "heat", "lifting": "central_d2"},
            "order-detect": {"target": "heat"}, "kp": {"deltas": "1.0"}}


def hostile_values(param):
    if param.choices is not None:
        return ("bogus",)
    if param.kind == "bool":
        return ("maybe",)
    return HOSTILE_LISTS.get(param.kind, HOSTILE)


def plan_or_refusal(text):
    """'' when the config plans, else the message of the ValueError that refuses it."""
    try:
        config = parse_config(text)
        EXPERIMENTS[config.experiment][2](config.parameters, config.seed)
    except ValueError as err:
        return str(err)
    return ""


def names_key(message, key):
    # a list key's entries are named in the singular: deltas, delta 1e-200
    return any(re.search(rf"\b{word}\b", message) for word in {key, key.removesuffix("s")})


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_one_hostile_key_plans_or_is_refused_naming_it(name):
    # every outcome is a plan or a ValueError, with no warning, and every
    # refusal names the key that was set
    params = EXPERIMENTS[name][1]
    broken = []
    for param in params:
        for raw in hostile_values(param):
            entries = {**REQUIRED.get(name, {}), param.name: raw}
            text = f"[experiment]\nname = {name}\n[parameters]\n" + "".join(
                f"{key} = {value}\n" for key, value in entries.items())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                message = plan_or_refusal(text)
            if caught or (message and not names_key(message, param.name)):
                broken.append((param.name, raw, message, [str(w.message) for w in caught]))
    assert broken == []


@pytest.mark.parametrize(
    "command, binding, error, stage",
    [("kp", "ensemble_velocities", RuntimeError("boom"), "execute"),
     ("kp", "ensemble_velocities", ValueError("boom"), "execute"),
     ("kp", "checked_delta", RuntimeError("boom"), "plan"),
     # a fit with nothing to fit returns nan, so a ValueError from one is a defect
     ("kp", "msd_exponent", ValueError("boom"), "execute"),
     ("patch", "convergence_order", ValueError("boom"), "execute")],
    ids=["execute-RuntimeError", "execute-ValueError", "plan-RuntimeError",
         "execute-msd_exponent-ValueError", "execute-convergence_order-ValueError"],
)
def test_an_unexpected_error_is_an_internal_error(tmp_path, monkeypatch, capsys, command, binding,
                                                  error, stage):
    import patchlab.runner as runner

    def broken(*args, **kwargs):
        raise error

    # neither a config error (2) nor a failed check (1), and no traceback
    monkeypatch.setattr(runner, binding, broken)
    out = tmp_path / "o"
    text = {"kp": FAST_KP, "patch": FAST_PATCH}[command]
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {command}: internal error in {stage}: {type(error).__name__}('boom')\n")
    assert not out.exists()


def summary_lines(out_dir) -> dict[str, str]:
    """Rendered summary rows by metric name."""
    text = (out_dir / "summary").read_text()
    return {line.split()[0]: line for line in text.splitlines() if not line.startswith("#")}


def test_diverged_projective_run_is_a_failed_check(tmp_path):
    cfg = write(tmp_path, MINIMAL_PROJECTIVE + "noise_amplitude = 1e15\n")
    out = tmp_path / "o"
    assert main(["projective", "--config", cfg, "--out", str(out)]) == 1
    rows = summary_lines(out)
    assert list(rows) == ["effective_noise_std", "diverged_at_step", "macro_steps",
                          "micro_steps_total", "cost_parity_vs_brute_force"]
    assert rows["diverged_at_step"] == "diverged_at_step 1 - - fail"
    assert rows["macro_steps"] == "macro_steps 1 - - info"
    assert rows["micro_steps_total"] == "micro_steps_total 100 - - info"
    assert rows["cost_parity_vs_brute_force"] == "cost_parity_vs_brute_force 0 0 0 pass"
    assert len((out / "trajectory.csv").read_text().splitlines()) == 3


def test_unstable_coarse_chain_fails_before_the_run(tmp_path, monkeypatch, capsys):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("the trajectory ran before its config was checked")

    monkeypatch.setattr(runner, "run_coarse_trajectory", no_run)
    cfg = write(tmp_path, MINIMAL_PROJECTIVE + "drift = ou\nou_rate = 30\n")
    assert main(["projective", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: projective: coarse chain is not mean-reverting")


@pytest.mark.parametrize(
    "parameters, message",
    [
        ("n_steps = 1000\nensemble_size = 1000\n", "only 901 tail points; need at least 1000"),
        ("n_steps = 2000\nnoise_amplitude = 0\n", "expected variance must be positive"),
        ("n_steps = 2000\nnoise_amplitude = 1e160\n",
         "noise_amplitude 1e+160 is too large: the tail variance overflows"),
    ],
    ids=["short", "quiet", "overflow"],
)
def test_untestable_tail_fails_before_the_run(tmp_path, monkeypatch, capsys, parameters, message):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("the trajectory ran before its tail test was checked")

    monkeypatch.setattr(runner, "run_coarse_trajectory", no_run)
    cfg = write(tmp_path, MINIMAL_PROJECTIVE.replace("n_steps = 200\n", "drift = ou\n" + parameters))
    out = tmp_path / "o"
    assert main(["projective", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: projective: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "parameters, message",
    [
        ("n_steps = 1000000000000\n", "n_steps 1000000000000 needs more than 10000000 coarse steps"),
        ("n_steps = 1000000000000\ndrift = ou\n",
         "n_steps 1000000000000 needs more than 10000000 coarse steps"),
        ("ensemble_size = 100000000000\nmicro_steps = 1\ndt_micro = 1e-12\n",
         "ensemble_size*micro_steps 100000000000 needs more than 10000000 member steps per "
         "coarse step"),
    ],
    ids=["n_steps", "n_steps-ou", "ensemble_size"],
)
def test_a_projective_run_past_the_step_cap_fails_before_the_run(tmp_path, monkeypatch, capsys,
                                                                 parameters, message):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("the trajectory ran before its size was checked")

    # each used to fail as an internal MemoryError, or to run for hours
    monkeypatch.setattr(runner, "run_coarse_trajectory", no_run)
    cfg = write(tmp_path, MINIMAL_PROJECTIVE.replace("n_steps = 200\n", parameters))
    out = tmp_path / "o"
    assert main(["projective", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: projective: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("n_steps", [0, 1])
def test_drift_free_run_too_short_for_its_moments_fails_before_the_run(tmp_path, monkeypatch,
                                                                       capsys, n_steps):
    import patchlab.runner as runner

    def no_run(*args, **kwargs):
        raise AssertionError("the trajectory ran before its length was checked")

    # the increment moments need three values, so two steps
    monkeypatch.setattr(runner, "run_coarse_trajectory", no_run)
    cfg = write(tmp_path, MINIMAL_PROJECTIVE.replace("n_steps = 200", f"n_steps = {n_steps}"))
    out = tmp_path / "o"
    assert main(["projective", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: projective: n_steps must be >= 2\n"
    assert not out.exists()


OU_TAIL = "drift = ou\nou_rate = 3\nn_steps = 2000\n"
PATCH_ORDER = "pde = advection\nlifting = central_d2\ngrids = 16, 32\n"


@pytest.mark.parametrize(
    "command, parameters, message",
    [
        # an infinite tolerance would pass every variance, a negative or nan one none
        ("projective", OU_TAIL + "tolerance_fraction = inf\n",
         "tolerance_fraction must be positive and finite"),
        ("projective", OU_TAIL + "tolerance_fraction = -0.1\n",
         "tolerance_fraction must be positive and finite"),
        ("projective", OU_TAIL + "tolerance_fraction = nan\n",
         "tolerance_fraction must be positive and finite"),
        # within an infinite tolerance the fitted order 1.03 would pass a target of 5
        ("patch", PATCH_ORDER + "expect_order = 5\norder_tolerance = inf\n",
         "order_tolerance must be positive and finite"),
        ("patch", PATCH_ORDER + "expect_order = inf\n",
         "expect_order must be finite, or nan for no target"),
        # a start that is not finite would diverge at the first step
        ("projective", "x0 = nan\n", "x0 must be finite"),
        ("projective", "x0 = inf\n", "x0 must be finite"),
        # each used to blame noise_amplitude for a tail variance it read as an overflow
        *[("projective", f"drift = ou\nou_rate = {rate}\nn_steps = 2000\n",
           "ou_rate must be finite") for rate in ("nan", "inf", "-inf")],
        # a finite spectrum whose amplitude 8**1e308 used to overflow inside the run
        ("kp", "deltas = 1.0\nn_trajectories = 2\nn_modes = 8\nspectrum = -1e308\n",
         "spectrum -1e+308 overflows the amplitudes m**-spectrum"),
        # each used to name dt, the argument of derivative_blackbox, not the key
        *[("order-detect", f"target = heat\ndt_micro = {dt}\n",
           "dt_micro must be positive and finite") for dt in ("nan", "0", "-1", "inf")],
        # each size key past the cap on its largest array used to exit 3 as an
        # internal MemoryError, blame another key, or fill memory
        *[(command, f"{parameters}{key} = {value}\n",
           f"{key} {value.split(',')[-1].strip()} needs more than 10000000 array elements")
          for command, parameters, key, value in (
              ("patch", "pde = heat\nlifting = central_d2\n", "n_points", "100000000000"),
              ("patch", "pde = heat\nlifting = central_d2\n", "grids", "32, 100000000000"),
              ("kp", "deltas = 1.0\n", "n_lags", "100000000000"),
              ("kp", "deltas = 1.0\n", "n_modes", "100000000000"),
              ("kp", "deltas = 1.0\n", "n_trajectories", "100000000000"),
              ("order-detect", "target = heat\n", "n_base", "100000000000"),
              ("order-detect", "target = heat\n", "n_perturb", "100000000000"),
              # the propagator of a (d_max + 1)**2 matrix
              ("order-detect", "target = heat\n", "d_max", "100000"))],
    ],
    ids=["infinite-tolerance_fraction", "negative-tolerance_fraction", "nan-tolerance_fraction",
         "infinite-order_tolerance", "infinite-expect_order", "nan-x0", "infinite-x0",
         "nan-ou_rate", "infinite-ou_rate", "negative-infinite-ou_rate", "overflowing-spectrum",
         "nan-dt_micro", "zero-dt_micro", "negative-dt_micro", "infinite-dt_micro",
         "huge-n_points", "huge-grids", "huge-n_lags", "huge-n_modes", "huge-n_trajectories",
         "huge-n_base", "huge-n_perturb", "huge-d_max"],
)
def test_a_vacuous_tolerance_or_target_fails_before_the_run(tmp_path, monkeypatch, capsys,
                                                            command, parameters, message):
    import patchlab.runner as runner

    for name in ("run_coarse_trajectory", "step_symbol", "seeded_noise_state",
                 "ensemble_velocities", "detect_order"):
        def no_run(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran before the config was checked")

        monkeypatch.setattr(runner, name, no_run)
    text = f"[experiment]\nname = {command}\nseed = 0\n[parameters]\n{parameters}"
    out = tmp_path / "o"
    # the error line reports the refusal; numpy does not warn of an overflow as well
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {command}: {message}\n"
    assert not out.exists()


def test_a_step_that_overflows_fails_before_any_probe(tmp_path, monkeypatch, capsys):
    import patchlab.runner as runner

    def no_work(*args, **kwargs):
        raise AssertionError("the run started before the step was checked")

    # the propagator stays finite, but one step of about 1.5e159 overflows
    monkeypatch.setattr(runner, "seeded_noise_state", no_work)
    cfg = write(tmp_path, PATCH_PARAMETERS + "n_points = 16\ndt_ratio = 1e160\n")
    out = tmp_path / "o"
    # the error line reports the overflow; numpy does not warn of it as well
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["patch", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: patch: dt_macro = dt_ratio*dx^2 and dt_micro = dt_micro_factor*dt_macro: "
        "the gap-tooth step is not finite at dt_macro = 1.5421256876702122e+159\n")
    assert not out.exists()


def test_a_study_with_nothing_to_fit_is_a_failed_check(tmp_path, recwarn):
    # u_t = 0: the scheme is exact, so every error is at rounding level
    cfg = write(tmp_path, PATCH_PARAMETERS + "n_points = 16\ncoefficient = 0\ngrids = 8, 16\n")
    out = tmp_path / "o"
    assert main(["patch", "--config", cfg, "--out", str(out)]) == 1
    rows = summary_lines(out)
    assert rows["convergence_order"] == "convergence_order nan - - fail"
    errors = (out / "convergence.csv").read_text().splitlines()
    assert errors[0] == "n_points,dx,error" and len(errors) == 3
    assert all(float(line.split(",")[2]) < 1e-12 for line in errors[1:])
    assert [str(w.message) for w in recwarn] == [
        "excluding non-finite or rounding-dominated errors at grid indices (0, 1)"]


def test_a_diverging_study_is_a_failed_check(tmp_path, capsys):
    # the unstable scheme overflows over 1000 time units: its errors are inf and
    # nan, so there is no order, with or without an expect_order to check
    cfg = write(tmp_path, "[experiment]\nname = patch\n[parameters]\npde = advection\n"
                          "lifting = central_d2\ngrids = 16, 32\nfinal_time = 1000\n")
    out = tmp_path / "o"
    # the exclusion warning is the run's one report of the overflow: numpy's
    # own overflow warnings would be errors here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("always", "excluding non-finite", RuntimeWarning)
        assert main(["patch", "--config", cfg, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == [
        "excluding non-finite or rounding-dominated errors at grid indices (0, 1)"]
    assert summary_lines(out)["convergence_order"] == "convergence_order nan - - fail"
    assert (out / "convergence.csv").read_text().splitlines()[1:] == [
        "16,0.39269908169872414,inf", "32,0.19634954084936207,nan"]


def test_a_box_width_that_overflows_fails_before_any_probe(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write(tmp_path, ORDER_BASE + "halfwidth = 1e308\n")
    assert main(["order-detect", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: order-detect: halfwidth 1e+308 is too large: the box width overflows\n")
    assert not out.exists()


def test_violently_unstable_scheme_is_a_verdict(tmp_path, capsys):
    # one step grows the norm by about 1e197, far past the iterated probe's
    # overflow stop; the verdict reads max|G| all the same
    cfg = write(tmp_path, "[experiment]\nname = patch\n[parameters]\npde = advection\n"
                          "lifting = central_d2\ndt_ratio = 1e100\nexpect_stability = unstable\n")
    out = tmp_path / "o"
    assert main(["patch", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = summary_lines(out)
    assert rows["stability_is_unstable"] == "stability_is_unstable 2 2 0 pass"
    assert float(rows["amplification_max"].split()[1]) > 1e100


@pytest.mark.parametrize("seed", [0, 7])
def test_a_near_threshold_verdict_does_not_depend_on_the_seed(tmp_path, seed):
    # max|G| = 1.0013744 is just above the unstable threshold 1 + 1e-3, where a
    # growth estimate from a seeded noise state fell on either side of it
    cfg = write(tmp_path, f"[experiment]\nname = patch\nseed = {seed}\n[parameters]\n"
                          "pde = advection\nlifting = central_d2\ndt_ratio = 0.0525\n"
                          "expect_stability = unstable\n")
    out = tmp_path / "o"
    assert main(["patch", "--config", cfg, "--out", str(out)]) == 0
    rows = summary_lines(out)
    assert rows["stability_is_unstable"] == "stability_is_unstable 2 2 0 pass"
    assert float(rows["amplification_max"].split()[1]) == pytest.approx(1.0013744, abs=5e-8)


def test_upwind_lifting_follows_the_transport_direction(tmp_path, capsys):
    # the lifting's upwind side comes from the PDE: transport to the left is
    # the mirror image of transport to the right, with the same growth bits
    rows = {}
    for coefficient in ("1.0", "-1.0"):
        cfg = write(tmp_path, "[experiment]\nname = patch\nseed = 5\n[parameters]\n"
                              f"pde = advection\ncoefficient = {coefficient}\n"
                              "lifting = upwind_d2\nexpect_stability = stable\n")
        out = tmp_path / coefficient
        assert main(["patch", "--config", cfg, "--out", str(out)]) == 0
        rows[coefficient] = summary_lines(out)
        assert rows[coefficient]["stability_is_stable"] == "stability_is_stable 0 0 0 pass"
    assert rows["-1.0"]["amplification_max"] == rows["1.0"]["amplification_max"]
    # the direction is no longer a config key
    cfg = write(tmp_path, PATCH_PARAMETERS + "wind_sign = -1\n")
    assert main(["patch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'wind_sign'" in capsys.readouterr().err


# the diagnostics benchmark's patch items at item seed 5, and the rows they print
DIAGNOSTICS_PATCH_ROWS = {
    "heat": (
        "pde = heat\nlifting = central_d2\ngrids = 32, 64, 128\nfinal_time = 0.5\n"
        "expect_stability = stable\nexpect_order = 2.0\n",
        ["amplification_max 0.9961477813379572 - - info",
         "stability_is_stable 0 0 0 pass"],
    ),
    "advection-central": (
        "pde = advection\nlifting = central_d2\nexpect_stability = unstable\nprobe_steps = 300\n",
        ["amplification_max 1.117810387543501 - - info",
         "stability_is_unstable 2 2 0 pass"],
    ),
    "advection-upwind": (
        "pde = advection\nlifting = upwind_d2\nexpect_stability = stable\n"
        "grids = 32, 64, 128\nexpect_order = 1.0\n",
        ["amplification_max 0.9987942538370255 - - info",
         "stability_is_stable 0 0 0 pass"],
    ),
    "biharmonic-d2": (
        "pde = biharmonic\nlifting = central_d2\nn_points = 32\nexpect_stability = marginal\n",
        ["amplification_max 1.0000000000000004 - - info",
         "stability_is_marginal 1 1 0 pass"],
    ),
    "biharmonic-d4": (
        "pde = biharmonic\nlifting = central_d4\nn_points = 32\ngrids = 16, 24, 32\n",
        ["amplification_max 0.9999446191827032 - - info",
         "stability_code_stable 0 - - info"],
    ),
}


@pytest.mark.parametrize(
    "parameters, rows", DIAGNOSTICS_PATCH_ROWS.values(), ids=DIAGNOSTICS_PATCH_ROWS.keys()
)
def test_diagnostics_patch_rows_keep_their_bits(tmp_path, parameters, rows):
    cfg = write(tmp_path, f"[experiment]\nname = patch\nseed = 5\n[parameters]\n{parameters}")
    out = tmp_path / "o"
    assert main(["patch", "--config", cfg, "--out", str(out)]) == 0
    summary = summary_lines(out)
    for row in rows:
        assert summary[row.split()[0]] == row
    assert "growth_factor" not in summary


# every key that no other test sets, at a non-default value: (config,
# the runner-level callee to watch or None, a check of the outputs and of
# that callee's last (args, kwargs))
KP_BASE = "[experiment]\nname = kp\n[parameters]\ndeltas = 1.0\nn_trajectories = 2\n" \
          "n_modes = 32\ncalibrate = false\n"
PATCH_BASE = PATCH_PARAMETERS + "n_points = 16\nprobe_steps = 50\n"
ORDER_BASE = "[experiment]\nname = order-detect\n[parameters]\ntarget = heat\nn_perturb = 256\n"


def msd_lags(out):
    return [float(line.split(",")[0])
            for line in (out / "msd_1p0.csv").read_text().splitlines()[1:]]


WIRING_CASES = {
    "coefficient": (PATCH_BASE + "coefficient = 2.0\n", "step_symbol",
                    lambda out, call: call[0][0] == patchlab.PdeSpec.heat(2.0)),
    "h_fraction": (PATCH_BASE + "h_fraction = 0.1\n", None,
                   lambda out, call: summary_lines(out)["tooth_width"]
                   == f"tooth_width {0.1 * (2.0 * math.pi / 16)!r} - - info"),
    "dt_micro_factor": (PATCH_BASE + "dt_micro_factor = 0.01\n", "step_symbol",
                        lambda out, call: call[0][1].dt_micro == 0.01 * call[0][1].dt_macro),
    "order_tolerance": (PATCH_BASE + "grids = 16, 32\nfinal_time = 0.1\nexpect_order = 2.0\n"
                        "order_tolerance = 0.5\n", None,
                        lambda out, call: summary_lines(out)["convergence_order"].split()[2:]
                        == ["2.0", "0.5", "pass"]),
    "n_base": (ORDER_BASE + "n_base = 4\n", "detect_order",
               lambda out, call: call[0][1].n_base == 4),
    "halfwidth": (ORDER_BASE + "halfwidth = 0.5\n", "detect_order",
                  lambda out, call: call[0][1].halfwidth == 0.5),
    "budget": (ORDER_BASE + "budget = 100\n", None,
               lambda out, call: (summary_lines(out)["budget_exhausted"],
                                  summary_lines(out)["evaluations_used"])
               == ("budget_exhausted true - - info", "evaluations_used 100 - - info")),
    "spectrum": (KP_BASE + "spectrum = 1.5\n", "ensemble_velocities",
                 lambda out, call: call[1]["spectrum"] == 1.5),
    "v0": (KP_BASE + "v0 = 2.0\n", "ensemble_velocities",
           lambda out, call: call[1]["initial"] == (0.0, 2.0)),
    "total_time": (KP_BASE + "total_time = 0.01\n", "ensemble_velocities",
                   lambda out, call: call[1]["total_time"] == 0.01),
    "fit_lag_lo": (KP_BASE + "fit_lag_lo = 2e-4\n", None,
                   lambda out, call: msd_lags(out)[0] == pytest.approx(2e-4)),
    "fit_lag_hi": (KP_BASE + "fit_lag_hi = 5e-4\n", None,
                   lambda out, call: msd_lags(out)[-1] == pytest.approx(5e-4)),
    "n_lags": (KP_BASE + "n_lags = 4\n", None, lambda out, call: len(msd_lags(out)) == 4),
}


@pytest.mark.parametrize("text, callee, check", WIRING_CASES.values(), ids=WIRING_CASES.keys())
def test_config_keys_reach_the_run(tmp_path, monkeypatch, text, callee, check):
    import patchlab.runner as runner

    calls = []
    if callee is not None:
        real = getattr(runner, callee)

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, callee, spy)
    config = parse_config(text)
    out = tmp_path / "o"
    assert main([config.experiment, "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert check(out, calls[-1] if calls else None)


# the exact rendered rows of every checked and unchecked verdict form


@pytest.mark.parametrize("fraction, verdict, code", [(0.5, "pass", 0), (1e-9, "fail", 1)])
def test_tail_variance_row(tmp_path, fraction, verdict, code):
    from patchlab import CoarseStepConfig, predicted_ou_tail_variance, stationary_variance_test

    cfg = write(tmp_path, MINIMAL_PROJECTIVE.replace("n_steps = 200", "n_steps = 1200")
                + f"drift = ou\nou_rate = 5.0\ntolerance_fraction = {fraction!r}\n")
    out = tmp_path / "o"
    assert main(["projective", "--config", cfg, "--out", str(out)]) == code
    lines = (out / "trajectory.csv").read_text().splitlines()[1:]
    values = np.array([float(line.split(",")[1]) for line in lines])
    step = CoarseStepConfig(ensemble_size=10, micro_steps=10, dt_micro=1e-3, dt_macro=0.1)
    expected = predicted_ou_tail_variance(step, 5.0, 1.0)
    measured = stationary_variance_test(values, expected, fraction).measured
    rows = summary_lines(out)
    assert rows["tail_variance"] == (
        f"tail_variance {measured!r} {expected!r} {fraction * expected!r} {verdict}"
    )
    assert rows["cost_parity_vs_brute_force"] == "cost_parity_vs_brute_force 0 0 0 pass"
    assert "increment_mean" not in rows


def test_stability_and_convergence_rows(tmp_path):
    checked, unchecked = tmp_path / "checked", tmp_path / "unchecked"
    assert main(["patch", "--config", write(tmp_path, FAST_PATCH), "--out", str(checked)]) == 0
    bare = FAST_PATCH.replace("expect_stability = stable\n", "").replace("expect_order = 2.0\n", "")
    assert main(["patch", "--config", write(tmp_path, bare, "bare.cfg"),
                 "--out", str(unchecked)]) == 0
    checked, unchecked = summary_lines(checked), summary_lines(unchecked)
    assert checked["stability_is_stable"] == "stability_is_stable 0 0 0 pass"
    assert unchecked["stability_code_stable"] == "stability_code_stable 0 - - info"
    order = checked["convergence_order"].split()[1]
    assert checked["convergence_order"] == f"convergence_order {order} 2.0 0.3 pass"
    assert unchecked["convergence_order"] == f"convergence_order {order} - - info"
    assert " fail" not in "\n".join(checked.values())


@pytest.mark.parametrize(
    "parameters, row",
    [
        ("target = adversarial\nstop_after = 5\nexpected_order = 1\n",
         "detected_order 1 1 0 pass"),
        ("target = adversarial\nstop_after = 5\n", "detected_order 1 - - info"),
        ("target = heat\nn_perturb = 256\n", "detected_order 2 - - info"),
    ],
    ids=["adversarial-checked", "adversarial-unchecked", "heat-unchecked"],
)
def test_detected_order_row(tmp_path, parameters, row):
    cfg = write(tmp_path, f"[experiment]\nname = order-detect\n[parameters]\n{parameters}")
    out = tmp_path / "o"
    assert main(["order-detect", "--config", cfg, "--out", str(out)]) == 0
    assert summary_lines(out)["detected_order"] == row


def test_gamma_rows(tmp_path):
    checked, unchecked = tmp_path / "checked", tmp_path / "unchecked"
    banded = write(tmp_path, FAST_KP + "gamma_bands = 0.0:4.0\n", "banded.cfg")
    assert main(["kp", "--config", banded, "--out", str(checked)]) == 0
    assert main(["kp", "--config", write(tmp_path, FAST_KP), "--out", str(unchecked)]) == 0
    gamma = summary_lines(unchecked)["gamma_delta_1p0"].split()[1]
    assert summary_lines(unchecked)["gamma_delta_1p0"] == f"gamma_delta_1p0 {gamma} - - info"
    assert summary_lines(checked)["gamma_delta_1p0"] == f"gamma_delta_1p0 {gamma} 2.0 2.0 pass"


def test_overwrite_refused_then_forced(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = str(tmp_path / "out")
    assert main(["projective", "--config", cfg, "--out", out]) == 0
    assert main(["projective", "--config", cfg, "--out", out]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["projective", "--config", cfg, "--out", out, "--force"]) == 0


def test_unwritable_output_exits_two_and_keeps_the_file(tmp_path, capsys):
    # --out names an existing regular file: a usage error, not a failed check
    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["projective", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write results: "), err
    assert out.read_text() == "keep me\n"


def _fail_on_second(real):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("injected write failure")
        return real(*args, **kwargs)

    return failing


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failed_write_leaves_nothing_that_blocks_a_rerun(tmp_path, monkeypatch, capsys, stage):
    import patchlab.cli as cli

    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = tmp_path / "out"
    with monkeypatch.context() as m:
        if stage == "write":
            # the second file (the config echo) fails after the summary was written
            def broken(config):
                raise OSError("injected write failure")

            m.setattr(cli, "render_config", broken)
        else:
            # the second rename fails after the summary was moved into place
            m.setattr(os, "replace", _fail_on_second(os.replace))
        assert main(["projective", "--config", cfg, "--out", str(out)]) == 2
    assert "error: cannot write results: injected write failure" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == []
    assert main(["projective", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config", "summary", "trajectory.csv"]


def test_seed_override_lands_in_outputs(tmp_path):
    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = str(tmp_path / "out")
    assert main(["projective", "--config", cfg, "--out", out, "--seed", "99"]) == 0
    assert "# seed = 99" in (tmp_path / "out" / "summary").read_text()
    echoed = parse_config((tmp_path / "out" / "config").read_text())
    assert echoed.seed == 99


def test_config_echo_reparses_to_same_run(tmp_path):
    cfg = write(tmp_path, FAST_ORDER)
    out1 = str(tmp_path / "a")
    assert main(["order-detect", "--config", cfg, "--out", out1]) == 0
    # feed the echoed config back through the CLI: identical results
    echo = str(tmp_path / "a" / "config")
    out2 = str(tmp_path / "b")
    assert main(["order-detect", "--config", echo, "--out", out2]) == 0
    assert (tmp_path / "a" / "summary").read_bytes() == (tmp_path / "b" / "summary").read_bytes()


@pytest.mark.parametrize(
    "command,text",
    [
        ("projective", MINIMAL_PROJECTIVE),
        ("patch", FAST_PATCH),
        ("order-detect", FAST_ORDER),
        ("kp", FAST_KP),
    ],
)
def test_outputs_are_byte_identical_across_reruns(tmp_path, command, text):
    cfg = write(tmp_path, text)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main([command, "--config", cfg, "--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
