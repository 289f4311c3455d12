"""Config parsing and the four command-line subcommands."""

import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import patchlab
from patchlab import ConfigError, main, parse_config, render_config

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
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "line 3: unknown section [bogus]" in msg
    assert "line 4" in msg
    assert "line 6: bad value for 'n_steps'" in msg
    assert "line 7: unknown key 'mystery'" in msg
    assert "line 8: duplicate key 'n_steps'" in msg


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


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["projective", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_error_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nname = projective\n[parameters]\nbogus = 1\n")
    assert main(["projective", "--config", cfg]) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


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


def test_overwrite_refused_then_forced(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = str(tmp_path / "out")
    assert main(["projective", "--config", cfg, "--out", out]) == 0
    assert main(["projective", "--config", cfg, "--out", out]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["projective", "--config", cfg, "--out", out, "--force"]) == 0


def _fail_on_second(real):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("injected write failure")
        return real(*args, **kwargs)

    return failing


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failed_write_leaves_nothing_that_blocks_a_rerun(tmp_path, monkeypatch, stage):
    import patchlab.runner as runner

    cfg = write(tmp_path, MINIMAL_PROJECTIVE)
    out = tmp_path / "out"
    with monkeypatch.context() as m:
        if stage == "write":
            # the second file (the config echo) fails after the summary was written
            def broken(config):
                raise OSError("injected write failure")

            m.setattr(runner, "render_config", broken)
        else:
            # the second rename fails after the summary was moved into place
            m.setattr(os, "replace", _fail_on_second(os.replace))
        with pytest.raises(OSError, match="injected"):
            main(["projective", "--config", cfg, "--out", str(out)])
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
