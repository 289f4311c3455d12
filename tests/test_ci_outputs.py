"""``ci/outputs.py``: the check that a change keeps every output byte."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "ci" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def test_compare_fails_on_each_kind_of_difference_unless_allowed(outputs, tmp_path, capsys):
    same = {"kp/seed-0/out/summary": b"a 1\n", "kp/seed-0/exit_code": b"0\n"}
    old = tree(tmp_path / "old", {**same, "kp/seed-0/stderr": b"", "gone": b"x"})
    new = tree(tmp_path / "new", {**same, "kp/seed-0/stderr": b"error\n", "added/f": b"y"})
    assert outputs.differing(old, new) == ["added/f", "gone", "kp/seed-0/stderr"]

    allow = tmp_path / "allowed.txt"
    allow.write_text("# comment\ngone  # removed on purpose\n\n")
    assert outputs.compare(old, new, str(allow)) == 1
    assert "DIFFERS added/f\nallowed gone\nDIFFERS kp/seed-0/stderr\n" in capsys.readouterr().out
    allow.write_text("gone\nadded/f\nkp/seed-0/stderr\n")
    assert outputs.compare(old, new, str(allow)) == 0
    assert outputs.compare(old, old, str(tmp_path / "old" / "kp" / "seed-0" / "stderr")) == 0


def test_a_run_records_its_exit_code_and_stderr(outputs, tmp_path):
    text = "[experiment]\nname = kp\n[parameters]\ndeltas = 1.0\ntotal_time = inf\n"
    outputs._run_cli("kp", text, str(tmp_path / "run"))
    assert (tmp_path / "run" / "exit_code").read_text() == "2\n"
    assert (tmp_path / "run" / "stderr").read_text() == (
        "error: kp: total_time must be positive and finite\n"
    )
    assert not (tmp_path / "run" / "out").exists()


def test_help_keeps_its_stdout_and_every_bad_config_is_a_config_error(outputs, tmp_path):
    (tmp_path / "help").mkdir()
    outputs._record(["--help"], str(tmp_path / "help"), keep_stdout=True)
    assert (tmp_path / "help" / "exit_code").read_text() == "0\n"
    assert (tmp_path / "help" / "stdout").read_text().startswith("usage: patchlab")
    for label, (command, text) in outputs.BAD_CONFIGS.items():
        outputs._run_cli(command, text, str(tmp_path / label))
        assert (tmp_path / label / "exit_code").read_text() == "2\n", label
        assert (tmp_path / label / "stderr").read_text().startswith("error: line "), label


# edge label -> exit code: a verdict just past its threshold passes, a numerical
# outcome is a failing row, a value that would overflow inside the run or pass
# the step cap is a config error
EDGE_EXITS = {"diverged-projective": 1, "unresolved-kp-step": 1, "overflowing-kp": 1,
              "vanished-msd": 1, "nothing-to-fit": 1, "diverging-study": 1,
              "near-threshold-stability": 0,
              "tail-variance-overflow": 2, "box-width-overflow": 2, "infinite-band": 2,
              "huge-n-steps": 2, "huge-ensemble": 2, "vacuous-tolerance": 2,
              "huge-n-points": 2, "huge-n-lags": 2, "huge-n-modes": 2, "huge-n-base": 2,
              "huge-n-perturb": 2, "huge-d-max": 2, "huge-total-time": 2}


def test_every_edge_config_exits_with_its_code(outputs, tmp_path):
    assert outputs.EDGE_CONFIGS.keys() == EDGE_EXITS.keys()
    for label, (command, text) in outputs.EDGE_CONFIGS.items():
        outputs._run_cli(command, text, str(tmp_path / label))
        assert (tmp_path / label / "exit_code").read_text() == f"{EDGE_EXITS[label]}\n", label
        if EDGE_EXITS[label] == 0:
            assert " fail\n" not in (tmp_path / label / "out" / "summary").read_text(), label
        elif EDGE_EXITS[label] == 1:
            assert " fail\n" in (tmp_path / label / "out" / "summary").read_text(), label
        else:
            assert (tmp_path / label / "stderr").read_text().startswith("error: "), label
            assert not (tmp_path / label / "out").exists(), label


def test_a_warning_is_recorded_without_its_source_path(outputs, tmp_path):
    text = "[experiment]\nname = patch\n[parameters]\npde = heat\nlifting = central_d2\n"
    text += "n_points = 16\ncoefficient = 0\ngrids = 8, 16\n"
    for run in ("first", "second"):  # a repeated warning is recorded in each run
        outputs._run_cli("patch", text, str(tmp_path / run))
        assert (tmp_path / run / "stderr").read_text() == (
            "RuntimeWarning: excluding non-finite or rounding-dominated errors "
            "at grid indices (0, 1)\n")
