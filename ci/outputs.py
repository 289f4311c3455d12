"""Write every output byte of the benchmark's items and the acceptance configs.

    python ci/outputs.py write DIR [--tree TREE]
    python ci/outputs.py compare OLD NEW

``write`` imports ``patchlab`` from ``TREE/src`` and the benchmark from
``TREE/perfbench`` (``TREE`` defaults to the tree holding this script), so one
copy of the script can run an older tree as well.  It runs every ``CliItem``
of ``perfbench.workloads.WORKLOADS`` and the final state of the ``patch-fd``
workload at seeds 0 and 7, the ``ACCEPTANCE_CONFIGS`` of
``TREE/tests/test_acceptance.py``, ``patchlab --help`` (its stdout is kept),
``BAD_CONFIGS``, one config error per named choice and per value kind, and
``EDGE_CONFIGS``, one run per numerical outcome the program expects.  Each
run gets its own directory under ``DIR`` with the files it wrote, its exit
code and its stderr; a warning is recorded in the stderr as its category and
message, without the source path, which names the tree.

``compare`` lists every file that differs between two such directories, or
is in one only, and exits 1 if any of them is missing from the allow-list
``ci/outputs-allowed.txt`` (one path relative to ``DIR`` per line, ``#``
starts a comment).  A change that alters outputs on purpose lists the
files there; the next change empties the list.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 7)


def _config(command: str, parameters: str, seed: int | None = None) -> tuple[str, str]:
    head = "" if seed is None else f"seed = {seed}\n"
    return command, f"[experiment]\nname = {command}\n{head}[parameters]\n{parameters}"


# label -> (command, config): the message of a bad choice lists the choices of
# its table, and a bad value's message comes from the parser of its kind
BAD_CONFIGS = {
    "pde": _config("patch", "pde = wave\nlifting = central_d2\n"),
    "lifting": _config("patch", "pde = heat\nlifting = spline\n"),
    "expect_stability": _config(
        "patch", "pde = heat\nlifting = central_d2\nexpect_stability = maybe\n"),
    "target": _config("order-detect", "target = wave\n"),
    "drift": _config("projective", "drift = brownian\n"),
    "int": _config("projective", "ensemble_size = ten\n"),
    "float": _config("projective", "dt_micro = fast\n"),
    "bool": _config("kp", "deltas = 1.0\ncalibrate = maybe\n"),
    "int_list": _config("patch", "pde = heat\nlifting = central_d2\ngrids = 16, x\n"),
    "float_list": _config("kp", "deltas = 1.0, fast\n"),
    "band_list": _config("kp", "deltas = 1.0\ngamma_bands = 2.1:1.7\n"),
}

# label -> (command, config): each numerical outcome a run expects, a failing
# row (exit 1), a verdict just past its threshold (exit 0), and each value that
# would overflow inside the run, pass the step cap or make a check vacuous
# (exit 2); a capped value is past what numpy can allocate, so a tree without
# the cap fails at once instead of running for hours
EDGE_CONFIGS = {
    "diverged-projective": _config("projective", "n_steps = 200\nnoise_amplitude = 1e15\n"),
    "unresolved-kp-step": _config(
        "kp", "deltas = 0.02\ndt_scale = 0.05\nn_trajectories = 1\ncalibrate = false\n", seed=9),
    "overflowing-kp": _config("kp", "deltas = 1.0\nv0 = 1e200\nn_trajectories = 2\nn_modes = 8\n"),
    "vanished-msd": _config("kp", "deltas = 1.0, 1e100\nn_trajectories = 2\nn_modes = 8\n", seed=3),
    "nothing-to-fit": _config(
        "patch", "pde = heat\nlifting = central_d2\nn_points = 16\ncoefficient = 0\n"
        "grids = 8, 16\n"),
    "diverging-study": _config(
        "patch", "pde = advection\nlifting = central_d2\ngrids = 16, 32\nfinal_time = 1000\n"),
    # max|G| = 1.0013744, just past the unstable threshold 1 + 1e-3
    "near-threshold-stability": _config(
        "patch", "pde = advection\nlifting = central_d2\ndt_ratio = 0.0525\n"
        "expect_stability = unstable\n", seed=0),
    "tail-variance-overflow": _config("projective", "drift = ou\nnoise_amplitude = 1e160\n"),
    "box-width-overflow": _config("order-detect", "target = heat\nhalfwidth = 1e308\n"),
    "infinite-band": _config(
        "kp", "deltas = 1.0\ngamma_bands = 5:inf\nn_trajectories = 2\nn_modes = 8\n"),
    "huge-n-steps": _config("projective", "n_steps = 1000000000000\n"),
    "huge-ensemble": _config(
        "projective", "ensemble_size = 100000000000\nmicro_steps = 1\ndt_micro = 1e-12\n"),
    # an infinite tolerance would pass any tail variance
    "vacuous-tolerance": _config(
        "projective", "drift = ou\nou_rate = 3\nn_steps = 2000\ntolerance_fraction = inf\n",
        seed=0),
    # each size key whose largest array would pass the cap on array elements
    "huge-n-points": _config(
        "patch", "pde = heat\nlifting = central_d2\nn_points = 100000000000\n"),
    "huge-n-lags": _config("kp", "deltas = 1.0\nn_lags = 100000000000\n"),
    "huge-n-modes": _config("kp", "deltas = 1.0\nn_modes = 100000000000\n"),
    "huge-n-base": _config("order-detect", "target = heat\nn_base = 100000000000\n"),
    "huge-n-perturb": _config("order-detect", "target = heat\nn_perturb = 100000000000\n"),
    # the propagator's (d_max + 1)**2 matrix
    "huge-d-max": _config("order-detect", "target = heat\nd_max = 100000\n"),
    # the leapfrog steps that total_time, dt_scale and the delta set together
    "huge-total-time": _config("kp", "deltas = 1.0\ntotal_time = 1e308\n"),
}


def _load_tree(tree: str):
    """The tree's ``perfbench.workloads`` and acceptance configs, its ``patchlab`` first on the path."""
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    import patchlab
    from perfbench import workloads

    for module in (patchlab, workloads):
        if not os.path.abspath(module.__file__).startswith(tree + os.sep):
            raise SystemExit(f"imported {module.__name__} from {module.__file__}, not from {tree}")
    spec = importlib.util.spec_from_file_location(
        "acceptance", os.path.join(tree, "tests", "test_acceptance.py")
    )
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    return workloads, acceptance.ACCEPTANCE_CONFIGS


def _record(argv: list[str], run_dir: str, keep_stdout: bool = False) -> None:
    """Run ``patchlab argv``; write its exit code, its stderr and, if kept, its stdout."""
    from patchlab import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # each run records its own, whatever ran before
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an output too; its traceback names this tree's paths
            code = f"{type(exc).__name__}: {exc}"
    stderr.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    files = {"exit_code": f"{code}\n", "stderr": stderr.getvalue()}
    if keep_stdout:
        files["stdout"] = stdout.getvalue()
    for name, text in files.items():
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write(text)


def _run_cli(command: str, text: str, run_dir: str) -> None:
    os.makedirs(run_dir)
    cfg = os.path.join(run_dir, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(text)
    # stdout carries the wall time, which no two runs share
    _record([command, "--config", cfg, "--out", os.path.join(run_dir, "out")], run_dir)


def write(out: str, tree: str) -> int:
    workloads, acceptance_configs = _load_tree(os.path.abspath(tree))
    from perfbench.spans import NullTracer

    os.makedirs(out)
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            if isinstance(workload, workloads.CliWorkload):
                for item in workload.items:
                    run_dir = os.path.join(out, name, item.label, f"seed-{seed}")
                    _run_cli(item.command, item.config_text(seed), run_dir)
                continue
            run_dir = os.path.join(out, name, f"seed-{seed}")
            os.makedirs(run_dir)
            checks = workloads.Checks()
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                run = workload.setup(seed, run_dir)
                try:
                    outputs = run.run_pass(run_dir, checks, NullTracer())
                finally:
                    run.close()
            for label, files in outputs.items():
                for file_name, data in files.items():
                    with open(os.path.join(run_dir, f"{label}-{file_name}"), "wb") as fh:
                        fh.write(data)
            with open(os.path.join(run_dir, "stderr"), "w") as fh:
                fh.write(stderr.getvalue())
    for command, text in acceptance_configs.items():
        _run_cli(command, text, os.path.join(out, "acceptance", command))
    os.makedirs(os.path.join(out, "help"))
    _record(["--help"], os.path.join(out, "help"), keep_stdout=True)
    for label, (command, text) in BAD_CONFIGS.items():
        _run_cli(command, text, os.path.join(out, "bad-config", label))
    for label, (command, text) in EDGE_CONFIGS.items():
        _run_cli(command, text, os.path.join(out, "edge", label))
    return 0


def _files(root: str) -> dict[str, str]:
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = path
    return found


def differing(old: str, new: str) -> list[str]:
    """Paths relative to the two roots whose bytes differ or that only one root has."""
    a, b = _files(old), _files(new)
    out = []
    for rel in sorted(a.keys() | b.keys()):
        if rel not in a or rel not in b:
            out.append(rel)
            continue
        with open(a[rel], "rb") as fa, open(b[rel], "rb") as fb:
            if fa.read() != fb.read():
                out.append(rel)
    return out


def allowed(path: str) -> set[str]:
    with open(path) as fh:
        lines = (line.split("#", 1)[0].strip() for line in fh)
        return {line for line in lines if line}


def compare(old: str, new: str, allow: str) -> int:
    permitted = allowed(allow)
    unexpected = 0
    for rel in differing(old, new):
        known = rel in permitted
        unexpected += not known
        print(f"{'allowed' if known else 'DIFFERS'} {rel}")
    print(f"{unexpected} unexpected output differences")
    return 1 if unexpected else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("write", help="run every item and write its outputs to DIR")
    run.add_argument("dir")
    run.add_argument("--tree", default=os.path.dirname(HERE), help="source tree to run")
    diff = sub.add_parser("compare", help="fail on differences missing from the allow-list")
    diff.add_argument("old")
    diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.action == "write":
        return write(args.dir, args.tree)
    return compare(args.old, args.new, os.path.join(HERE, "outputs-allowed.txt"))


if __name__ == "__main__":
    raise SystemExit(main())
