"""The package namespace: ``patchlab`` exports exactly each module's ``__all__``."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import patchlab

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _modules():
    return [
        importlib.import_module(f"patchlab.{info.name}")
        for info in sorted(pkgutil.iter_modules(patchlab.__path__), key=lambda info: info.name)
    ]


def test_exports_have_no_duplicates():
    assert len(patchlab.__all__) == len(set(patchlab.__all__))


def test_exports_are_the_union_of_module_lists():
    expected = ["__version__"] + [name for module in _modules() for name in module.__all__]
    assert patchlab.__all__ == expected


def test_every_export_resolves():
    for name in patchlab.__all__:
        assert hasattr(patchlab, name), name
    for module in _modules():
        for name in module.__all__:
            assert getattr(patchlab, name) is getattr(module, name), name


# the command line's plumbing and the thresholds that only their own module
# reads: reachable from their modules, not exported from the package
UNEXPORTED = {
    "cli": ("RunRecord", "OverwriteError", "run_experiment", "write_results", "render_summary"),
    "config": ("ConfigError", "ExperimentConfig", "parse_config", "render_config"),
    "runner": ("MetricResult", "Table", "EXPERIMENTS"),
    "analysis": ("UNSTABLE_THRESHOLD", "STABLE_THRESHOLD"),
    "order_detect": ("RELATIVE_THRESHOLD",),
    "projective": ("DIVERGENCE_LIMIT",),
}


def test_the_cli_plumbing_is_not_exported():
    for module_name, names in UNEXPORTED.items():
        module = importlib.import_module(f"patchlab.{module_name}")
        for name in names:
            assert name not in patchlab.__all__, name
            assert hasattr(module, name), f"patchlab.{module_name}.{name}"
    assert patchlab.config.__all__ == patchlab.runner.__all__ == []


def _imported_from_patchlab(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "patchlab" and node.level == 0
        for alias in node.names
    }


SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_scripts_import_only_exported_names(path):
    # read, not run: the demos take about 20 s together; a submodule is a
    # valid import too
    submodules = {module.__name__.rpartition(".")[2] for module in _modules()}
    missing = _imported_from_patchlab(path) - set(patchlab.__all__) - submodules
    assert not missing, f"{path.name} imports {sorted(missing)} which patchlab does not export"


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "patchlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_does_not_import_dataclasses(path):
    # each dataclass compiles its methods at import; core.value_type builds
    # the value types without that start-up cost. A pool from concurrent.futures
    # imports logging, 8-10 ms of every run's start-up; kp runs its blocks on
    # plain threads, and no module starts a process
    assert not {"dataclasses", "concurrent", "multiprocessing"} & _imported_modules(path)


def _package_imports(name):
    # the sibling modules that src/patchlab/<name>.py imports from
    path = ROOT / "src" / "patchlab" / f"{name}.py"
    return {
        node.module
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_imports_run_one_way_from_cli_to_config_to_runner():
    # runner defines each experiment, config reads the parameters of its rows
    # and cli runs them; neither lower module reaches back up
    assert not _package_imports("runner") & {"config", "cli"}
    assert _package_imports("config") == {"core", "runner"}


def test_only_core_writes_past_a_frozen_field():
    # a value type's __post_init__ returns the fields it normalises and
    # core.frozen_array freezes arrays, so no other module needs either escape
    offenders = [
        f"{path.name}: {pattern}"
        for path in sorted((ROOT / "src" / "patchlab").glob("*.py")) if path.name != "core.py"
        for pattern in ("object.__setattr__", ".setflags(") if pattern in path.read_text()
    ]
    assert offenders == []


# the rule itself, and the writer that renders an int it was given
_BARE_INT_ALLOWED = {"core.py": {"_whole"}, "cli.py": {"_fmt"}}


def test_no_function_passes_a_parameter_to_a_bare_int():
    # int() truncates 2.5 to 2 and raises OverflowError on inf; a count or
    # index goes through core.at_least, which refuses both
    offenders = []
    for path in sorted((ROOT / "src" / "patchlab").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in _BARE_INT_ALLOWED.get(path.name, ()):
                continue
            a = func.args
            params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            offenders += [
                f"{path.name}:{node.lineno} {func.name}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "int" and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id in params
            ]
    assert offenders == []


def test_no_execute_step_turns_a_broad_exception_into_a_verdict():
    # an expected numerical outcome is a value (a nan estimate, a diverged step,
    # an exhausted budget, an energy error above the step tolerance) that the
    # step writes as a row; an except there would turn an exception back into
    # that outcome, and could pass off a defect inside the call as it
    path = ROOT / "src" / "patchlab" / "runner.py"
    offenders = [
        f"runner.py:{handler.lineno} {func.name}"
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name == "execute"
        for handler in ast.walk(func) if isinstance(handler, ast.ExceptHandler)
    ]
    assert offenders == []


def _caught_names(handler_type):
    # the names an ``except`` clause catches: ``E``, ``module.E`` or a tuple of them
    if isinstance(handler_type, ast.Tuple):
        return {name for elt in handler_type.elts for name in _caught_names(elt)}
    if isinstance(handler_type, ast.Attribute):
        return {handler_type.attr}
    if isinstance(handler_type, ast.Name):
        return {handler_type.id}
    return set()


def test_every_exception_class_is_caught_by_name_somewhere():
    # a class that no caller tells apart from its base is API without a use:
    # the base (ValueError, say) with the same message says as much
    caught = {
        name
        for path in sorted((ROOT / "src" / "patchlab").glob("*.py"))
        for handler in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in _caught_names(handler.type)
    }
    defined = {
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert defined, "no exception class found"
    assert sorted(d for d in defined if d.rpartition(".")[2] not in caught) == []


# unbound already: the runner iterates no step and reads its verdict from the max|G|
# of step_symbol now, and the benchmark change of ROADMAP item 1 wraps that instead
UNBOUND_WRAP_POINTS = {"patchlab.runner.gap_tooth_step", "patchlab.runner.growth_factor_probe"}


def test_every_benchmark_wrap_point_binds(monkeypatch):
    # the tracer skips a name it cannot find, and its layer then reads 0 with no error
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unbound = []
    for module_name, class_name, attr, _, _ in spans.WRAP_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            unbound.append(".".join(filter(None, (module_name, class_name, attr))))
    assert [name for name in unbound if name not in UNBOUND_WRAP_POINTS] == []
