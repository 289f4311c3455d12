"""The package namespace: ``patchlab`` exports exactly each module's ``__all__``."""

import ast
import importlib
import pathlib
import pkgutil

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
