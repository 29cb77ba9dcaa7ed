"""numpy is vada's only runtime dependency: every import in src/vada is from
the standard library, numpy or vada itself. No module imports another's
private (`_`-prefixed) name. Each module's __all__ names what it defines, and
the package's public names are exactly those of the numerics modules."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vada"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vada"}


def imported_modules(path):
    """(line, top-level module) of each absolute import in the file; a
    relative import is from vada."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_vada(path):
    foreign = [f"line {line}: {name}" for line, name in imported_modules(path)
               if name not in ALLOWED]
    assert foreign == []


def test_a_foreign_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os.path\nfrom . import aero\nimport scipy.linalg\n"
                    "from pandas import DataFrame\nimport numpy as np\n")
    assert [name for _, name in imported_modules(path) if name not in ALLOWED] == [
        "scipy", "pandas"]


def private_imports(path):
    """(line, name) of each `_`-prefixed name the file imports from a vada module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "vada"):
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert [f"line {line}: {name}" for line, name in private_imports(path)] == []


def test_a_private_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\nfrom ._array import everywhere\n"
                    "from .config import ConfigError, _number\nfrom vada.aero import _x\n"
                    "from os import _exit\n")
    assert list(private_imports(path)) == [(3, "_number"), (4, "_x")]


def test_csv_is_imported_by_the_cli_alone():
    # the CLI writes every CSV output through one writer
    importers = sorted(path.name for path in SRC.rglob("*.py")
                       if "csv" in (name for _, name in imported_modules(path)))
    assert importers == ["cli.py"]


EXPORTING = sorted(path.stem for path in SRC.glob("*.py") if "\n__all__ = " in path.read_text())


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_finds_every_exported_name(module):
    # a stale __all__ entry makes `import *` raise AttributeError
    exec(f"from vada.{module} import *", {})


NUMERICS = ["aero", "antagonistic", "dual_rotor", "dynamics", "vsa"]


def test_the_package_exports_the_numerics_modules_names():
    exported = [name for module in NUMERICS
                for name in importlib.import_module(f"vada.{module}").__all__]
    package = importlib.import_module("vada")
    public = {name for name, value in vars(package).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    # no name is exported twice, so the order of the star imports does not matter
    assert len(exported) == len(set(exported))
    assert public == set(exported)
