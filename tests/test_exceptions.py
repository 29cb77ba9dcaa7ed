"""vada raises from one vocabulary: every `raise` in src/vada names ValueError,
OverflowError, ConvergenceError or ConfigError (or re-raises the exception
in hand). `vada.cli.main` maps each of these to an exit status, so a new
exception type cannot reach the command line as a traceback."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vada"
VOCABULARY = {"ValueError", "OverflowError", "ConvergenceError", "ConfigError"}


def raised_names(path):
    """(line, name) of the exception each `raise` in the file makes: the
    called or named class, or the source text of any other expression; a
    bare re-raise names nothing."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_every_raise_names_the_vocabulary(path):
    foreign = [f"line {line}: {name}" for line, name in raised_names(path)
               if name not in VOCABULARY]
    assert foreign == []


def test_a_foreign_raise_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def f(x):\n"
        "    try:\n"
        "        raise ValueError(x)\n"
        "    except ValueError as exc:\n"
        "        if x:\n"
        "            raise\n"
        "        raise RuntimeError('no') from exc\n"
        "    raise KeyError\n"
        "    raise errors.Custom(x)\n"
    )
    assert [name for _, name in sorted(raised_names(path)) if name not in VOCABULARY] == [
        "RuntimeError", "KeyError", "errors.Custom"]
