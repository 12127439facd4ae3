"""Source checks of the `dynacut` modules: every name a module imports is
used in it, and no module has a `global` statement."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dynacut"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_global_statements(path):
    """No module rebinds a module-level name at run time, so no mutable
    setting is shared between engines or runs through one."""
    tree = ast.parse(path.read_text())
    names = sorted(name for node in ast.walk(tree)
                   if isinstance(node, ast.Global) for name in node.names)
    assert not names, f"{path.name} declares global: {names}"
