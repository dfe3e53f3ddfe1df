"""Every name a package module imports is used by that module.

The package has no linter configuration, so this test keeps dead imports
out: it parses each module of ``stepldp`` (the package ``__init__`` is a
re-export list and is skipped) and fails on any imported name that the
module never references.  A name counts as referenced when it appears as an
identifier anywhere in the module or is listed in its ``__all__``.
"""

import ast
import pathlib

import pytest

import stepldp

PACKAGE_DIR = pathlib.Path(stepldp.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def referenced_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = referenced_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_package_modules_found():
    assert {"cli.py", "cutmetric.py", "graphon.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_dead_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from math import inf, pi\n"
        "from .graphon import (StepGraphon, LabeledGraph)\n"
        "__all__ = ['pi']\n"
        "def f(x: StepGraphon):\n"
        "    return np.zeros(x) + xml.dom.Node\n"
    )
    assert unused_imports(source) == [("os", 1), ("inf", 4), ("LabeledGraph", 5)]
