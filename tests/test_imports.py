"""Every name a package module imports or defines privately is used.

The package has no linter configuration, so these tests keep dead code
out.  The import check parses each module of ``stepldp`` (the package
``__init__`` is a re-export list and is skipped) and fails on any imported
name that its scope never references.  A module-level import counts as
referenced when its name appears as an identifier anywhere in the module or
is listed in its ``__all__``; an import inside a function only when its name
appears inside that function (nested functions included).  The
private-name check fails on any module-level ``def``, ``class`` or
assignment named with one leading underscore that no other top-level
statement of the package reads, by name or as an attribute.
Each library module's ``__all__`` lists its public definitions, and the
package root re-exports those lists, each name as its defining module's
object.  In fresh processes, the start-up checks find that ``import
stepldp`` loads no scipy module and builds no work array, and that only the
commands that evaluate an exact law load ``scipy.special``.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import stepldp
from test_cli import write_graphon

PACKAGE_DIR = pathlib.Path(stepldp.__file__).resolve().parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# the modules whose ``__all__`` lists the package root re-exports, in its order
LIBRARY = ("graphon", "cutmetric", "coloured", "rates", "samplers", "ldplab")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_nodes(scope):
    """The nodes of a module or function, short of nested function bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def imported_names(nodes):
    """(bound name, line) for every name an import statement among nodes binds."""
    out = []
    for node in nodes:
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
    """(name, line) of each imported name its own scope never references."""
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]:
        used = referenced_names(scope)
        out += [(name, line) for name, line in imported_names(scope_nodes(scope))
                if name not in used]
    return sorted(out, key=lambda item: item[1])


def _run_python(code, *args):
    """Run ``python -c code args`` in a fresh process that imports this stepldp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code] + list(args), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_heavy_scipy_submodule():
    # every process pays the package import, and scipy.special alone costs
    # more than numpy; the laws that need it import it on first use
    code = ("import sys, stepldp, stepldp.cli; print(' '.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _run_python(code).strip() == ""


def test_import_builds_no_work_arrays():
    # start-up time is measured end to end: the enumeration's work rows and
    # zeros row are built on first use, and no module holds a sizeable array
    code = ("import sys, numpy as np, stepldp, stepldp.cli\n"
            "from stepldp import cutmetric\n"
            "print(cutmetric._ENUM_WORK.size, cutmetric._ENUM_ZEROS.size)\n"
            "for name, module in sorted(sys.modules.items()):\n"
            "    if name.split('.')[0] == 'stepldp':\n"
            "        for attr, value in vars(module).items():\n"
            "            if isinstance(value, np.ndarray) and value.nbytes > 1024:\n"
            "                print(name, attr, value.nbytes)\n")
    assert _run_python(code).splitlines() == ["0 0"]


_BLOCK_P = "0.7,0.1;0.1,0.7"


@pytest.mark.parametrize("argv, loads_special", [
    (["distance", "--u", "{u}", "--v", "{one}", "--restarts", "4"], False),
    (["rate", "--p", _BLOCK_P, "--u", "{u}", "--budget", "4"], False),
    (["rate", "--p", _BLOCK_P, "--u", "{u}", "--alpha", "0.5,0.5", "--budget", "4"], False),
    (["sample", "--model", "block:1,1:" + _BLOCK_P, "--n", "10", "--seed", "0"], False),
    (["coupling-demo", "--counts-a", "3,3", "--counts-b", "2,4", "--p", _BLOCK_P,
      "--seed", "0"], False),
    (["ldp-curve", "--model", "gnp:0.5", "--event", "ball:{one}:0.1", "--n", "6",
      "--method", "mc", "--num-samples", "20", "--seed", "0"], False),
    (["ldp-curve", "--model", "gnp:0.5", "--event", "density-ge:0.8", "--n", "10",
      "--method", "exact", "--seed", "0"], True),
], ids=["distance", "rate-R", "rate-J", "sample", "coupling-demo", "ldp-curve-mc-ball",
        "ldp-curve-exact-density"])
def test_commands_load_scipy_special_only_for_exact_laws(tmp_path, argv, loads_special):
    files = {"u": write_graphon(tmp_path / "u.json", [0.4, 0.6], [[0.8, 0.3], [0.3, 0.6]]),
             "one": write_graphon(tmp_path / "one.json", [1.0], [[0.5]])}
    code = ("import json, sys; from stepldp import cli; rc = cli.main(sys.argv[1:]); "
            "print(json.dumps([rc, 'scipy.special' in sys.modules]))")
    out = _run_python(code, *[a.format(**files) for a in argv])
    assert json.loads(out.splitlines()[-1]) == [0, loads_special]


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
        "def g(x):\n"
        "    from scipy.special import gammaln, logsumexp\n"
        "\n"
        "    return logsumexp(x)\n"
    )
    assert unused_imports(source) == [
        ("os", 1), ("inf", 4), ("LabeledGraph", 5), ("gammaln", 10)]


def test_checker_scopes_local_imports():
    # a local import is read only inside its own function: another
    # function's parameter of the same name does not use it
    source = "def g():\n    from m import a\n    return 1\ndef h(a):\n    return a\n"
    assert unused_imports(source) == [("a", 2)]
    # a nested function reads its enclosing function's import
    source = ("def g():\n    from m import a\n\n    def inner():\n        return a\n\n"
              "    return inner\n")
    assert unused_imports(source) == []
    # a module-level import is read from any function
    assert unused_imports("import a\ndef h():\n    return a\n") == []


def defined_privates(node):
    """Names with one leading underscore that a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(node):
    """Identifiers a statement reads, as plain names or as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_privates(sources):
    """(module, name, line) of each private name only its own statement reads."""
    statements = [(module, node) for module, text in sources.items()
                  for node in ast.parse(text).body]
    reads = [read_names(node) for _, node in statements]
    out = []
    for s, (module, node) in enumerate(statements):
        for name in defined_privates(node):
            if not any(name in r for t, r in enumerate(reads) if t != s):
                out.append((module, name, node.lineno))
    return out


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unreferenced_privates(sources) == []


def test_private_checker_flags_dead_names():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_DEAD = 2\n"
            "__version__ = '1'\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Helper:\n"
            "    pass\n"
            "def _local():\n"
            "    return 0\n"
            "_ALIAS = _local\n"
        ),
        "b.py": (
            "from .a import _USED, _DEAD\n"
            "import a\n"
            "def f():\n"
            "    return _USED + a._Helper\n"
        ),
    }
    assert unreferenced_privates(sources) == [
        ("a.py", "_DEAD", 2), ("a.py", "_recursive", 4), ("a.py", "_ALIAS", 10)]


# ``stepldp.__all__`` as the package root listed it name by name
PUBLIC_NAMES = [
    "PartWeights", "StepGraphon", "LabeledGraph", "OverlapCoupling", "make_step_graphon",
    "graph_to_graphon", "edge_density", "overlay_partitions", "common_refinement",
    "coupling_pieces", "apply_coupling", "stretch_pullback", "project_steps",
    "graphon_to_json", "graphon_from_json", "dump_graphon", "load_graphon",
    "graph_to_edgelist", "dump_edgelist", "graph_from_edgelist", "SignedStepFn",
    "DistanceEstimate",
    "cut_norm_exact", "cut_norm_alternating", "cut_distance_upper", "aligned_cut_distance",
    "overlay_coupling", "cut_distance_search", "graph_cut_distance_exact",
    "ColouredStepGraphon", "coloured_refinement", "dk_norm", "dk_distance_search",
    "gamma_block", "coloured_to_json", "coloured_from_json", "rel_entropy", "rate_Ip",
    "rate_Ik", "rate_J", "rate_R", "RateReport", "coupling_entropy_objective",
    "block_entropy_objective", "reweight_witness", "ReweightWitness", "apportion_counts",
    "sample_block", "sample_wrandom", "coupled_block_sample", "alignment_distance_bound",
    "WRandomSample", "CoupledPair", "EventSpec", "GnpFamily", "BlockFamily",
    "WRandomFamily", "binomial_tail_logprob", "density_logprob_block",
    "exact_event_logprob_block", "exact_event_logprob_wrandom", "mc_event_logprob",
    "tilted_density_logprob_block", "gnp_density_rate", "block_density_rate",
    "predicted_rate", "check_method", "ldp_curve", "__version__",
]


def test_package_root_exports_the_defining_objects():
    assert stepldp.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES[:-1]:
        obj = getattr(stepldp, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.split(".")[1] in LIBRARY, name
        assert getattr(module, name) is obj, name


@pytest.mark.parametrize("name", LIBRARY)
def test_module_all_lists_every_public_definition(name):
    # every public def or class is exported, and every exported name is bound
    module = importlib.import_module("stepldp." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, _FUNCTIONS + (ast.ClassDef,)) and not node.name.startswith("_")]
    assert [n for n in public if n not in module.__all__] == []
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
