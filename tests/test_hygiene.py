"""Import/export hygiene of the package modules, checked with ast and importlib.

Every imported name is used in its module (or re-exported through
``__all__``), every name a module lists in ``__all__`` exists, and every
top-level name of a module, public or private, is read by some module of
the package; a listing in ``__all__`` is not a read.  Each name in
``tests/oracles.py`` is read by a test module or by another oracle.
Outside ``integrate``, only ``detector`` steps a DopriDriver or locates
events, so the program has one trajectory loop.  The README's
numbers are the code's: its Defaults table and its fixed thresholds.
"""

import ast
import importlib
import inspect
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from toruscan import detector, foliation, integrate
from toruscan.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toruscan"
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_dunder_all(tree))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def _top_level_names(tree):
    """{name: line} of the names a module binds at top level."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = n.lineno
    return defined


def _public(name):
    return not name.startswith("_")


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _references(tree):
    """Names a module reads, as a bare name, an attribute or an import."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def _unreferenced(tree, refs, kind):
    """The top-level names of one kind (public or private) not among refs."""
    return sorted(
        f"{name} (line {line})"
        for name, line in _top_level_names(tree).items()
        if kind(name) and name not in refs
    )


TREES = {
    name: ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    for name in MODULES
}
PACKAGE_REFS = set().union(*map(_references, TREES.values()))


@pytest.mark.parametrize("name", MODULES)
def test_no_unreferenced_private_names(name):
    assert _unreferenced(TREES[name], PACKAGE_REFS, _private) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unreferenced_public_names(name):
    assert _unreferenced(TREES[name], PACKAGE_REFS, _public) == []


def test_every_oracle_is_used():
    tests = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in (ROOT / "tests").glob("*.py")
    }
    refs = set().union(*map(_references, tests.values()))
    assert _unreferenced(tests["oracles"], refs, _public) == []
    assert _unreferenced(tests["oracles"], refs, _private) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(
        "toruscan" if name == "__init__" else f"toruscan.{name}"
    )
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# Calls that make up a trajectory loop: stepping a DopriDriver and locating
# sign changes.
_LOOP_CALLS = ("live_points", "refine_event", "step")


def _loop_calls(tree):
    """The trajectory-loop calls of a module, as a bare name or an attribute."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _LOOP_CALLS:
                found.append(f"{name} (line {n.lineno})")
    return sorted(found)


@pytest.mark.parametrize(
    "name", [m for m in MODULES if m not in ("integrate", "detector")]
)
def test_one_trajectory_loop(name):
    assert _loop_calls(TREES[name]) == []


def test_detects_a_second_trajectory_loop():
    tree = ast.parse(
        "drv.step(t)\nrefine_event(f, o, 0, y, 1, g)\nintegrate.live_points(a)\n"
    )
    assert _loop_calls(tree) == [
        "live_points (line 3)",
        "refine_event (line 2)",
        "step (line 1)",
    ]
    assert len(_loop_calls(TREES["detector"])) == 3


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom math import sqrt, pi\nx = pi\n")
    assert _unused_imports(tree) == ["os (line 1)", "sqrt (line 2)"]


def test_detects_an_unreferenced_private_name():
    module = ast.parse(
        "_A, _B = 1, 2\n"
        "_C: int = _A\n"
        "def _f():\n    return _g()\n"
        "def _g():\n    return 0\n"
        "class _K:\n    pass\n"
        "__version__ = '1'\n"
    )
    other = ast.parse("from pkg.mod import _K\nimport pkg\npkg.mod._f()\n")
    refs = _references(module) | _references(other)
    assert _unreferenced(module, refs, _private) == ["_B (line 1)", "_C (line 2)"]
    assert _unreferenced(module, _references(module), _private) == [
        "_B (line 1)",
        "_C (line 2)",
        "_K (line 7)",
        "_f (line 3)",
    ]


def test_detects_an_unreferenced_public_name():
    module = ast.parse(
        "__all__ = ['f', 'g', 'K']\n"
        "def f():\n    return 0\n"
        "def g():\n    return f()\n"
        "class K:\n    pass\n"
        "_h = 1\n"
    )
    other = ast.parse("from pkg.mod import g\n")
    refs = _references(module) | _references(other)
    assert _unreferenced(module, refs, _public) == ["K (line 6)"]
    assert _unreferenced(module, _references(module), _public) == [
        "K (line 6)",
        "g (line 4)",
    ]


def _readme_defaults():
    """{setting: value} from the rows of the README's Defaults table."""
    section = README.split("## Defaults", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            names, values = row.split("|")[1:3]
            names = re.findall(r"`(\w+)`", names)
            values = [float(v) for v in re.findall(r"`([^`]+)`", values)]
            assert len(names) == len(values), row
            table.update(zip(names, values))
    return table


def test_readme_defaults_are_the_owners_defaults():
    owners = {
        **asdict(integrate.IntegratorOptions()),
        "t_out": detector.DetectorConfig().t_out,
        "exclusion_tol": RunConfig().exclusion_tol,
    }
    del owners["fixed_step"]
    assert _readme_defaults() == owners


def test_readme_fixed_thresholds_are_the_codes():
    def number(pattern):
        return float(re.search(pattern, " ".join(README.split())).group(1))

    tol = inspect.signature(foliation.is_degenerate).parameters["tol"].default
    assert number(r"exceeds `(\S+) \|eta\|\|xi\|`") == detector._ARMING_REL
    assert number(r"located in time to `(\S+)` relative") == integrate._TIME_TOL
    assert number(r"`\|grad H\| <= (\S+)`") == tol
    assert number(r"below `(\S+)` of its ingredients") == tol
