"""The package's import layout, read from its source with ``ast``.

Module-level imports run one way, quadrature -> dist -> reactive ->
nonsensing -> simulate -> cli, so no module needs an import inside a
function to break a cycle. The package owns its table interpolant and
the reactive jump's Newton solve, so nothing imports ``scipy.interpolate``
or ``scipy.optimize``, and the one scipy function it uses, ``ndtri``, is
imported where it runs, in ``Gaussian.ppf``; so ``import jamgame.cli``, a
``solve-nonsensing`` call and a ``solve-reactive`` call that jumps load no
scipy module. Only ``cli`` formats artifacts: ``reactive``,
``nonsensing`` and ``simulate`` import neither ``json`` nor ``csv``
(``dist`` reads a table with ``csv``), call no builtin ``open``, and hold
no artifact header; ``simulate`` hands its traced draws to a sink, which
the command line formats as the event-trace CSV. The adaptive quadrature
engine has one caller in the package, the table normalization check in
``dist``, and the ``jamgame`` namespace does not export it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jamgame

SRC = Path(__file__).resolve().parent.parent / "src" / "jamgame"
LAYERS = ("quadrature", "dist", "reactive", "nonsensing", "simulate", "cli")


def _siblings(node: ast.AST) -> list[str]:
    """The jamgame modules that the import statement ``node`` names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("jamgame.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = (node.module or "").split(".")
    if node.level == 0:
        if parts[0] != "jamgame":
            return []
        parts = parts[1:]
    if parts and parts[0]:
        return [parts[0]]
    return [a.name for a in node.names]


def _module_imports(name: str) -> set[str]:
    tree = ast.parse((SRC / f"{name}.py").read_text())
    return {s for node in tree.body for s in _siblings(node)}


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_sibling(path):
    tree = ast.parse(path.read_text())
    found = [
        (inner.lineno, s)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(fn) for s in _siblings(inner)
    ]
    assert found == []


def test_reactive_imports_only_dist():
    assert _module_imports("reactive") <= {"dist"}


@pytest.mark.parametrize("name", LAYERS)
def test_imports_run_one_way(name):
    assert _module_imports(name) <= set(LAYERS[:LAYERS.index(name)])


def test_only_dist_imports_quadrature():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert [m for m in modules if "quadrature" in _module_imports(m)] == ["dist"]


def test_namespace_exports_no_quadrature_engine():
    assert {"PiecewiseIntegrand", "expectation", "integrate"}.isdisjoint(vars(jamgame))


def _imported_modules(node: ast.AST) -> list[str]:
    """The absolute module names that the import statement ``node`` loads."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _imports_of(path: Path, package: str) -> list[tuple[int, str]]:
    """(line, module) of every import of ``package`` or its submodules in ``path``."""
    return [
        (node.lineno, name)
        for node in ast.walk(ast.parse(path.read_text())) for name in _imported_modules(node)
        if name == package or name.startswith(package + ".")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_interpolate(path):
    assert _imports_of(path, "scipy.interpolate") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_optimize(path):
    assert _imports_of(path, "scipy.optimize") == []


@pytest.mark.parametrize("name", ["reactive", "nonsensing", "simulate"])
def test_computing_modules_format_no_artifacts(name):
    source = (SRC / f"{name}.py").read_text()
    found = [
        (node.lineno, m)
        for node in ast.walk(ast.parse(source)) for m in _imported_modules(node)
        if m.split(".")[0] in ("json", "csv")
    ]
    assert found == []
    assert "schema_version" not in source


@pytest.mark.parametrize("name", ["reactive", "nonsensing", "simulate"])
def test_computing_modules_open_no_file(name):
    nodes = list(ast.walk(ast.parse((SRC / f"{name}.py").read_text())))
    opens = [
        node.lineno for node in nodes if isinstance(node, ast.Call)
        if (isinstance(node.func, ast.Name) and node.func.id == "open")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "open"
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("builtins", "io"))
    ]
    assert opens == []
    # the event-trace header and row columns are strings of cli alone
    formats = [node.lineno for node in nodes
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and ("x,u,j,y" in node.value or ",idle," in node.value)]
    assert formats == []


def _scipy_modules_after(call: str) -> str:
    """The scipy modules a fresh process holds after ``import jamgame.cli``
    and the statement ``call``."""
    probe = ("import contextlib, io, sys, jamgame.cli\n"
             f"with contextlib.redirect_stdout(io.StringIO()): {call}\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return run.stdout.strip()


def test_cli_import_leaves_scipy_interpolate_out():
    # a fresh process after the import alone, and after a solve-nonsensing
    # call too, holds no scipy module at all
    for call in ("pass", "jamgame.cli.main(['solve-nonsensing', '--sigma2', '1'])"):
        assert _scipy_modules_after(call) == "[]"


def test_solve_reactive_loads_no_scipy():
    # the solve jumps, so the Newton jump ran too (sys.stdout is the capture)
    call = ("assert jamgame.cli.main(['solve-reactive', '--sigma2', '2']) == 0"
            " and 'polished_at=10 ' in sys.stdout.getvalue()")
    assert _scipy_modules_after(call) == "[]"
