"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# ``__init__.py`` imports names to re-export them, not to read them.
MODULES = sorted(p for p in (ROOT / "src" / "rdfilter").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` (nested
    imports too) that no expression reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\n\ndef f() -> np.ndarray:\n"
              "    from sys import argv\n    return pi\n")
    assert unused_imports(source) == ["argv", "os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


# The postprocess is a posteriori: it reads a field and the u_xx its caller
# hands it, never the time scheme, the drivers or the CLI.  Nor does the
# per-axis kappa of ``solver2d``.
POSTPROCESS_MODULES = ("shift.py", "filtering.py", "ddm.py", "solver2d.py")
FORBIDDEN = {"stepper", "bench", "cli", "ReactionSystem"}


def layer_violations(source: str) -> list[str]:
    """The dotted names ``source`` imports that pass through ``stepper``,
    ``bench`` or ``cli``, or that name ``ReactionSystem``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}".lstrip(".") for a in node.names]
        else:
            continue
        found += [name for name in names if FORBIDDEN & set(name.split("."))]
    return found


def test_layer_violations_finds_every_kind():
    source = ("import rdfilter.bench\nfrom .stepper import step\n"
              "from .core import ReactionSystem, read_only\nfrom . import cli\n"
              "from .ddm import blend_weights\n")
    assert layer_violations(source) == ["rdfilter.bench", "stepper.step",
                                        "core.ReactionSystem", "cli"]


@pytest.mark.parametrize("name", POSTPROCESS_MODULES)
def test_postprocess_modules_import_nothing_of_the_time_scheme(name):
    assert layer_violations((ROOT / "src" / "rdfilter" / name).read_text()) == []


# ``postprocess_field`` alone chooses how the postprocess runs, as a matrix
# product or through the DSTs; the drivers must not reach past it.
BENCH_FROM_FILTERING = {"kappa_critical", "postprocess_field"}


def names_imported_from(source: str, module: str) -> set[str]:
    """The names ``source`` imports from the module named ``module`` (relative
    or dotted); importing the module itself counts as "*"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            found.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update("*" for a in node.names if a.name.split(".")[-1] == module)
    return found


def test_names_imported_from_finds_every_form():
    source = ("from .filtering import a, b\nfrom rdfilter.filtering import c\n"
              "from . import filtering\nimport rdfilter.filtering as f\nfrom .ddm import d\n")
    assert names_imported_from(source, "filtering") == {"a", "b", "c", "*"}


def test_bench_imports_only_the_postprocess_entry_point_from_filtering():
    source = (ROOT / "src" / "rdfilter" / "bench.py").read_text()
    assert names_imported_from(source, "filtering") <= BENCH_FROM_FILTERING


# The postprocess subtracts and adds back one cosine trend; the basis table
# and the endpoint inverse behind it stay inside ``shift``.
def test_filtering_imports_only_the_cosine_trend_from_shift():
    source = (ROOT / "src" / "rdfilter" / "filtering.py").read_text()
    assert names_imported_from(source, "shift") == {"cosine_trend"}


# ``step`` derives its one Laplacian from the two levels it is given; the
# integration loop in ``bench`` hands it levels, never a Laplacian of its own.
BENCH_FROM_STEPPER = {"NewtonDivergence", "estimate_uxx", "step"}


def test_bench_imports_only_the_step_and_its_helpers_from_stepper():
    source = (ROOT / "src" / "rdfilter" / "bench.py").read_text()
    assert names_imported_from(source, "stepper") <= BENCH_FROM_STEPPER


# ``_matrices``, ``_postprocess*`` and ``_sine_filter`` are reached only through
# ``postprocess_field``: no module imports another module's underscore names.
def private_imports(source: str) -> list[str]:
    """The underscore names ``source`` imports: ``from m import _x`` or
    ``import m._x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if any(part.startswith("_") for part in a.name.split("."))]
    return found


def test_private_imports_finds_every_form():
    source = ("from __future__ import annotations\nfrom .filtering import _matrices, sigma8\n"
              "import rdfilter._shift\nfrom . import _ddm\nimport numpy as _np\n")
    assert private_imports(source) == ["_matrices", "rdfilter._shift", "_ddm"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rdfilter").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_underscore_name(path):
    assert private_imports(path.read_text()) == []


# The solver needs only the DSTs of ``scipy.fft``; an oracle that needs more of
# SciPy (``scipy.integrate``) lives in the tests (``tests/oracles.py``), so
# importing the library loads no more of SciPy.
SRC_FROM_SCIPY = {"scipy.fft"}


def scipy_imports(source: str) -> set[str]:
    """The SciPy modules ``source`` imports or imports from, as dotted names;
    ``from scipy import x`` counts as ``scipy.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            found.update(f"scipy.{a.name}" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy."):
            found.add(node.module)
    return found


def test_scipy_imports_finds_every_form():
    source = ("import scipy\nimport scipy.linalg as la\nfrom scipy import sparse\n"
              "from scipy.integrate import solve_ivp\nfrom scipy.fft import dst\n"
              "from .scipyish import x\nimport numpy\n")
    assert scipy_imports(source) == {"scipy", "scipy.linalg", "scipy.sparse",
                                     "scipy.integrate", "scipy.fft"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rdfilter").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_nothing_of_scipy_but_fft(path):
    assert scipy_imports(path.read_text()) <= SRC_FROM_SCIPY
