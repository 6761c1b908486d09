"""The README's library examples run against the current API, and the package
exports exactly the names the README documents."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs_and_stays_bounded():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2  # the 1D and the 2D example
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)
        initial = namespace["u0"].values
        final = namespace["u_curr"].values
        assert np.all(np.isfinite(final))
        assert np.max(np.abs(final)) <= np.max(np.abs(initial))


INIT = README.parent / "src" / "rdfilter" / "__init__.py"


def package_exports() -> set[str]:
    """The names ``__init__.py`` imports from the package's modules."""
    return {a.asname or a.name for node in ast.parse(INIT.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level > 0 for a in node.names}


def readme_imports() -> set[str]:
    """The names the README's examples import from ``rdfilter`` itself."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return {a.name for block in blocks for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "rdfilter"
            for a in node.names}


def test_the_package_exports_what_the_readme_names_and_nothing_else():
    # an internal that returns to the package namespace must be documented
    text = README.read_text()
    assert {name for name in package_exports() if not re.search(rf"\b{name}\b", text)} == set()
    assert readme_imports() <= package_exports()
    assert readme_imports() and package_exports()  # both parsers find names
