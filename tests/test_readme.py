"""The README's library examples run against the current API."""

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
