"""Two-dimensional Dirichlet problems: boundary data and the per-axis
critical stretching.

The boundary data is one function g(x, y, t) on the boundary of (0, pi)^2,
sampled edge by edge (``BoundaryData2D.sample``), so the two edges through a
corner take its value from the same g.

The time step (``stepper.step``) is the one of 1D, run over both node axes.
The postprocess (``filtering.postprocess_field``) is the 1D one along x,
then along y, of the field lifted by the change the 1D postprocess makes to
its faces, with one stretching factor per axis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Grid2D
from .filtering import kappa_critical


@dataclass(frozen=True)
class BoundaryData2D:
    """Dirichlet data g(x, y, t) on the boundary of (0, pi)^2.

    ``sample`` calls g once per edge, one coordinate the edge's node array and
    the other its constant 0 or pi; g returns shape (len(nodes),) or
    (len(nodes), m).  The result is the edge dict of ``stepper.set_boundary``.
    """

    g: Callable

    def sample(self, grid: Grid2D, t: float, m: int = 1) -> dict[str, np.ndarray]:
        def _edge(x, y):
            vals = np.asarray(self.g(x, y, t), dtype=float)
            if vals.ndim == 1:
                vals = vals[:, np.newaxis]
            want = (np.broadcast(x, y).size, m)
            if vals.shape != want:
                raise ValueError(f"edge sample has shape {vals.shape}, expected {want}")
            return vals

        x, y = grid.nodes_x, grid.nodes_y
        return {"g0": _edge(x, 0.0), "gpi": _edge(x, np.pi),
                "h0": _edge(0.0, y), "hpi": _edge(np.pi, y)}


def kappa_critical_2d(dt: float, h: float) -> float:
    """Per-axis critical stretching in 2D.

    The worst tensor mode pairs the per-axis cutoffs, so each axis gets half
    the 1D stability budget: replace h^2 by h^2/2 in the 1D formula, which is
    the 1D formula at 2 dt.  Below dt = h^2/6 nothing is unstable.
    """
    return kappa_critical(2.0 * dt, h)
