"""Two-dimensional Dirichlet problems: boundary data, the per-axis critical
stretching, and the 2D postprocess.

The postprocess is the 1D one run along each axis: the four boundary traces
are filtered separately (``filtering.filter_boundary_trace``), then the field
is shifted with ``shift.shift1d`` along x and then along y, filtered with
``filtering.apply_filter_values`` along y and then along x (the tensor filter
sigma(kx k/Nx) sigma(ky l/Ny), with the per-axis stretching factors kx and
ky given as floats), and shifted back.

The time step is ``stepper.step``, the same stepper as in 1D: it runs over
both node axes of a 2D Field with the five-point Laplacian
(``stepper.apply_laplacian``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Field, Grid2D
from .filtering import apply_filter_values, filter_boundary_trace, kappa_critical
from .shift import cosine_basis, shift1d
from .stepper import set_boundary

CORNER_TOL = 1.0e-10


def check_corners(edges: dict) -> None:
    """Reject 2D edge data {'g0', 'gpi', 'h0', 'hpi'} whose values at a corner
    differ by more than CORNER_TOL."""
    g0, gpi, h0, hpi = edges["g0"], edges["gpi"], edges["h0"], edges["hpi"]
    for a, b in ((g0[0], h0[0]), (g0[-1], hpi[0]), (gpi[0], h0[-1]), (gpi[-1], hpi[-1])):
        if np.max(np.abs(a - b)) > CORNER_TOL:
            raise ValueError("incompatible corner data in 2D boundary conditions")


@dataclass(frozen=True)
class BoundaryData2D:
    """Dirichlet data on the four edges of (0, pi)^2.

    g0/gpi are functions of (x, t) on the edges y = 0 and y = pi; h0/hpi are
    functions of (y, t) on the edges x = 0 and x = pi.  Each returns an array
    of shape (len(coord),) or (len(coord), m).
    """

    g0: Callable
    gpi: Callable
    h0: Callable
    hpi: Callable

    def sample(self, grid: Grid2D, t: float, m: int = 1) -> dict[str, np.ndarray]:
        def _edge(fn, coord, count):
            vals = np.asarray(fn(coord, t), dtype=float)
            if vals.ndim == 1:
                vals = vals[:, np.newaxis]
            if vals.shape != (count, m):
                raise ValueError(f"edge sample has shape {vals.shape}, expected {(count, m)}")
            return vals

        x, y = grid.nodes_x, grid.nodes_y
        edges = {
            "g0": _edge(self.g0, x, len(x)),
            "gpi": _edge(self.gpi, x, len(x)),
            "h0": _edge(self.h0, y, len(y)),
            "hpi": _edge(self.hpi, y, len(y)),
        }
        check_corners(edges)
        return edges


def kappa_critical_2d(dt: float, h: float) -> float:
    """Per-axis critical stretching in 2D.

    The worst tensor mode pairs the per-axis cutoffs, so each axis gets half
    the 1D stability budget: replace h^2 by h^2/2 in the 1D formula, which is
    the 1D formula at 2 dt.  Below dt = h^2/6 nothing is unstable.
    """
    return kappa_critical(2.0 * dt, h)


def postprocess2d(u: Field, kappa_x: float, kappa_y: float) -> Field:
    """Filter the boundary traces, shift along x then y, filter along y then
    x, shift back.  The output's edges equal the filtered traces exactly."""
    vals = u.values.copy()
    nx, ny, m = vals.shape[0] - 1, vals.shape[1] - 1, vals.shape[2]
    edges = {
        "g0": filter_boundary_trace(vals[:, 0], kappa_x),
        "gpi": filter_boundary_trace(vals[:, -1], kappa_x),
        "h0": filter_boundary_trace(vals[0], kappa_y),
        "hpi": filter_boundary_trace(vals[-1], kappa_y),
    }
    set_boundary(vals, edges)

    def swap(a: np.ndarray, rows: int) -> np.ndarray:
        # (rows, cols * m), node-major along one axis -> (cols, rows * m)
        return a.reshape(rows, -1, m).swapaxes(0, 1).reshape(-1, rows * m)

    basis_x, basis_y = cosine_basis(nx, 2), cosine_basis(ny, 2)
    v, alpha = shift1d(vals.reshape(nx + 1, -1), nx)
    w, beta = shift1d(swap(v, nx + 1), ny)
    w = apply_filter_values(swap(apply_filter_values(w, kappa_y), ny + 1), kappa_x)
    out = (w + swap(basis_y @ beta, ny + 1) + basis_x @ alpha).reshape(vals.shape)
    set_boundary(out, edges)
    return u.with_values(out)
