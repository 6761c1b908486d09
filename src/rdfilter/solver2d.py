"""Two-dimensional Dirichlet problems: boundary data, the per-axis critical
stretching, and the 2D postprocess (boundary-trace filtering, two-step
first-order shift, tensor sine filtering, reconstruction).

The time step is ``stepper.step``, the same stepper as in 1D: it runs over
both node axes of a Field2D with the five-point Laplacian
(``stepper.apply_laplacian``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import dstn, idstn

from .core import Field2D, Grid2D
from .filtering import FilterSpec, RETAIN_TOL, filter_boundary_trace, filter_factors
from .shift import check_corners, shift2d, unshift2d
from .stepper import set_boundary


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
    the 1D stability budget: replace h^2 by h^2/2 in the 1D formula.  Below
    dt = h^2/6 nothing is unstable.
    """
    if dt <= 0.0 or h <= 0.0:
        raise ValueError("dt and h must be positive")
    arg = 1.0 - h**2 / (3.0 * dt)
    if arg <= -1.0:
        return 1.0
    return np.pi / np.arccos(arg)


def apply_tensor_filter_values(values: np.ndarray, spec_x: FilterSpec,
                               spec_y: FilterSpec) -> np.ndarray:
    """Scale tensor sine coefficient (k, l) by sigma(kx k/Nx) * sigma(ky l/Ny).

    ``values`` is (Nx+1, Ny+1, m) and must vanish on all four edges.
    """
    edge = max(
        float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))),
        float(np.max(np.abs(values[:, 0]))), float(np.max(np.abs(values[:, -1]))),
    )
    if edge > RETAIN_TOL:
        raise ValueError(f"tensor filter needs homogeneous edges (got {edge:.3e})")
    nx = values.shape[0] - 1
    ny = values.shape[1] - 1
    interior = values[1:-1, 1:-1]
    coeffs = dstn(interior, type=1, axes=(0, 1))
    fx = filter_factors(nx, spec_x)
    fy = filter_factors(ny, spec_y)
    coeffs = coeffs * fx[:, np.newaxis, np.newaxis] * fy[np.newaxis, :, np.newaxis]
    out = np.zeros_like(values)
    out[1:-1, 1:-1] = idstn(coeffs, type=1, axes=(0, 1))
    return out


def postprocess2d(u: Field2D, spec_x: FilterSpec, spec_y: FilterSpec,
                  edges: dict[str, np.ndarray] | None = None) -> Field2D:
    """Filter the boundary traces, shift, tensor-filter, reconstruct.

    The output's edges equal the filtered boundary data exactly.  ``edges``
    defaults to the field's own edge values.
    """
    vals = u.values.copy()
    if edges is None:
        edges = {"g0": vals[:, 0], "gpi": vals[:, -1],
                 "h0": vals[0, :], "hpi": vals[-1, :]}
    filtered_edges = {
        "g0": filter_boundary_trace(edges["g0"], spec_x),
        "gpi": filter_boundary_trace(edges["gpi"], spec_x),
        "h0": filter_boundary_trace(edges["h0"], spec_y),
        "hpi": filter_boundary_trace(edges["hpi"], spec_y),
    }
    set_boundary(vals, filtered_edges)
    shifted, coeffs = shift2d(u.with_values(vals))
    w = shifted.values.copy()
    w[0] = 0.0
    w[-1] = 0.0
    w[:, 0] = 0.0
    w[:, -1] = 0.0
    filtered = apply_tensor_filter_values(w, spec_x, spec_y)
    out = unshift2d(u.with_values(filtered), coeffs).values
    set_boundary(out, filtered_edges)
    return u.with_values(out)
