"""Low-frequency shifts and odd periodic extension.

Before filtering, a few cosine modes are subtracted so that the remainder
vanishes at x = 0 and x = pi (and, for the third-order shift, so does its
second derivative); the remainder then extends to an odd 2pi-periodic
function smooth enough for the filter to act on without ringing.

``shift1d`` is the one 1D shift: the whole-grid postprocess, each
overlapping strip and each 2D boundary trace call it through
``filtering.postprocess_field`` and ``filtering.filter_boundary_trace``.
On the full grid its first-order coefficients are alpha_0 = (u_0 + u_pi)/2
and alpha_1 = (u_0 - u_pi)/2, the unique pair for which
v = u - alpha_0 - alpha_1 cos(x) vanishes at both endpoints.

The cosine modes are read from one memoized table per grid and mode count,
``cosine_basis(N, n_modes)[i, j] = cos(j x_i)``; it is read-only.  The 1D
shift (rows lo..hi of the table for a strip) and the 2D shift (its cos(x)
column) both use it, so no step re-evaluates a cosine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Field, ReactionSystem, read_only, uniform_nodes

ENDPOINT_TOL = 1.0e-12
CORNER_TOL = 1.0e-10


@lru_cache(maxsize=64)
def cosine_basis(n_intervals: int, n_modes: int) -> np.ndarray:
    """Read-only (N+1, n_modes) table cos(j x_i) on the nodes of an N-interval grid."""
    return read_only(np.cos(np.outer(uniform_nodes(n_intervals), np.arange(n_modes))))


def shift1d(values: np.ndarray, basis: np.ndarray,
            uxx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the cosine trend sum_j alpha_j cos(j x) fixed by the end data.

    ``values`` (nodes, m) covers nodes lo..hi and ``basis`` holds the same
    rows of ``cosine_basis``, one column per mode.  Without ``uxx`` (first
    order, two modes) the remainder v vanishes at both ends; with ``uxx``, the
    (2, m) second derivatives at lo and hi (third order, four modes), so
    does v_xx.  The conditions are solved in global coordinates rather than
    by rescaling the strip onto (0, pi), so a strip absorbs global cosine
    trends exactly; on the full grid this is the standard shift.
    Returns (v, alpha) with alpha (n_modes, m); v + basis @ alpha undoes it.
    """
    ends = basis[[0, -1]]
    if uxx is None:
        rows, rhs = ends, values[[0, -1]]
    else:
        modes = np.arange(basis.shape[1])
        rows = np.vstack([ends, -(modes**2)[np.newaxis, :] * ends])
        rhs = np.concatenate([values[[0, -1]], uxx])
    alpha = np.linalg.solve(rows, rhs)
    v = values - basis @ alpha
    v[[0, -1]] = 0.0  # exact by construction; clear the roundoff residue
    return v, alpha


def estimate_uxx_nodes(u_next: Field, u_curr: Field, u_prev: Field,
                       reaction: ReactionSystem, dt: float, t_next: float,
                       idx: np.ndarray) -> np.ndarray:
    """u_xx at the given nodes from the PDE itself:
    u_xx ~= (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) - f(u^{n+1})."""
    idx = np.asarray(idx)
    xb = u_next.grid.nodes[idx]
    ub = (3.0 * u_next.values[idx] - 4.0 * u_curr.values[idx]
          + u_prev.values[idx]) / (2.0 * dt)
    fb = reaction.eval(xb, t_next, u_next.values[idx])
    return ub - fb


def odd_extend_values(values: np.ndarray) -> np.ndarray:
    """(N+1, m) values with zero endpoints -> odd 2pi-periodic (2N, m) sequence."""
    end = max(float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))))
    if end > ENDPOINT_TOL:
        raise ValueError(
            f"odd extension needs zero endpoint values (got {end:.3e}); shift first"
        )
    n = values.shape[0] - 1
    out = np.empty((2 * n,) + values.shape[1:])
    out[: n + 1] = values
    out[n + 1:] = -values[n - 1:0:-1]
    return out


# ---------------------------------------------------------------------------
# Two dimensions: two-step shift making all four edges homogeneous.


def check_corners(edges: dict) -> None:
    """Reject 2D edge data {'g0', 'gpi', 'h0', 'hpi'} whose values at a corner
    differ by more than CORNER_TOL."""
    g0, gpi, h0, hpi = edges["g0"], edges["gpi"], edges["h0"], edges["hpi"]
    for a, b in ((g0[0], h0[0]), (g0[-1], hpi[0]), (gpi[0], h0[-1]), (gpi[-1], hpi[-1])):
        if np.max(np.abs(a - b)) > CORNER_TOL:
            raise ValueError("incompatible corner data in 2D boundary conditions")


@dataclass(frozen=True)
class ShiftCoeffs2D:
    """alpha: (2, Ny+1, m) cosine-in-x amplitudes as functions of y;
    beta: (2, Nx+1, m) cosine-in-y amplitudes as functions of x."""

    alpha: np.ndarray
    beta: np.ndarray


def _cos_xy(grid) -> tuple[np.ndarray, np.ndarray]:
    # cos(x) and cos(y) on the nodes: column 1 of each axis's cached table.
    return (cosine_basis(grid.n_intervals_x, 2)[:, 1],
            cosine_basis(grid.n_intervals_y, 2)[:, 1])


def shift2d(u: Field, edges: dict | None = None) -> tuple[Field, ShiftCoeffs2D]:
    """Render all four edges homogeneous with first-order shifts in x then y.

    ``edges`` optionally supplies the boundary data {'h0', 'hpi', 'g0', 'gpi'}
    (h: x-edges as functions of y; g: y-edges as functions of x); by default
    the field's own edge values are used.  Corner mismatches above 1e-10 are
    rejected.
    """
    vals = u.values
    if edges is None:
        edges = {"g0": vals[:, 0], "gpi": vals[:, -1], "h0": vals[0], "hpi": vals[-1]}
    else:
        edges = {key: np.atleast_2d(np.asarray(edges[key], dtype=float).T).T
                 for key in ("g0", "gpi", "h0", "hpi")}
    check_corners(edges)
    h0, hpi = edges["h0"], edges["hpi"]

    cos_x, cos_y = _cos_xy(u.grid)
    # Homogenize the x-direction boundary: v(0,y) = v(pi,y) = 0.
    alpha = np.stack([0.5 * (h0 + hpi), 0.5 * (h0 - hpi)])  # (2, Ny+1, m)
    v = vals - alpha[0][np.newaxis] - alpha[1][np.newaxis] * cos_x[:, np.newaxis, np.newaxis]
    # Then the y-direction, from the traces of v.
    v0, vpi = v[:, 0], v[:, -1]
    beta = np.stack([0.5 * (v0 + vpi), 0.5 * (v0 - vpi)])  # (2, Nx+1, m)
    w = v - beta[0][:, np.newaxis] - beta[1][:, np.newaxis] * cos_y[np.newaxis, :, np.newaxis]
    return u.with_values(w), ShiftCoeffs2D(alpha, beta)


def unshift2d(filtered_w: Field, coeffs: ShiftCoeffs2D) -> Field:
    cos_x, cos_y = _cos_xy(filtered_w.grid)
    alpha, beta = coeffs.alpha, coeffs.beta
    out = (filtered_w.values
           + alpha[0][np.newaxis] + alpha[1][np.newaxis] * cos_x[:, np.newaxis, np.newaxis]
           + beta[0][:, np.newaxis] + beta[1][:, np.newaxis] * cos_y[np.newaxis, :, np.newaxis])
    return filtered_w.with_values(out)
