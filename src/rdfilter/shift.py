"""Low-frequency shifts and odd periodic extension.

Before filtering, a few cosine modes are subtracted so that the remainder
vanishes at x = 0 and x = pi (and, for the third-order shift, so does its
second derivative); the remainder then extends to an odd 2pi-periodic
function smooth enough for the filter to act on without ringing.

Note on the first-order coefficients: the assignments used here,
alpha_1 = (u_0 + u_pi)/2 and alpha_2 = (u_0 - u_pi)/2, are the unique pair
for which v = u - alpha_1 - alpha_2 cos(x) vanishes at both endpoints.

The cosine modes are read from one memoized table per grid and mode count,
``cosine_basis(N, n_modes)[i, j] = cos(j x_i)``; it is read-only.  The 1D
shifts, the overlapping strips (rows lo..hi of the global table) and the 2D
shift (its cos(x) column) all use it, so no step re-evaluates a cosine.
The node array x taken by the ``*_values`` functions must therefore be the
nodes of a uniform grid on [0, pi]; the table is looked up by its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Field, Field2D, ReactionSystem, read_only, uniform_nodes

ENDPOINT_TOL = 1.0e-12

# Rows: value at 0, value at pi, estimated u_xx at 0, estimated u_xx at pi.
_SHIFT3_MATRIX = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, 1.0, -1.0],
    [0.0, -1.0, -4.0, -9.0],
    [0.0, 1.0, -4.0, 9.0],
])


@dataclass(frozen=True)
class ShiftCoeffs1:
    """Amplitudes of cos(0*x) and cos(x), shape (2, m)."""

    alpha: np.ndarray


@dataclass(frozen=True)
class ShiftCoeffs3:
    """Amplitudes of cos((j-1)x), j = 1..4, shape (4, m)."""

    alpha: np.ndarray


@lru_cache(maxsize=64)
def cosine_basis(n_intervals: int, n_modes: int) -> np.ndarray:
    """Read-only (N+1, n_modes) table cos(j x_i) on the nodes of an N-interval grid."""
    return read_only(np.cos(np.outer(uniform_nodes(n_intervals), np.arange(n_modes))))


def _cosine_sum(alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_j alpha[j] * cos(j*x), alpha shape (n_modes, m) -> (len(x), m).
    # x is the node array of a uniform grid on [0, pi], so the table is
    # looked up by its length.
    return cosine_basis(x.shape[0] - 1, alpha.shape[0]) @ alpha


def shift1_values(values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-order shift on raw (nodes, m) values; x are the grid nodes on [0, pi]."""
    u0, upi = values[0], values[-1]
    alpha = np.stack([0.5 * (u0 + upi), 0.5 * (u0 - upi)])
    v = values - _cosine_sum(alpha, x)
    v[0] = 0.0  # exact by construction; clear the roundoff residue
    v[-1] = 0.0
    return v, alpha


def shift1(u: Field) -> tuple[Field, ShiftCoeffs1]:
    v, alpha = shift1_values(u.values, u.grid.nodes)
    return u.with_values(v), ShiftCoeffs1(alpha)


def shift3_values(values: np.ndarray, x: np.ndarray, uxx_0: np.ndarray,
                  uxx_pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Third-order shift with prescribed endpoint second derivatives; x are
    the grid nodes on [0, pi]."""
    rhs = np.stack([
        values[0],
        values[-1],
        np.atleast_1d(np.asarray(uxx_0, dtype=float)),
        np.atleast_1d(np.asarray(uxx_pi, dtype=float)),
    ])
    alpha = np.linalg.solve(_SHIFT3_MATRIX, rhs)
    v = values - _cosine_sum(alpha, x)
    v[0] = 0.0  # exact by construction; clear the roundoff residue
    v[-1] = 0.0
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


def estimate_uxx_endpoints(u_next: Field, u_curr: Field, u_prev: Field,
                           reaction: ReactionSystem, dt: float,
                           t_next: float) -> tuple[np.ndarray, np.ndarray]:
    uxx = estimate_uxx_nodes(u_next, u_curr, u_prev, reaction, dt, t_next,
                             np.array([0, u_next.grid.n_intervals]))
    return uxx[0], uxx[1]


def shift3(u: Field, u_curr: Field, u_prev: Field, reaction: ReactionSystem,
           dt: float, t_next: float) -> tuple[Field, ShiftCoeffs3]:
    """Third-order shift of u = u^{n+1} using the two stored history levels."""
    uxx_0, uxx_pi = estimate_uxx_endpoints(u, u_curr, u_prev, reaction, dt, t_next)
    v, alpha = shift3_values(u.values, u.grid.nodes, uxx_0, uxx_pi)
    return u.with_values(v), ShiftCoeffs3(alpha)


def shift3_from_endpoint_data(u: Field, uxx_0, uxx_pi) -> tuple[Field, ShiftCoeffs3]:
    v, alpha = shift3_values(u.values, u.grid.nodes, uxx_0, uxx_pi)
    return u.with_values(v), ShiftCoeffs3(alpha)


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


def odd_extend(v: Field) -> np.ndarray:
    return odd_extend_values(v.values)


def unshift_values(filtered: np.ndarray, alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    return filtered + _cosine_sum(alpha, x)


def unshift(filtered_v: Field, coeffs: ShiftCoeffs1 | ShiftCoeffs3) -> Field:
    return filtered_v.with_values(
        unshift_values(filtered_v.values, coeffs.alpha, filtered_v.grid.nodes)
    )


# ---------------------------------------------------------------------------
# Two dimensions: two-step shift making all four edges homogeneous.

CORNER_TOL = 1.0e-10


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


def shift2d(u: Field2D, edges: dict | None = None) -> tuple[Field2D, ShiftCoeffs2D]:
    """Render all four edges homogeneous with first-order shifts in x then y.

    ``edges`` optionally supplies the boundary data {'h0', 'hpi', 'g0', 'gpi'}
    (h: x-edges as functions of y; g: y-edges as functions of x); by default
    the field's own edge values are used.  Corner mismatches above 1e-10 are
    rejected.
    """
    vals = u.values
    h0 = vals[0] if edges is None else np.atleast_2d(np.asarray(edges["h0"], dtype=float).T).T
    hpi = vals[-1] if edges is None else np.atleast_2d(np.asarray(edges["hpi"], dtype=float).T).T
    g0 = vals[:, 0] if edges is None else np.atleast_2d(np.asarray(edges["g0"], dtype=float).T).T
    gpi = vals[:, -1] if edges is None else np.atleast_2d(np.asarray(edges["gpi"], dtype=float).T).T
    corners = [
        (g0[0], h0[0]), (g0[-1], hpi[0]),
        (gpi[0], h0[-1]), (gpi[-1], hpi[-1]),
    ]
    for a, b in corners:
        if np.max(np.abs(a - b)) > CORNER_TOL:
            raise ValueError("incompatible corner data in 2D boundary conditions")

    cos_x, cos_y = _cos_xy(u.grid)
    # Homogenize the x-direction boundary: v(0,y) = v(pi,y) = 0.
    alpha = np.stack([0.5 * (h0 + hpi), 0.5 * (h0 - hpi)])  # (2, Ny+1, m)
    v = vals - alpha[0][np.newaxis] - alpha[1][np.newaxis] * cos_x[:, np.newaxis, np.newaxis]
    # Then the y-direction, from the traces of v.
    v0, vpi = v[:, 0], v[:, -1]
    beta = np.stack([0.5 * (v0 + vpi), 0.5 * (v0 - vpi)])  # (2, Nx+1, m)
    w = v - beta[0][:, np.newaxis] - beta[1][:, np.newaxis] * cos_y[np.newaxis, :, np.newaxis]
    return u.with_values(w), ShiftCoeffs2D(alpha, beta)


def unshift2d(filtered_w: Field2D, coeffs: ShiftCoeffs2D) -> Field2D:
    cos_x, cos_y = _cos_xy(filtered_w.grid)
    alpha, beta = coeffs.alpha, coeffs.beta
    out = (filtered_w.values
           + alpha[0][np.newaxis] + alpha[1][np.newaxis] * cos_x[:, np.newaxis, np.newaxis]
           + beta[0][:, np.newaxis] + beta[1][:, np.newaxis] * cos_y[np.newaxis, :, np.newaxis])
    return filtered_w.with_values(out)
