"""Low-frequency shifts and odd periodic extension.

Before filtering, a few cosine modes are subtracted so that the remainder
vanishes at x = 0 and x = pi (and, for the third-order shift, so does its
second derivative); the remainder then extends to an odd 2pi-periodic
function smooth enough for the filter to act on without ringing.

``shift1d`` is the one shift: the whole-grid postprocess, each
overlapping strip and each 2D boundary trace call it through
``filtering.postprocess_field`` and ``filtering.filter_boundary_trace``, and
``solver2d.postprocess2d`` calls it along x and then along y.
On the full grid its first-order coefficients are alpha_0 = (u_0 + u_pi)/2
and alpha_1 = (u_0 - u_pi)/2, the unique pair for which
v = u - alpha_0 - alpha_1 cos(x) vanishes at both endpoints.

The cosine modes are read from one memoized table per grid and mode count,
``cosine_basis(N, n_modes)[i, j] = cos(j x_i)``; it is read-only.  A strip
reads rows lo..hi of it, so no step re-evaluates a cosine.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import Field, ReactionSystem, read_only, uniform_nodes

ENDPOINT_TOL = 1.0e-12


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
