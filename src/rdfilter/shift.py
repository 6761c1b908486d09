"""Low-frequency shifts.

Before filtering, a few cosine modes are subtracted so that the remainder
vanishes at x = 0 and x = pi (and, for the third-order shift, so does its
second derivative, whose end values the caller passes); the remainder then
extends to an odd 2pi-periodic function smooth enough for the filter to act
on without ringing.  That extension is never built: the DST-I implies it.

``shift1d`` is the one shift: the 1D postprocess of ``filtering`` calls it
on the whole grid and on each overlapping strip, and a 2D grid runs that
postprocess along x, then along y.  On at most ``filtering.MATRIX_MAX_N``
intervals it runs only while the postprocess matrices are assembled.  On
the full grid its first-order coefficients are alpha_0 = (u_0 + u_pi)/2 and
alpha_1 = (u_0 - u_pi)/2, the unique pair for which v = u - alpha_0 -
alpha_1 cos(x) vanishes at both endpoints; the 2D postprocess carries the
change made to each face into the interior with this same trend.

The cosine modes are read from one memoized table per grid and mode count,
``cosine_basis(N, n_modes)[i, j] = cos(j x_i)``; it is read-only.  A strip
reads rows lo..hi of it, so no step re-evaluates a cosine.  The inverse of a
strip's endpoint matrix is memoized too (``endpoint_inverse``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import read_only, uniform_nodes


@lru_cache(maxsize=64)
def cosine_basis(n_intervals: int, n_modes: int) -> np.ndarray:
    """Read-only (N+1, n_modes) table cos(j x_i) on the nodes of an N-interval grid."""
    return read_only(np.cos(np.outer(uniform_nodes(n_intervals), np.arange(n_modes))))


@lru_cache(maxsize=256)
def endpoint_inverse(n_intervals: int, lo: int, hi: int, n_modes: int) -> np.ndarray:
    """Read-only inverse of ``shift1d``'s endpoint matrix on nodes lo..hi of an
    N-interval grid: cos(j x) at x_lo, x_hi, then (four modes) -j^2 cos(j x)."""
    ends = cosine_basis(n_intervals, n_modes)[[lo, hi]]
    rows = ends if n_modes == 2 else np.vstack([ends, -(np.arange(n_modes) ** 2) * ends])
    return read_only(np.linalg.inv(rows))


def shift1d(values: np.ndarray, n_intervals: int, lo: int = 0,
            uxx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the cosine trend sum_j alpha_j cos(j x) fixed by the end data.

    ``values`` (nodes, m) covers nodes lo..hi of an N-interval grid.  Without
    ``uxx`` (first order, two modes) the remainder v vanishes at both ends;
    with ``uxx``, the (2, m) second derivatives at lo and hi (third order,
    four modes), so does v_xx.  The conditions are solved in global
    coordinates rather than by rescaling the strip onto (0, pi), so a strip
    absorbs global cosine trends exactly; on the full grid this is the
    standard shift.  Returns (v, alpha) with alpha (n_modes, m); adding rows
    lo..hi of ``cosine_basis(N, n_modes)`` @ alpha to v undoes it.
    """
    hi = lo + values.shape[0] - 1
    n_modes = 2 if uxx is None else 4
    ends = values[[0, -1]] if uxx is None else np.concatenate([values[[0, -1]], uxx])
    alpha = endpoint_inverse(n_intervals, lo, hi, n_modes) @ ends
    v = values - cosine_basis(n_intervals, n_modes)[lo:hi + 1] @ alpha
    v[[0, -1]] = 0.0  # exact by construction; clear the roundoff residue
    return v, alpha

