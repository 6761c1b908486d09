"""The low-frequency cosine trend of the shift.

Before filtering, a few cosine modes are subtracted so that the remainder
vanishes at x = 0 and x = pi (and, for the third-order shift, so does its
second derivative, whose end values the caller passes); the remainder then
extends to an odd 2pi-periodic function smooth enough for the filter to act
on without ringing.  That extension is never built: the DST-I implies it.
After filtering the same trend is added back.

``cosine_trend`` is that trend, fixed by a strip's end data; the 1D
postprocess of ``filtering`` builds it once per strip, to subtract and to
add back, and the 2D postprocess lifts the change made to each face with
it.  On the full grid its first-order coefficients are (u_0 + u_pi)/2 and
(u_0 - u_pi)/2.  It alone reads the two read-only memos of this module:
``cosine_basis(N, n_modes)[i, j] = cos(j x_i)``, whose rows lo..hi a strip
reads, so no step re-evaluates a cosine, and ``endpoint_inverse``.
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
    """Read-only inverse of ``cosine_trend``'s endpoint matrix on nodes lo..hi of
    an N-interval grid: cos(j x) at x_lo, x_hi, then (four modes) -j^2 cos(j x)."""
    ends = cosine_basis(n_intervals, n_modes)[[lo, hi]]
    rows = ends if n_modes == 2 else np.vstack([ends, -(np.arange(n_modes) ** 2) * ends])
    return read_only(np.linalg.inv(rows))


def cosine_trend(ends: np.ndarray, n_intervals: int, lo: int, hi: int,
                 uxx: np.ndarray | None = None) -> np.ndarray:
    """The cosine trend sum_j alpha_j cos(j x) on nodes lo..hi of an N-interval grid.

    ``ends`` (2, ...) holds the values at lo and hi, which the trend takes;
    with ``uxx``, the second derivatives there (same shape), it takes those
    too (third order, four modes), else it has two modes (first order).  The
    conditions are solved in global coordinates rather than by rescaling the
    strip onto (0, pi), so a strip absorbs global cosine trends exactly; on
    the full grid this is the standard shift.  Returns (hi - lo + 1, ...),
    the trailing shape of ``ends`` kept.
    """
    data = ends if uxx is None else np.concatenate([ends, uxx])  # (n_modes, ...)
    alpha = endpoint_inverse(n_intervals, lo, hi, len(data)) @ data.reshape(len(data), -1)
    trend = cosine_basis(n_intervals, len(data))[lo:hi + 1] @ alpha
    return trend.reshape((hi - lo + 1,) + ends.shape[1:])
