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
reads, so no step re-evaluates a cosine, and ``endpoint_inverse``, checked
once per strip: above ``ENDPOINT_MAX_COND``, the condition of its
third-order endpoint matrix, ``cosine_trend`` rejects the strip by name.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import read_only, uniform_nodes

# Over the layouts ``ddm.make_layout`` accepts (N 20..512, overlaps 2..32), a
# strip's four-mode endpoint matrix has a 2-norm condition <= 1.3e4 or >= 6.6e14
# on 1-5 strips; on 1-40 strips the largest per layout fills every decade from
# 1e0 to 1e9, and 3,415 of 35,512 layouts are refused without being singular.
ENDPOINT_MAX_COND = 1.0e8


@lru_cache(maxsize=64)
def cosine_basis(n_intervals: int, n_modes: int) -> np.ndarray:
    """Read-only (N+1, n_modes) table cos(j x_i) on the nodes of an N-interval grid."""
    return read_only(np.cos(np.outer(uniform_nodes(n_intervals), np.arange(n_modes))))


def endpoint_matrix(n_intervals: int, lo: int, hi: int, n_modes: int) -> np.ndarray:
    """``cosine_trend``'s endpoint matrix on nodes lo..hi of an N-interval grid:
    cos(j x) at x_lo, x_hi, then (four modes) -j^2 cos(j x).  With four modes
    it is singular on [x, pi - x] at x = pi/6 and pi/4 (its blocks have
    determinants -16 cos 2x and -32 cos x cos 3x)."""
    ends = cosine_basis(n_intervals, n_modes)[[lo, hi]]
    return ends if n_modes == 2 else np.vstack([ends, -(np.arange(n_modes) ** 2) * ends])


@lru_cache(maxsize=256)
def endpoint_inverse(n_intervals: int, lo: int, hi: int, n_modes: int) -> np.ndarray:
    """Read-only inverse of ``endpoint_matrix``."""
    return read_only(np.linalg.inv(endpoint_matrix(n_intervals, lo, hi, n_modes)))


@lru_cache(maxsize=256)
def _trend_inverse(n_intervals: int, lo: int, hi: int, n_modes: int) -> np.ndarray:
    """``endpoint_inverse``; a four-mode one above ``ENDPOINT_MAX_COND`` raises."""
    if n_modes == 4 and hi - lo < n_intervals:  # the whole grid's has cond 10.4 at any N
        cond = np.linalg.cond(endpoint_matrix(n_intervals, lo, hi, 4))
        if not cond <= ENDPOINT_MAX_COND:  # a NaN condition fails too
            raise ValueError(f"shift_order: 3 cannot shift strip {lo}..{hi}: its endpoint "
                             f"matrix has condition {cond:.2g} > {ENDPOINT_MAX_COND:.0e}")
    return endpoint_inverse(n_intervals, lo, hi, n_modes)


def cosine_trend(ends: np.ndarray, n_intervals: int, lo: int, hi: int,
                 uxx: np.ndarray | None = None) -> np.ndarray:
    """The cosine trend sum_j alpha_j cos(j x) on nodes lo..hi of an N-interval grid.

    ``ends`` (2, ...) holds the values at lo and hi, which the trend takes;
    with ``uxx``, the second derivatives there (same shape), it takes those
    too (third order, four modes), else it has two modes (first order).  The
    conditions are solved in global coordinates rather than by rescaling the
    strip onto (0, pi), so a strip absorbs global cosine trends exactly; on
    the full grid this is the standard shift.  Returns (hi - lo + 1, ...),
    the trailing shape of ``ends`` kept.  With ``uxx``, a strip whose endpoint
    matrix has a condition above ``ENDPOINT_MAX_COND`` raises by name.
    """
    data = ends if uxx is None else np.concatenate([ends, uxx])  # (n_modes, ...)
    alpha = _trend_inverse(n_intervals, lo, hi, len(data)) @ data.reshape(len(data), -1)
    trend = cosine_basis(n_intervals, len(data))[lo:hi + 1] @ alpha
    return trend.reshape((hi - lo + 1,) + ends.shape[1:])
