"""Order-8 spectral filter and the 1D postprocessing pipeline.

The filter multiplies sine coefficient k of the (shifted, odd-extended)
field by sigma(kappa * k / N).  The stretching factor kappa moves the
effective cutoff down to the linearly stable band: with kappa >= kappa_c
every mode the filter retains satisfies the two-step scheme's per-mode
stability condition, so time steps far beyond dt = h^2/3 become usable.

``postprocess_field`` is the one 1D postprocess, on the whole grid or on
the overlapping strips of a ``ddm.SubdomainLayout``; every strip, and every
2D boundary trace (``filter_boundary_trace``), is shifted by
``shift.shift1d``, filtered and shifted back the same way.  The third-order
shift reads u_xx from a callable its caller passes, never the time levels.

The stretching factor is a plain float, kappa = kappa_fraction * kappa_c(dt,
h), fixed for the whole run: the drivers compute it once from the step and
the grid.  ``filter_factors`` is the one place that evaluates sigma8; it
memoizes the factors per (N, kappa) and returns them read-only, so a run
evaluates sigma once per grid and kappa.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.fft import dst, idst

from .core import Field, read_only
from .ddm import SubdomainLayout, blend_weights
from .shift import cosine_basis, shift1d

RETAIN_TOL = 1.0e-12


def sigma8(xi) -> np.ndarray | float:
    """Eighth-order filter: p(y) = (35 - 84y + 70y^2 - 20y^3) y^4, y = (1 + cos(pi xi))/2,
    zero outside |xi| < 1.  Even, C^7, unit value and 7 vanishing derivatives at 0.

    p is the regularized incomplete beta function I_y(4, 4), so p(y) = 1 - p(1 - y).
    For y >= 1/2 (|xi| <= 1/2) the filter is evaluated as 1 - p(s) with
    s = 1 - y = sin^2(pi xi / 2) computed directly: p(y) itself cancels near
    y = 1 and would exceed 1 by up to 2e-14.  Both branches lie in [0, 1] exactly."""
    xi = np.asarray(xi, dtype=float)
    a = np.clip(np.abs(xi), 0.0, 1.0)
    y = 0.5 * (1.0 + np.cos(np.pi * a))
    upper = y >= 0.5
    z = np.where(upper, np.sin(0.5 * np.pi * a) ** 2, y)
    p = (35.0 - 84.0 * z + 70.0 * z**2 - 20.0 * z**3) * z**4
    out = np.where(np.abs(xi) >= 1.0, 0.0, np.where(upper, 1.0 - p, p))
    return float(out) if out.ndim == 0 else out


def kappa_critical(dt: float, h: float) -> float:
    """Critical stretching factor: the filter cutoff k = N/kappa_c sits exactly
    at the stability boundary of the unfiltered scheme.  Below dt = h^2/3 no
    mode is unstable and no stretching is needed."""
    if dt <= 0.0 or h <= 0.0:
        raise ValueError("dt and h must be positive")
    arg = 1.0 - 2.0 * h**2 / (3.0 * dt)
    if arg <= -1.0:  # dt <= h^2/3: every mode already stable
        return 1.0
    return np.pi / np.arccos(arg)


def sine_coefficients(values: np.ndarray) -> np.ndarray:
    """Sine-series coefficients b_k (k = 1..N-1) of the odd extension of
    (N+1, m) values with zero endpoints; DST-I of the interior values."""
    n = values.shape[0] - 1
    return dst(values[1:-1], type=1, axis=0) / n


def sine_reconstruct(coeffs: np.ndarray) -> np.ndarray:
    """Evaluate a sine series at the grid nodes; endpoints are exactly zero."""
    n = coeffs.shape[0] + 1
    out = np.zeros((n + 1,) + coeffs.shape[1:])
    out[1:-1] = idst(coeffs * n, type=1, axis=0)
    return out


@lru_cache(maxsize=64)
def filter_factors(n_intervals: int, kappa: float) -> np.ndarray:
    """Read-only factors sigma8(kappa k / N), k = 1..N-1, memoized per (N, kappa)."""
    k = np.arange(1, n_intervals)
    return read_only(sigma8(kappa * k / n_intervals))


def apply_filter_values(values: np.ndarray, kappa: float) -> np.ndarray:
    """Filter (N+1, m) values with zero endpoints: scale sine coefficient k
    by sigma(kappa k / N)."""
    end = max(float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))))
    if end > RETAIN_TOL:
        raise ValueError(f"apply_filter_values needs shifted input (endpoints {end:.3e})")
    n = values.shape[0] - 1
    factors = filter_factors(n, kappa)
    coeffs = sine_coefficients(values) * factors.reshape((-1,) + (1,) * (values.ndim - 1))
    return sine_reconstruct(coeffs)


def _postprocess_strip(values: np.ndarray, n_grid: int, lo: int, uxx: np.ndarray | None,
                       kappa: float) -> np.ndarray:
    """Shift, filter and inverse-shift (nodes, m) values on nodes lo.. of an
    ``n_grid``-interval grid; the two end values are kept exactly.  The shifted
    values vanish at both ends by construction, so the filter is applied
    inline, without ``apply_filter_values``' endpoint check."""
    v, alpha = shift1d(values, n_grid, lo, uxx)
    n = v.shape[0] - 1
    coeffs = sine_coefficients(v)
    trend = cosine_basis(n_grid, alpha.shape[0])[lo:lo + n + 1] @ alpha
    out = sine_reconstruct(coeffs * filter_factors(n, kappa)[:, np.newaxis]) + trend
    out[[0, -1]] = values[[0, -1]]
    return out


def filter_boundary_trace(samples: np.ndarray, kappa: float) -> np.ndarray:
    """Filter a 1D boundary trace with the first-order 1D postprocess.  Endpoint
    values of the trace are reproduced exactly."""
    samples = np.asarray(samples, dtype=float)
    squeeze = samples.ndim == 1
    vals = samples[:, np.newaxis] if squeeze else samples
    out = _postprocess_strip(vals, vals.shape[0] - 1, 0, None, kappa)
    return out[:, 0] if squeeze else out


def postprocess_field(u: Field, kappa: float,
                      uxx_at: Callable[[np.ndarray], np.ndarray] | None = None,
                      layout: SubdomainLayout | None = None) -> Field:
    """Shift, filter, inverse shift: on the whole grid, or per strip of ``layout``.

    ``layout`` None is one strip covering the grid.  With several strips each
    is shifted with its own end values and filtered with sigma(kappa k /
    N_local), so the cutoff sits at the same physical wavenumber as on the
    whole grid; the strips are then blended over the overlaps.  Global
    boundary values are preserved exactly.

    ``uxx_at(nodes)`` returns u_xx at those node indices, shape (len(nodes),
    m); given it, each strip takes the third-order shift with u_xx at its two
    end nodes, else the first-order shift.
    """
    n = u.grid.n_intervals
    if layout is not None and layout.grid != u.grid:
        raise ValueError(f"layout is for N={layout.grid.n_intervals}, the field has N={n}")
    ranges = ((0, n),) if layout is None else layout.ranges

    def strip(lo: int, hi: int) -> np.ndarray:
        uxx = None if uxx_at is None else uxx_at(np.array([lo, hi]))
        return _postprocess_strip(u.values[lo:hi + 1], n, lo, uxx, kappa)

    if len(ranges) == 1:  # the blend weights of a single strip are all 1
        return u.with_values(strip(0, n))
    out = np.zeros_like(u.values)
    for (lo, hi), w in zip(ranges, blend_weights(layout)):
        out[lo:hi + 1] += w[:, np.newaxis] * strip(lo, hi)
    return u.with_values(out)
