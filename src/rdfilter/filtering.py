"""Order-8 spectral filter and the one postprocess, for 1D and 2D grids.

The filter multiplies sine coefficient k of the (shifted, odd-extended)
field by sigma(kappa * k / N).  The stretching factor kappa moves the
effective cutoff down to the linearly stable band: with kappa >= kappa_c
every mode the filter retains satisfies the two-step scheme's per-mode
stability condition, so time steps far beyond dt = h^2/3 become usable.

``postprocess_field`` is the one postprocess, on a whole 1D grid or on the
overlapping strips of a ``ddm.SubdomainLayout``: each strip loses its
``shift.cosine_trend``, is filtered by one DST-I kernel and gets it back.
The third-order shift reads u_xx from a field its caller passes, never
the time levels.  A 2D field runs the same 1D postprocess along x, then
along y, of a field lifted by the trend of the change made to its faces.

With kappa fixed, the 1D postprocess is linear: P @ u + Q @ u_xx(end nodes).
It picks the path by N alone, axis by axis in 2D: on at most
``MATRIX_MAX_N`` intervals, where Python call overhead and not arithmetic
is the cost, it applies P and Q from its memo ``_matrices``, else it runs
the DSTs.  Either way P is ``postprocess_field`` of ``np.eye(N + 1)``, and
Q that of zeros with ``uxx`` holding a unit at each strip end.  On values
with zero ends the first-order shift is zero: there it is the sine filter.

Each node axis has one stretching factor, a plain float fixed for the run;
``filter_factors``, the one place that evaluates sigma8, memoizes sigma.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dst, idst

from .core import Field, read_only, require_positive
from .ddm import SubdomainLayout, blend_weights
from .shift import cosine_trend

# The largest 1D grid whose postprocess ``postprocess_field`` applies as the
# matrices of its memo ``_matrices``: at N = 256 one P @ u takes about 18 us
# against 85 us for the DSTs, at N = 512 the two are even, and above that the
# O(N^2) product loses to the O(N log N) transforms.
MATRIX_MAX_N = 256
# Unit columns per ``_postprocess`` call while assembling: one call on the
# whole (N+1, N+1) identity holds several copies of it at once.  At N = 128
# on 4 strips (35-41 nodes each) an assembly takes 241 us against 382 us at
# 32 columns (median of 1,600, 2-core x86); at N = 256 its peak is 1.45 MB.
# P's bits depend on the block: a one-column block makes the trend a BLAS
# matrix-vector product, which may round otherwise than a matrix product.
# So a strip of 64k + 33 nodes, where 32 columns leave one and 64 do not,
# differs from 32's P in the last bits (by up to 4.4e-14 of max|P| up to N = 256).
ASSEMBLY_BLOCK = 64


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
    require_positive("dt", dt)
    require_positive("h", h)
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


def _sine_filter(values: np.ndarray, kappa: float) -> np.ndarray:
    """The sine filter along axis 0 of (N+1, ...) values, read as if both ends
    were zero: DST-I of the interior, scale coefficient k by sigma(kappa k / N),
    inverse DST.  The result has zero ends."""
    factors = filter_factors(values.shape[0] - 1, kappa)
    coeffs = sine_coefficients(values) * factors.reshape((-1,) + (1,) * (values.ndim - 1))
    return sine_reconstruct(coeffs)


def _postprocess(values: np.ndarray, kappa: float, n_grid: int, lo: int = 0,
                 uxx: np.ndarray | None = None) -> np.ndarray:
    """Shift, filter and shift back node-major ``values`` (nodes, cols), nodes
    lo.. of an ``n_grid``-interval grid: at third order with ``uxx`` (u_xx at
    both ends), else at first order.  Both end values are kept exactly."""
    trend = cosine_trend(values[[0, -1]], n_grid, lo, lo + len(values) - 1, uxx)
    out = _sine_filter(values - trend, kappa) + trend  # the remainder's ends are never read
    out[[0, -1]] = values[[0, -1]]
    return out


def postprocess_field(u: Field, kappa: float | tuple[float, ...], uxx: Field | None = None,
                      layout: SubdomainLayout | None = None) -> Field:
    """Shift, filter, inverse shift: on a 1D or 2D grid, or per strip of ``layout``.

    ``kappa`` holds one stretching factor per node axis, x first; a float is
    every axis's.  ``layout`` None is one strip covering the grid.  With
    several strips each is shifted with its own end values and filtered with
    sigma(kappa k / N_local), so the cutoff sits at the same physical
    wavenumber as on the whole grid; the strips are then blended over the
    overlaps.  Global boundary values are preserved exactly.

    ``uxx`` holds u_xx at every node, a Field on u's grid with u's component
    count (as ``stepper.estimate_uxx`` builds it); given it, each strip takes
    the third-order shift with u_xx at its two end nodes, else the first-order
    shift; a strip ``shift.cosine_trend`` cannot take raises.  Only a 1D field
    takes ``uxx`` or ``layout``; a 2D field gets the tensor filter sigma(kx k/Nx)
    sigma(ky l/Ny), its edges its traces run through the 1D postprocess."""
    n_axes = u.values.ndim - 1
    if type(kappa) is not tuple:  # the drivers pass a tuple, so np.ndim is off their path
        kappa = (kappa,) * n_axes if np.ndim(kappa) == 0 else tuple(kappa)
    if len(kappa) != n_axes:
        raise ValueError(f"kappa: needs one value per node axis ({n_axes}), got {len(kappa)}")
    for k in kappa:
        require_positive("kappa", k)
    kappa = tuple(map(float, kappa))  # a 0-d array is no key for the memos
    if uxx is not None and not (isinstance(uxx, Field) and uxx.values.shape == u.values.shape):
        got = uxx.values.shape if isinstance(uxx, Field) else type(uxx).__name__
        raise ValueError(f"uxx: must be a Field of u's shape {u.values.shape}, got {got}")
    if n_axes > 1:
        if uxx is not None or layout is not None:
            name = "uxx" if uxx is not None else "layout"
            raise ValueError(f"{name}: only a 1D field takes it, the field has {n_axes} node axes")
        return u.with_values(_postprocess_2d(u.values, *kappa))
    if layout is not None and layout.grid is not u.grid and layout.grid != u.grid:
        raise ValueError(f"layout: is for N={layout.grid.n_intervals}, "
                         f"the field has N={u.grid.n_intervals}")
    return u.with_values(_postprocess_grid(u.values, kappa[0], uxx, layout))


def _postprocess_2d(values: np.ndarray, kappa_x: float, kappa_y: float) -> np.ndarray:
    """The 2D postprocess of (Nx+1, Ny+1, m) values U: P_x (U - L) P_y^T,
    each edge its trace run through the 1D postprocess and the x = 0 and
    x = pi edges written last.  The lift L, zero on the faces, carries the
    change D made to each face across the interior: L is the first-order
    ``cosine_trend`` along x of D on x = 0, pi plus that along y of D on
    y = 0, pi.  As P keeps span{1, cos x}, this equals shifting by the
    filtered faces along x, then y, filtering, and adding both trends.  For
    m = 1 on the matrix path P_y^T is that right product: no transposed copy."""
    n_x, n_y = values.shape[0] - 1, values.shape[1] - 1
    g0, gpi = (_postprocess_grid(values[:, j], kappa_x) for j in (0, -1))
    h0, hpi = (_postprocess_grid(values[i], kappa_y) for i in (0, -1))
    d_x = np.stack([h0 - values[0], hpi - values[-1]])[:, 1:-1]  # change on x = 0, pi
    d_y = np.stack([g0 - values[:, 0], gpi - values[:, -1]])[:, 1:-1]  # on y = 0, pi
    lifted = values.copy()
    lifted[1:-1, 1:-1] -= (cosine_trend(d_x, n_x, 0, n_x)[1:-1]
                           + cosine_trend(d_y, n_y, 0, n_y)[1:-1].swapaxes(0, 1))
    out = _postprocess_grid(lifted.reshape(n_x + 1, -1), kappa_x).reshape(values.shape)
    if values.shape[2] == 1 and n_y <= MATRIX_MAX_N:
        out = (out[..., 0] @ _matrices(n_y, kappa_y, ((0, n_y),), False)[0].T)[..., np.newaxis]
    else:
        out = _postprocess_grid(out.swapaxes(0, 1).reshape(n_y + 1, -1), kappa_y)
        out = out.reshape(n_y + 1, n_x + 1, -1).swapaxes(0, 1)
    out[:, 0], out[:, -1], out[0], out[-1] = g0, gpi, h0, hpi
    return out


def _postprocess_grid(values: np.ndarray, kappa: float, uxx: Field | None = None,
                      layout: SubdomainLayout | None = None) -> np.ndarray:
    """The 1D ``postprocess_field`` of checked node-major values (N+1, cols),
    each strip's u_xx read at its two end nodes; the one place that picks the
    path: P @ u + Q @ u_xx(end nodes) on at most ``MATRIX_MAX_N`` intervals,
    else ``_postprocess`` strip by strip."""
    n = values.shape[0] - 1
    ranges = ((0, n),) if layout is None else layout.ranges
    if n <= MATRIX_MAX_N:
        P, Q = _matrices(n, kappa, ranges, uxx is not None)
        return P @ values if uxx is None else P @ values + Q @ uxx.values[np.ravel(ranges)]
    strips = [_postprocess(values[lo:hi + 1], kappa, n, lo,
                           None if uxx is None else uxx.values[[lo, hi]]) for lo, hi in ranges]
    if len(strips) == 1:  # the blend weights of a single strip are all 1
        return strips[0]
    out = np.zeros_like(values)
    for (lo, hi), w, strip in zip(ranges, blend_weights(ranges), strips):
        out[lo:hi + 1] += w[:, np.newaxis] * strip
    return out


@lru_cache(maxsize=2)
def _matrices(n: int, kappa: float, ranges: tuple[tuple[int, int], ...],
              third_order: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 1D postprocess on the checked strips ``ranges`` of an ``n``-interval
    grid as read-only (P, Q): P @ u + Q @ u_xx at each strip's two end nodes
    in strip order, Q zero unless ``third_order``.  P is (N+1, N+1) with unit
    rows 0 and N, Q is (N+1, 2 n_strips) with zero rows 0 and N, so both end
    values are kept exactly.  The memo behind ``postprocess_field``, keyed on
    plain values.  Assembled by running ``_postprocess`` on ``ASSEMBLY_BLOCK``
    unit columns at a time, strip by strip, the strips summed with
    ``blend_weights``.  Two entries are kept, the keys of a third-order run
    (its startup step shifts at first order) or of the two axes of a 2D
    grid; P is 0.53 MB at N = 256."""
    P = np.zeros((n + 1, n + 1))
    Q = np.zeros((n + 1, 2 * len(ranges)))
    for s, ((lo, hi), w) in enumerate(zip(ranges, blend_weights(ranges))):
        rows, w = slice(lo, hi + 1), w[:, np.newaxis]
        for c0 in range(0, hi - lo + 1, ASSEMBLY_BLOCK):
            b = min(ASSEMBLY_BLOCK, hi - lo + 1 - c0)
            unit = np.eye(hi - lo + 1, b, -c0)  # strip columns c0..c0+b-1 of the identity
            uxx = np.zeros((2, b)) if third_order else None
            P[rows, lo + c0:lo + c0 + b] += w * _postprocess(unit, kappa, n, lo, uxx)
        if third_order:
            zero = np.zeros((hi - lo + 1, 2))
            Q[rows, 2 * s:2 * s + 2] = w * _postprocess(zero, kappa, n, lo, np.eye(2))
    return read_only(P), read_only(Q)
