"""Order-8 spectral filter and the 1D postprocessing pipeline.

The filter multiplies sine coefficient k of the (shifted, odd-extended)
field by sigma(kappa * k / N).  The stretching factor kappa moves the
effective cutoff down to the linearly stable band: with kappa >= kappa_c
every mode the filter retains satisfies the two-step scheme's per-mode
stability condition, so time steps far beyond dt = h^2/3 become usable.

``postprocess_field`` is the one 1D postprocess, on the whole grid or on
the overlapping strips of a ``ddm.SubdomainLayout``; every strip, and every
2D boundary trace (``filter_boundary_trace``), is shifted by
``shift.shift1d``, filtered and shifted back the same way.

The filter factors are memoized per (N, FilterSpec) by ``filter_factors``
and returned read-only, so a run evaluates sigma once per grid and kappa.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.fft import dst, idst

from .core import Field, ReactionSystem, read_only
from .ddm import SubdomainLayout, blend_weights
from .shift import cosine_basis, estimate_uxx_nodes, shift1d

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


@dataclass(frozen=True)
class FilterSpec:
    kappa: float
    sigma: Callable = dc_field(default=sigma8, repr=False)

    def with_kappa(self, kappa: float) -> "FilterSpec":
        return FilterSpec(kappa=kappa, sigma=self.sigma)


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
def filter_factors(n_intervals: int, spec: FilterSpec) -> np.ndarray:
    """Read-only factors sigma(kappa k / N), k = 1..N-1, memoized per (N, spec)."""
    k = np.arange(1, n_intervals)
    return read_only(np.asarray(spec.sigma(spec.kappa * k / n_intervals), dtype=float))


def apply_filter_values(values: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Filter (N+1, m) values with zero endpoints: scale sine coefficient k
    by sigma(kappa k / N)."""
    end = max(float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))))
    if end > RETAIN_TOL:
        raise ValueError(f"apply_filter_values needs shifted input (endpoints {end:.3e})")
    n = values.shape[0] - 1
    factors = filter_factors(n, spec)
    coeffs = sine_coefficients(values) * factors.reshape((-1,) + (1,) * (values.ndim - 1))
    return sine_reconstruct(coeffs)


def _postprocess_strip(values: np.ndarray, basis: np.ndarray, uxx: np.ndarray | None,
                       spec: FilterSpec, monitor: KappaMonitor | None = None) -> np.ndarray:
    """Shift, filter and inverse-shift (nodes, m) values; the two end values
    are kept exactly.  A monitor adapts kappa from the same sine
    coefficients the filter then scales."""
    v, alpha = shift1d(values, basis, uxx)
    n = v.shape[0] - 1
    coeffs = sine_coefficients(v)
    if monitor is not None:
        spec = spec.with_kappa(monitor.observe(coeffs, n, spec.sigma))
    out = sine_reconstruct(coeffs * filter_factors(n, spec)[:, np.newaxis]) + basis @ alpha
    out[[0, -1]] = values[[0, -1]]
    return out


def filter_boundary_trace(samples: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Filter a 1D boundary trace with the first-order 1D postprocess.  Endpoint
    values of the trace are reproduced exactly."""
    samples = np.asarray(samples, dtype=float)
    squeeze = samples.ndim == 1
    vals = samples[:, np.newaxis] if squeeze else samples
    out = _postprocess_strip(vals, cosine_basis(vals.shape[0] - 1, 2), None, spec)
    return out[:, 0] if squeeze else out


class KappaMonitor:
    """Optional per-step kappa adaptation.

    Watches the energy in the top quarter of the retained sine modes; if it
    grows by more than ``growth_threshold`` two steps in a row, kappa is
    increased by ``bump_factor`` (thresholds are ours; the method only says
    the optimum can be found by monitoring high-frequency growth).
    """

    def __init__(self, kappa: float, growth_threshold: float = 1.05,
                 bump_factor: float = 1.10, consecutive: int = 2):
        self.kappa = float(kappa)
        self.growth_threshold = growth_threshold
        self.bump_factor = bump_factor
        self.consecutive = consecutive
        self._prev_energy: float | None = None
        self._streak = 0

    def observe(self, coeffs: np.ndarray, n_intervals: int,
                sigma: Callable = sigma8) -> float:
        factors = filter_factors(n_intervals, FilterSpec(self.kappa, sigma=sigma))
        retained = np.nonzero(factors > RETAIN_TOL)[0]
        if retained.size:
            k_max = retained[-1] + 1
            lo = max(1, int(np.ceil(0.75 * k_max)))
            band = coeffs[lo - 1:k_max]
            energy = float(np.sum(band * band))
        else:
            energy = 0.0
        if self._prev_energy is not None and self._prev_energy > 0.0 \
                and energy > self.growth_threshold * self._prev_energy:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.consecutive:
            self.kappa *= self.bump_factor
            self._streak = 0
        self._prev_energy = energy
        return self.kappa


def postprocess_field(u: Field, spec: FilterSpec, shift_order: int = 1,
                      history: tuple[Field, Field] | None = None,
                      reaction: ReactionSystem | None = None,
                      dt: float | None = None, t_next: float | None = None,
                      monitor: KappaMonitor | None = None,
                      layout: SubdomainLayout | None = None) -> Field:
    """Shift, filter, inverse shift: on the whole grid, or per strip of ``layout``.

    ``layout`` None is one strip covering the grid.  With several strips each
    is shifted with its own end values and filtered with sigma(kappa k /
    N_local), so the cutoff sits at the same physical wavenumber as on the
    whole grid; the strips are then blended over the overlaps.  Global
    boundary values are preserved exactly.

    ``shift_order`` 3 needs the two history levels plus the reaction and time
    step so the endpoint second derivatives can be estimated from the scheme.
    A ``monitor`` adapts kappa from the sine coefficients of one strip; it
    cannot watch several.
    """
    if shift_order == 3:
        if history is None or reaction is None or dt is None or t_next is None:
            raise ValueError("shift_order=3 needs history, reaction, dt and t_next")
    elif shift_order != 1:
        raise ValueError(f"shift_order must be 1 or 3, got {shift_order}")
    n = u.grid.n_intervals
    ranges = ((0, n),) if layout is None else layout.ranges
    if monitor is not None and len(ranges) > 1:
        raise ValueError("a KappaMonitor watches one strip, not a layout of several")
    table = cosine_basis(n, 2 if shift_order == 1 else 4)

    def strip(lo: int, hi: int) -> np.ndarray:
        uxx = None if shift_order == 1 else estimate_uxx_nodes(
            u, history[0], history[1], reaction, dt, t_next, np.array([lo, hi]))
        return _postprocess_strip(u.values[lo:hi + 1], table[lo:hi + 1], uxx, spec, monitor)

    if len(ranges) == 1:  # the blend weights of a single strip are all 1
        return u.with_values(strip(0, n))
    out = np.zeros_like(u.values)
    for (lo, hi), w in zip(ranges, blend_weights(layout)):
        out[lo:hi + 1] += w[:, np.newaxis] * strip(lo, hi)
    return u.with_values(out)
