"""Overlapping strip decomposition of the 1D postprocess.

The finite-difference step itself stays global; only the shift/filter/unshift
postprocess is applied per subdomain (each strip is mapped onto (0, pi) and
treated with its own endpoint values).  Overlap regions are blended with a
linear partition-of-unity ramp.  The Gibbs oscillations excited at the
artificial interfaces are damped away from them, so a wider overlap buys a
larger stable time step; ``adapt_overlap`` widens it when an interface
energy monitor reports sustained growth.

The blend weights of a layout are memoized (read-only), and each strip reads
its cosine modes from rows lo..hi of the global ``cosine_basis`` table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Field, Grid1D, ReactionSystem, read_only
from .filtering import FilterSpec, apply_filter_values
from .shift import cosine_basis, estimate_uxx_nodes

MIN_INTERIOR_POINTS = 8


@dataclass(frozen=True)
class SubdomainLayout:
    grid: Grid1D
    ranges: tuple[tuple[int, int], ...]
    overlap: int

    @property
    def n_subdomains(self) -> int:
        return len(self.ranges)


def make_layout(grid: Grid1D, n_subdomains: int, overlap: int) -> SubdomainLayout:
    """Near-equal strip partition of 0..N with the given overlap (in intervals).

    Overlap must be even (each interior cut extends overlap/2 to both sides)
    and every subdomain must keep at least 8 interior points.
    """
    n = grid.n_intervals
    if n_subdomains < 1:
        raise ValueError("n_subdomains must be >= 1")
    if n_subdomains == 1:
        return SubdomainLayout(grid, ((0, n),), overlap)
    if overlap < 2 or overlap % 2 != 0:
        raise ValueError(f"overlap must be even and >= 2, got {overlap}")
    cuts = [round(i * n / n_subdomains) for i in range(n_subdomains + 1)]
    half = overlap // 2
    ranges = []
    for i in range(n_subdomains):
        lo = cuts[i] - half if i > 0 else 0
        hi = cuts[i + 1] + half if i < n_subdomains - 1 else n
        if lo < 0 or hi > n or hi - lo - 1 < MIN_INTERIOR_POINTS:
            raise ValueError(
                f"infeasible layout: N={n}, n_subdomains={n_subdomains}, overlap={overlap}"
            )
        ranges.append((lo, hi))
    for (lo0, hi0), (lo1, hi1) in zip(ranges, ranges[1:]):
        if hi0 - lo1 != overlap:
            raise ValueError("layout construction failed to honor the overlap")
    return SubdomainLayout(grid, tuple(ranges), overlap)


@lru_cache(maxsize=64)
def blend_weights(layout: SubdomainLayout) -> tuple[np.ndarray, ...]:
    """Per-subdomain node weights; linear ramps across overlaps, summing to 1.
    Memoized per layout; the arrays are read-only."""
    weights = []
    last = layout.n_subdomains - 1
    for i, (lo, hi) in enumerate(layout.ranges):
        w = np.ones(hi - lo + 1)
        if i > 0:
            ramp = np.arange(layout.overlap + 1) / layout.overlap
            w[: layout.overlap + 1] = ramp
        if i < last:
            ramp = np.arange(layout.overlap, -1, -1) / layout.overlap
            w[-(layout.overlap + 1):] = np.minimum(w[-(layout.overlap + 1):], ramp)
        weights.append(read_only(w))
    return tuple(weights)


def _local_shift(vals: np.ndarray, basis: np.ndarray, uxx: np.ndarray | None):
    """Shift a subdomain restriction with the global cosine basis cos((j-1)x).

    ``basis`` holds the strip's rows of the global table, one column per mode.
    Solving the endpoint conditions in global coordinates (rather than
    rescaling the strip onto (0, pi)) makes the shift absorb global cosine
    trends exactly; on the full domain it reduces to the standard formulas.
    Returns (shifted values, coefficients) with coefficients shaped (n_modes, m).
    """
    ends = basis[[0, -1]]
    if uxx is None:  # first-order: v = 0 at both ends
        rows = ends
        rhs = np.stack([vals[0], vals[-1]])
    else:  # third-order: v = 0 and v_xx = 0 at both ends
        modes = np.arange(basis.shape[1])
        rows = np.vstack([ends, -(modes**2)[np.newaxis, :] * ends])
        rhs = np.stack([vals[0], vals[-1], uxx[0], uxx[1]])
    alpha = np.linalg.solve(rows, rhs)
    return vals - basis @ alpha, alpha


def postprocess_dd(u: Field, layout: SubdomainLayout, spec: FilterSpec,
                   shift_order: int = 1,
                   history: tuple[Field, Field] | None = None,
                   reaction: ReactionSystem | None = None,
                   dt: float | None = None, t_next: float | None = None) -> Field:
    """Subdomain-local shift/filter/unshift, blended over overlaps.

    The local filter argument is sigma(kappa * k / N_local), so the cutoff sits
    at the same physical wavenumber as in the single-domain pipeline.  Global
    boundary values are preserved exactly.
    """
    out = np.zeros_like(u.values)
    weights = blend_weights(layout)
    n_modes = 2 if shift_order == 1 else 4
    table = cosine_basis(u.grid.n_intervals, n_modes)
    for (lo, hi), w in zip(layout.ranges, weights):
        vals = u.values[lo:hi + 1]
        basis = table[lo:hi + 1]
        if shift_order == 1:
            uxx = None
        elif shift_order == 3:
            if history is None or reaction is None or dt is None or t_next is None:
                raise ValueError("shift_order=3 needs history, reaction, dt and t_next")
            uxx = estimate_uxx_nodes(u, history[0], history[1], reaction, dt,
                                     t_next, np.array([lo, hi]))
        else:
            raise ValueError(f"shift_order must be 1 or 3, got {shift_order}")
        v, alpha = _local_shift(vals, basis, uxx)
        v[0] = 0.0
        v[-1] = 0.0
        filtered = apply_filter_values(v, spec)
        local = filtered + basis @ alpha
        out[lo:hi + 1] += w[:, np.newaxis] * local
    return u.with_values(out)


def interface_energy(u: Field, layout: SubdomainLayout) -> float:
    """Sum of squared values inside the overlap windows; the quantity whose
    growth the adaptive-overlap rule watches."""
    if layout.n_subdomains == 1:
        return 0.0
    total = 0.0
    for (lo0, hi0), (lo1, _) in zip(layout.ranges, layout.ranges[1:]):
        seg = u.values[lo1:hi0 + 1]
        total += float(np.sum(seg * seg))
    return total


def adapt_overlap(growth_history, layout: SubdomainLayout,
                  threshold: float = 1.05) -> SubdomainLayout:
    """Widen the overlap by 2 intervals after two consecutive growth factors
    above the threshold; capped at N/(2 N_d); never shrinks mid-run."""
    growth_history = list(growth_history)
    if len(growth_history) < 2 or not all(g > threshold for g in growth_history[-2:]):
        return layout
    cap = layout.grid.n_intervals // (2 * layout.n_subdomains)
    if layout.overlap + 2 > cap:
        warnings.warn(
            f"overlap {layout.overlap} already at cap {cap}; not increased",
            RuntimeWarning, stacklevel=2,
        )
        return layout
    return make_layout(layout.grid, layout.n_subdomains, layout.overlap + 2)
