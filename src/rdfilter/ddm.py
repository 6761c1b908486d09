"""Overlapping strip layouts for the 1D postprocess, and their blend weights.

The finite-difference step itself stays global; only the shift/filter/unshift
postprocess is applied per subdomain (each strip is treated with its own
endpoint values).  ``filtering.postprocess_field`` runs it: one strip is the
whole grid, several are blended over the overlaps with a linear
partition-of-unity ramp.  The Gibbs oscillations excited at the artificial
interfaces are damped away from them, so a wider overlap buys a larger
stable time step.

The blend weights of a layout are memoized (read-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Grid1D, read_only

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

    Overlap must be even (each interior cut extends overlap/2 to both sides),
    every subdomain must keep at least 8 interior points, and only
    neighbouring strips may share nodes (else the blend weights of a node
    would not sum to 1).
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
        ranges.append((lo, hi))
    if (any(lo < 0 or hi > n or hi - lo - 1 < MIN_INTERIOR_POINTS for lo, hi in ranges)
            or any(hi0 > lo2 for (_, hi0), (lo2, _) in zip(ranges, ranges[2:]))):
        raise ValueError(
            f"infeasible layout: N={n}, n_subdomains={n_subdomains}, overlap={overlap}"
        )
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

