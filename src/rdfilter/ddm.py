"""Overlapping strip layouts for the 1D postprocess, and their blend weights.

The finite-difference step itself stays global; only the shift/filter/unshift
postprocess is applied per subdomain (each strip is treated with its own
endpoint values).  ``filtering.postprocess_field`` runs it: one strip is the
whole grid, several are blended over the overlaps with a linear
partition-of-unity ramp.  The Gibbs oscillations excited at the artificial
interfaces are damped away from them, so a wider overlap buys a larger
stable time step.

The blend weights of a layout's ranges are memoized (read-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Grid1D, read_only, require_whole

MIN_INTERIOR_POINTS = 8


@dataclass(frozen=True)
class SubdomainLayout:
    """Strips (lo, hi) of node indices of ``grid``, checked so that their
    blend weights sum to 1: whole-number ranges (kept as int) that cover
    0..N in order; between several strips, neighbours sharing exactly
    ``overlap`` intervals (at least 1) and overlapping no other strip, each
    with ``MIN_INTERIOR_POINTS`` interior points.  One strip is the whole
    grid, and any whole ``overlap`` >= 0 is kept with it."""

    grid: Grid1D
    ranges: tuple[tuple[int, int], ...]
    overlap: int

    def __post_init__(self):
        ranges = tuple((require_whole("ranges", lo), require_whole("ranges", hi))
                       for lo, hi in self.ranges)
        overlap = require_whole("overlap", self.overlap)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "overlap", overlap)
        n, pairs = self.grid.n_intervals, list(zip(ranges, ranges[1:]))
        if overlap < (1 if pairs else 0):
            raise ValueError(f"overlap: must be >= 1 between strips, >= 0 on one, got {overlap}")
        if (not ranges or ranges[0][0] != 0 or ranges[-1][1] != n
                or any(lo1 <= lo0 or hi1 <= hi0 for (lo0, hi0), (lo1, hi1) in pairs)):
            raise ValueError(f"ranges: must cover 0..{n} in order, got {ranges}")
        if any(hi0 - lo1 != overlap for (_, hi0), (lo1, _) in pairs):
            raise ValueError(f"ranges: neighbours must share {overlap} intervals, got {ranges}")
        if any(hi0 > lo2 for (_, hi0), (lo2, _) in zip(ranges, ranges[2:])):
            raise ValueError(f"ranges: a strip may overlap only its neighbours, got {ranges}")
        if pairs and any(hi - lo - 1 < MIN_INTERIOR_POINTS for lo, hi in ranges):
            raise ValueError(f"ranges: each strip needs {MIN_INTERIOR_POINTS} interior points, "
                             f"got {ranges}")

    @property
    def n_subdomains(self) -> int:
        return len(self.ranges)


def make_layout(grid: Grid1D, n_subdomains: int, overlap: int) -> SubdomainLayout:
    """Near-equal strip partition of 0..N with the given overlap (in intervals).

    Between several strips the overlap must be even: each interior cut
    extends overlap/2 to both sides.  A partition ``SubdomainLayout`` refuses
    raises as infeasible.  Both counts must be whole numbers, kept as int.
    """
    n = grid.n_intervals
    n_subdomains = require_whole("n_subdomains", n_subdomains)
    overlap = require_whole("overlap", overlap)
    if n_subdomains < 1:
        raise ValueError("n_subdomains must be >= 1")
    if n_subdomains > 1 and (overlap < 2 or overlap % 2 != 0):
        raise ValueError(f"overlap must be even and >= 2, got {overlap}")
    cuts = [round(i * n / n_subdomains) for i in range(1, n_subdomains)]
    half = overlap // 2
    ranges = tuple(zip([0] + [c - half for c in cuts], [c + half for c in cuts] + [n]))
    try:
        return SubdomainLayout(grid, ranges, overlap)
    except ValueError as exc:
        raise ValueError(f"infeasible layout: N={n}, n_subdomains={n_subdomains}, "
                         f"overlap={overlap} ({exc})") from None


@lru_cache(maxsize=64)
def blend_weights(ranges: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """Per-strip node weights of a ``SubdomainLayout``'s checked ``ranges``: linear
    ramps across the overlaps, summing to 1.  Memoized per ranges; read-only."""
    weights = []
    last = len(ranges) - 1
    overlap = ranges[0][1] - ranges[1][0] if last else 0
    for i, (lo, hi) in enumerate(ranges):
        w = np.ones(hi - lo + 1)
        if i > 0:
            w[: overlap + 1] = np.arange(overlap + 1) / overlap
        if i < last:
            w[-(overlap + 1):] = np.minimum(w[-(overlap + 1):],
                                            np.arange(overlap, -1, -1) / overlap)
        weights.append(read_only(w))
    return tuple(weights)
