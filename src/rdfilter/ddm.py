"""Overlapping strip layouts for the 1D postprocess, and their blend weights.

The finite-difference step itself stays global; only the shift/filter/unshift
postprocess is applied per subdomain (each strip is treated with its own
endpoint values).  ``filtering.postprocess_field`` runs it: one strip is the
whole grid, several are blended over the overlaps with a linear
partition-of-unity ramp.  The Gibbs oscillations excited at the artificial
interfaces are damped away from them, so a wider overlap buys a larger
stable time step.

A layout is built from its counts alone (grid, strips, overlap): its ranges
are computed, so they cannot disagree with its overlap.  The blend weights
of a layout's ranges are memoized (read-only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import Grid1D, read_only, require_whole

MIN_INTERIOR_POINTS = 8


@dataclass(frozen=True)
class SubdomainLayout:
    """``n_subdomains`` near-equal strips (lo, hi) of the node indices of
    ``grid``; the ``ranges`` are computed, never given.  Each interior cut
    round(i N / n_subdomains) extends overlap/2 to both sides, so neighbours
    share exactly ``overlap`` intervals, which must be even and >= 2 (one
    strip is the whole grid, with any ``overlap`` >= 0).  Both counts must be
    whole numbers, kept as int.  Strips with fewer than ``MIN_INTERIOR_POINTS``
    interior points raise as infeasible naming ``n_subdomains``, and strips
    that fall out of order or overlap a non-neighbour naming ``overlap``:
    their blend weights would not sum to 1."""

    grid: Grid1D
    n_subdomains: int
    overlap: int
    ranges: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        n = self.grid.n_intervals
        n_subdomains = require_whole("n_subdomains", self.n_subdomains, 1)
        overlap = require_whole("overlap", self.overlap)
        if overlap < 0 or n_subdomains > 1 and (overlap < 2 or overlap % 2 != 0):
            raise ValueError(f"overlap: must be even and >= 2 between strips, >= 0 on one, "
                             f"got {overlap}")
        cuts = [round(i * n / n_subdomains) for i in range(1, n_subdomains)]
        half = overlap // 2
        ranges = tuple(zip([0] + [c - half for c in cuts], [c + half for c in cuts] + [n]))
        pairs = list(zip(ranges, ranges[1:]))
        for key, broken, rule in [  # too many strips for N, then too wide an overlap
                ("n_subdomains",
                 pairs and any(hi - lo - 1 < MIN_INTERIOR_POINTS for lo, hi in ranges),
                 f"each strip needs {MIN_INTERIOR_POINTS} interior points"),
                ("overlap", any(lo1 <= lo0 or hi1 <= hi0 for (lo0, hi0), (lo1, hi1) in pairs),
                 "strips out of order"),
                ("overlap", any(hi0 > lo2 for (_, hi0), (lo2, _) in zip(ranges, ranges[2:])),
                 "a strip may overlap only its neighbours")]:
            if broken:
                raise ValueError(f"{key}: infeasible layout: N={n}, n_subdomains={n_subdomains}, "
                                 f"overlap={overlap} ({rule}, ranges {ranges})")
        object.__setattr__(self, "n_subdomains", n_subdomains)
        object.__setattr__(self, "overlap", overlap)
        object.__setattr__(self, "ranges", ranges)


# The name the CLI, the README and perfbench build layouts by.
make_layout = SubdomainLayout


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
