"""Quick invariant suite behind ``rdfilter selftest``; a cheap subset of the
full pytest suite for sanity-checking an installation."""

from __future__ import annotations

import numpy as np

from .core import Field, make_grid_1d, laplacian_symbol
from .ddm import blend_weights, make_layout
from .filtering import kappa_critical, postprocess_field, sigma8
from .shift import cosine_trend
from .stepper import recurrence_roots


def _filter_matches_dense_sum() -> bool:
    grid = make_grid_1d(12)
    rng = np.random.default_rng(7)
    v = np.sin(np.outer(grid.nodes, [1, 2, 3, 5])) @ rng.normal(size=4)
    v[0] = v[-1] = 0.0
    kappa = 1.7
    got = postprocess_field(Field(grid, v), kappa).values[:, 0]  # zero ends: no shift
    n = grid.n_intervals
    x2 = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
    w = np.concatenate([v, -v[-2:0:-1]])
    want = np.zeros(n + 1)
    for k in range(1, n):
        ck = np.sum(w * np.exp(-1j * k * x2)) / (2 * n)
        mode = 2.0 * np.real(ck * np.exp(1j * k * grid.nodes))
        want += sigma8(kappa * k / n) * mode
    return bool(np.max(np.abs(got - want)) < 1.0e-12)


def _checks():
    grid = make_grid_1d(64)
    yield "sigma8 endpoint values", (
        abs(sigma8(0.0) - 1.0) < 1e-14 and abs(sigma8(1.0)) < 1e-14
        and abs(sigma8(0.5) - 0.5) < 1e-14)
    yield "kappa_c at the stability limit", (
        abs(kappa_critical(grid.h**2 / 3.0, grid.h) - 1.0) < 1e-12)
    yield "laplacian symbol bounds", all(
        -4.0 / grid.h**2 - 1e-9 <= laplacian_symbol(grid, k) <= 0.0
        for k in range(grid.n_intervals + 1))
    n = grid.n_intervals
    u = (grid.nodes / np.pi) ** 4 + np.cos(2 * grid.nodes)
    v = u - cosine_trend(u[[0, -1]], n, 0, n)
    yield "first-order shift zero endpoints", max(abs(v[0]), abs(v[-1])) < 1e-12
    u = 0.5 - 1.5 * np.cos(grid.nodes)
    yield "a cosine trend is its own trend", (
        np.max(np.abs(cosine_trend(u[[0, -1]], n, 0, n) - u)) < 1e-12)
    yield "filter equals dense Fourier sum", _filter_matches_dense_sum()
    dt = 4.0 * grid.h**2 / 3.0  # ratio 4
    kc = kappa_critical(dt, grid.h)
    retained_ok = True
    for k in range(1, grid.n_intervals):
        if sigma8(kc * k / grid.n_intervals) > 1e-12:
            roots = recurrence_roots(dt, laplacian_symbol(grid, k))
            retained_ok &= bool(np.max(np.abs(roots)) <= 1.0 + 1e-12)
    yield "retained modes linearly stable at kappa_c", retained_ok
    layout = make_layout(grid, 4, 8)
    weights = blend_weights(layout.ranges)
    total = np.zeros(grid.n_intervals + 1)
    for (lo, hi), wgt in zip(layout.ranges, weights):
        total[lo:hi + 1] += wgt
    yield "blend partition of unity", bool(np.max(np.abs(total - 1.0)) < 1e-14)


def run_selftest() -> int:
    failures = 0
    for name, ok in _checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 2
    print("all selftest checks passed")
    return 0
