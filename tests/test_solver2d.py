"""2D Dirichlet solver: five-point stencil, time step, tensor-filter postprocess."""

import numpy as np
import pytest

from rdfilter.core import (
    Field,
    SchemeState,
    laplacian_symbol,
    make_grid_2d,
    zero_reaction,
)
from rdfilter.filtering import FilterSpec
from rdfilter.solver2d import (
    BoundaryData2D,
    apply_tensor_filter_values,
    kappa_critical_2d,
    postprocess2d,
)
from rdfilter.stepper import StepConfig, apply_laplacian, recurrence_roots, step

GRID = make_grid_2d(16, 16)
X, Y = np.meshgrid(GRID.nodes_x, GRID.nodes_y, indexing="ij")

HOMOGENEOUS = BoundaryData2D(
    g0=lambda x, t: np.zeros_like(x), gpi=lambda x, t: np.zeros_like(x),
    h0=lambda y, t: np.zeros_like(y), hpi=lambda y, t: np.zeros_like(y),
)


def test_laplacian_annihilates_constants_and_linears():
    c = apply_laplacian(Field(GRID, np.full((17, 17), 2.0)))
    assert np.all(c.values[1:-1, 1:-1] == 0.0)
    lin = apply_laplacian(Field(GRID, X + Y))
    assert np.max(np.abs(lin.values[1:-1, 1:-1])) < 1e-11


def test_laplacian_tensor_eigenfunction():
    for k, l in [(1, 1), (2, 3), (5, 2)]:
        u = Field(GRID, np.sin(k * X) * np.sin(l * Y))
        out = apply_laplacian(u).values[1:-1, 1:-1, 0]
        lam = laplacian_symbol(GRID.hx, k) + laplacian_symbol(GRID.hy, l)
        want = lam * (np.sin(k * X) * np.sin(l * Y))[1:-1, 1:-1]
        assert np.max(np.abs(out - want)) < 1e-8 * abs(lam)


def test_step2d_zero_fixed_point():
    cfg = StepConfig(dt=1e-4)
    z = Field.zeros(GRID)
    state = SchemeState(z, z, 0.0, cfg.dt)
    out = step(state, zero_reaction(), cfg, HOMOGENEOUS.sample(GRID, cfg.dt))
    assert np.all(out.values == 0.0)


def test_step2d_single_tensor_mode_recurrence():
    k, l = 3, 2
    dt = 0.1 * GRID.hx**2
    cfg = StepConfig(dt=dt)
    lam = laplacian_symbol(GRID.hx, k) + laplacian_symbol(GRID.hy, l)
    mode = np.sin(k * X) * np.sin(l * Y)
    u = Field(GRID, mode)
    state = SchemeState(u, u, 0.0, dt)
    out = step(state, zero_reaction(), cfg, HOMOGENEOUS.sample(GRID, cfg.dt))
    want = (4.0 - 1.0 + 2.0 * dt * lam * (2.0 - 1.0)) / 3.0
    assert np.max(np.abs(out.values[:, :, 0] - want * mode)) < 1e-11


def test_startup2d_forward_euler_symbol():
    k, l = 2, 2
    dt = 0.1 * GRID.hx**2
    cfg = StepConfig(dt=dt)
    lam = laplacian_symbol(GRID.hx, k) + laplacian_symbol(GRID.hy, l)
    mode = np.sin(k * X) * np.sin(l * Y)
    u0 = Field(GRID, mode)
    out = step(SchemeState(u0, u0, 0.0, dt), zero_reaction(), cfg,
               HOMOGENEOUS.sample(GRID, dt), startup=True)
    assert np.max(np.abs(out.values[:, :, 0] - (1.0 + dt * lam) * mode)) < 1e-11


def test_laplacian_uses_each_axis_spacing():
    # Nx != Ny: the second difference along each axis divides by its own h^2
    grid = make_grid_2d(24, 10)
    Xr, Yr = np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")
    for k, l in [(1, 1), (5, 3)]:
        mode = np.sin(k * Xr) * np.sin(l * Yr)
        out = apply_laplacian(Field(grid, mode)).values[1:-1, 1:-1, 0]
        lam = laplacian_symbol(grid.hx, k) + laplacian_symbol(grid.hy, l)
        assert np.max(np.abs(out - lam * mode[1:-1, 1:-1])) < 1e-9 * abs(lam)


def test_step_writes_x_edges_over_the_corners():
    # corner data within CORNER_TOL but not equal: the x-edges (h0, hpi),
    # written after the y-edges, own the four corners
    eps = 1e-12
    bc = BoundaryData2D(
        g0=lambda x, t: np.full_like(x, eps), gpi=lambda x, t: np.full_like(x, eps),
        h0=lambda y, t: np.zeros_like(y), hpi=lambda y, t: np.zeros_like(y),
    )
    z = Field.zeros(GRID)
    cfg = StepConfig(dt=1e-4)
    for startup in (False, True):
        out = step(SchemeState(z, z, 0.0, cfg.dt), zero_reaction(), cfg,
                   bc.sample(GRID, cfg.dt), startup=startup).values[..., 0]
        assert np.all(out[[0, 0, -1, -1], [0, -1, 0, -1]] == 0.0)
        assert np.all(out[1:-1, [0, -1]] == eps)


def test_unfiltered_2d_stability_limit():
    # with hx = hy = h the worst tensor mode has |lam| <= 8/h^2, so the
    # unfiltered scheme needs dt < h^2/6
    h = GRID.hx
    n = GRID.n_intervals_x

    def all_stable(dt):
        for k in range(1, n):
            for l in range(1, n):
                lam = laplacian_symbol(h, k) + laplacian_symbol(h, l)
                if np.max(np.abs(recurrence_roots(dt, lam))) > 1.0 + 1e-12:
                    return False
        return True

    assert all_stable(0.95 * h**2 / 6.0)
    assert not all_stable(1.05 * h**2 / 6.0)


def test_kappa_critical_2d_values():
    h = np.pi / 32
    assert kappa_critical_2d(h**2 / 6.0, h) == 1.0
    assert kappa_critical_2d(h**2 / 10.0, h) == 1.0
    assert kappa_critical_2d(h**2 / 3.0, h) > 1.0
    with pytest.raises(ValueError):
        kappa_critical_2d(0.0, h)


def test_retained_tensor_modes_stable_at_2d_critical_kappa():
    h = GRID.hx
    n = GRID.n_intervals_x
    for ratio in (2.0, 4.0):
        dt = ratio * h**2 / 6.0
        kappa = kappa_critical_2d(dt, h)
        sig = FilterSpec(kappa=kappa)
        for k in range(1, n):
            for l in range(1, n):
                keep = sig.sigma(kappa * k / n) * sig.sigma(kappa * l / n)
                if keep > 1e-12:
                    lam = laplacian_symbol(h, k) + laplacian_symbol(h, l)
                    roots = recurrence_roots(dt, lam)
                    assert np.max(np.abs(roots)) <= 1.0 + 1e-12, (ratio, k, l)


def test_tensor_filter_separability():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(17, 17, 1))
    vals[0] = vals[-1] = 0.0
    vals[:, 0] = vals[:, -1] = 0.0
    spec_x, spec_y = FilterSpec(kappa=2.0), FilterSpec(kappa=1.5)
    joint = apply_tensor_filter_values(vals, spec_x, spec_y)
    only_x = apply_tensor_filter_values(vals, spec_x, FilterSpec(kappa=1e-12))
    both = apply_tensor_filter_values(only_x, FilterSpec(kappa=1e-12), spec_y)
    assert np.max(np.abs(joint - both)) < 1e-12


def test_tensor_filter_kills_mode_beyond_cutoff():
    u = np.sin(8 * X) * np.sin(1 * Y)
    out = apply_tensor_filter_values(u[..., np.newaxis], FilterSpec(2.0), FilterSpec(2.0))
    assert np.max(np.abs(out)) < 1e-12


def test_tensor_filter_rejects_inhomogeneous_edges():
    with pytest.raises(ValueError):
        apply_tensor_filter_values(np.cos(X)[..., np.newaxis],
                                   FilterSpec(2.0), FilterSpec(2.0))


def test_postprocess2d_cosines_unchanged():
    u = Field(GRID, np.cos(X) + np.cos(Y))
    out = postprocess2d(u, FilterSpec(kappa=3.0), FilterSpec(kappa=3.0))
    assert np.max(np.abs(out.values - u.values)) < 1e-10


def test_postprocess2d_identity_at_tiny_kappa():
    u = Field(GRID, np.cos(X) * np.cos(2 * Y) + np.sin(X) * np.sin(Y))
    out = postprocess2d(u, FilterSpec(kappa=1e-9), FilterSpec(kappa=1e-9))
    assert np.max(np.abs(out.values - u.values)) < 1e-8


def test_postprocess2d_kills_high_tensor_mode():
    u = Field(GRID, np.sin(8 * X) * np.sin(8 * Y))
    out = postprocess2d(u, FilterSpec(kappa=2.0), FilterSpec(kappa=2.0))
    assert np.max(np.abs(out.values)) < 1e-10


def test_postprocess2d_preserves_filtered_boundary_exactly():
    from rdfilter.filtering import filter_boundary_trace

    u = Field(GRID, np.cos(X) * np.cos(Y) + 0.1 * np.sin(3 * X) * np.sin(2 * Y))
    spec = FilterSpec(kappa=2.5)
    out = postprocess2d(u, spec, spec).values
    want_g0 = filter_boundary_trace(u.values[:, 0], spec)
    assert np.array_equal(out[:, 0], want_g0)
    want_h0 = filter_boundary_trace(u.values[0, :], spec)
    assert np.array_equal(out[0, :], want_h0)


def test_boundary_sample_rejects_corner_mismatch():
    bad = BoundaryData2D(
        g0=lambda x, t: np.ones_like(x), gpi=lambda x, t: np.zeros_like(x),
        h0=lambda y, t: np.zeros_like(y), hpi=lambda y, t: np.zeros_like(y),
    )
    with pytest.raises(ValueError):
        bad.sample(GRID, 0.0)
