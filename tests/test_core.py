"""Grids, fields, reaction systems and the discrete Laplacian symbol."""

from dataclasses import replace

import numpy as np
import pytest

from rdfilter.core import (
    Field,
    Grid1D,
    Grid2D,
    ReactionSystem,
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    source_reaction,
    zero_reaction,
)
from rdfilter.bench import PredatorPreyCase, manufactured_heat_case


def test_grid_nodes_n4():
    grid = make_grid_1d(4)
    assert np.allclose(grid.nodes, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi])


def test_grid_spacing_n64():
    grid = make_grid_1d(64)
    assert grid.h == np.pi / 64
    assert abs(grid.h * grid.n_intervals - np.pi) < 1e-15


def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        make_grid_1d(3)


@pytest.mark.parametrize("make, name", [
    (make_grid_1d, "n_intervals"), (make_grid_2d, "n_intervals_x"),
    (lambda n: make_grid_2d(8, n), "n_intervals_y"),
])
def test_grid_rejects_an_interval_count_that_is_not_whole(make, name):
    # int() used to truncate: 64.7 built N = 64, and make_grid_2d(32.9) a 33 x 33 grid;
    # None raised a bare TypeError and '64.0' int()'s own "invalid literal"
    # (make_grid_2d(8, None) is the square grid); 10**400 raised a bare
    # OverflowError, and True was read as 1
    nones = () if name == "n_intervals_y" else (None,)
    for bad in (64.7, 32.9, float("nan"), float("inf"), "64", "64.0", 10**400, True, False,
                np.bool_(True)) + nones:
        with pytest.raises(ValueError, match=f"^{name}: must be a whole number"):
            make(bad)
    with pytest.raises(ValueError, match=f"^{name}: .*too large for a float"):
        make(10**400)
    for good in (64.0, np.int64(64), 64):
        assert make(good).node_shape[-1] == 65


@pytest.mark.parametrize("make, name", [
    (Grid1D, "n_intervals"), (lambda n: Grid2D(n, 8), "n_intervals_x"),
    (lambda n: Grid2D(8, n), "n_intervals_y"),
])
def test_grid_classes_reject_an_interval_count_that_is_not_whole(make, name):
    # Grid1D(64.7) used to build, with h = pi / 64.7, and fail only at .nodes;
    # Grid1D(None) raised a bare TypeError and Grid1D('64.0') int()'s own message,
    # Grid1D(10**400) a bare OverflowError
    for bad in (64.7, float("nan"), float("inf"), None, "64", "64.0", 10**400, True, False,
                np.bool_(True)):
        with pytest.raises(ValueError, match=f"^{name}: must be a whole number"):
            make(bad)
    with pytest.raises(ValueError, match=f"^{name}: .*too large for a float"):
        make(10**400)
    for good in (64.0, np.int64(64)):
        grid = make(good)
        assert grid == make(64) and type(getattr(grid, name)) is int
        assert grid.node_shape[-1 if name == "n_intervals_y" else 0] == 65


def test_grid_2d_per_direction():
    grid = make_grid_2d(8, 16)
    assert grid.hx == np.pi / 8 and grid.hy == np.pi / 16
    assert len(grid.nodes_x) == 9 and len(grid.nodes_y) == 17
    with pytest.raises(ValueError):
        make_grid_2d(8, 3)


def test_laplacian_symbol_values():
    grid = make_grid_1d(64)
    assert laplacian_symbol(grid.h, 0) == 0.0
    n = grid.n_intervals
    assert abs(laplacian_symbol(grid.h, n) - (-4.0 / grid.h**2)) < 1e-9
    assert abs(laplacian_symbol(grid.h, 32) - (-2.0 / grid.h**2)) < 1e-9


def test_laplacian_symbol_monotone_and_bounded():
    grid = make_grid_1d(48)
    lam = np.array([laplacian_symbol(grid.h, k) for k in range(grid.n_intervals + 1)])
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.all(lam >= -4.0 / grid.h**2 - 1e-9)
    assert np.all(lam <= 0.0)


def test_field_node_major_and_blowup():
    grid = make_grid_1d(8)
    u = Field.zeros(grid, m=3)
    assert u.values.shape == (9, 3) and u.m == 3
    assert not u.blown_up()
    bad = u.with_values(u.values + np.nan)
    assert bad.blown_up()
    big = u.with_values(u.values + 1.0e9)
    assert big.blown_up()


@pytest.mark.parametrize("bad, blown", [
    (np.nan, True), (np.inf, True), (-np.inf, True),
    (-1.0e8 * (1.0 + 1e-15), True), (1.0e8, False), (-1.0e8, False),
])
def test_blowup_nan_inf_and_threshold(bad, blown):
    grid1, grid2 = make_grid_1d(8), make_grid_2d(8, 8)
    for u in (Field.zeros(grid1, m=2), Field.zeros(grid2, m=2)):
        vals = u.values.copy()
        vals.reshape(-1, 2)[5, 1] = bad
        assert u.with_values(vals).blown_up() is blown


def test_field_requires_matching_shape():
    grid = make_grid_1d(8)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(5))


def test_zero_and_source_reaction():
    grid = make_grid_1d(8)
    x = grid.nodes
    z = zero_reaction()
    assert np.all(z.eval(x, 0.3, np.ones((9, 1))) == 0.0)
    src = source_reaction(lambda x, t: np.sin(x) * np.cos(t))
    out = src.eval(x, 0.5, np.zeros((9, 1)))
    assert np.allclose(out[:, 0], np.sin(x) * np.cos(0.5))
    # the source does not depend on u, so its Jacobian is zero
    assert np.all(src.jacobian(x, 0.5, np.ones((9, 1))) == 0.0)


def check_jacobian(reaction: ReactionSystem, x, t: float, u: np.ndarray,
                   eps: float = 1.0e-6, tol: float = 1.0e-4) -> float:
    """Finite-difference oracle for ``reaction.jacobian``; returns the worst
    mismatch and raises ValueError above ``tol``.  A reaction flagged
    ``u_independent`` must not move under the perturbation."""
    u = np.asarray(u, dtype=float)
    jac = reaction.jacobian(x, t, u)
    worst = 0.0
    f0 = reaction.eval(x, t, u)
    for j in range(reaction.m):
        du = np.zeros_like(u)
        du[..., j] = eps
        fd = (reaction.eval(x, t, u + du) - f0) / eps
        if reaction.u_independent and np.any(fd):
            raise ValueError(f"reaction flagged u_independent changes with u[..., {j}]")
        worst = max(worst, float(np.max(np.abs(fd - jac[..., :, j]))))
    if worst > tol:
        raise ValueError(f"jacobian inconsistent with eval: mismatch {worst:.3e}")
    return worst


def test_jacobian_consistency_bundled_systems():
    rng = np.random.default_rng(11)
    heat = manufactured_heat_case()
    for reaction in (
        heat.reaction(),
        PredatorPreyCase().reaction(),
        PredatorPreyCase(sign_variant="printed").reaction(),
    ):
        x = np.linspace(0.3, 2.8, 6)
        u = rng.uniform(0.2, 1.5, size=(6, reaction.m))
        assert check_jacobian(reaction, x, 0.7, u) < 1e-4


def test_jacobian_check_catches_wrong_jacobian():
    bad = ReactionSystem(
        m=1,
        eval=lambda x, t, u: u**2,
        jacobian=lambda x, t, u: np.ones(u.shape[:-1] + (1, 1)),
    )
    u = np.full((4, 1), 3.0)
    with pytest.raises(ValueError):
        check_jacobian(bad, np.zeros(4), 0.0, u)


def test_jacobian_check_catches_a_reaction_wrongly_flagged_u_independent():
    # f = u^2 with its true Jacobian passes the finite-difference check; the
    # flag claims f does not read u, which the perturbation disproves.
    reaction = ReactionSystem(
        m=1,
        eval=lambda x, t, u: u**2,
        jacobian=lambda x, t, u: (2.0 * u)[..., np.newaxis],
        u_independent=True,
    )
    u = np.full((4, 1), 3.0)
    assert check_jacobian(replace(reaction, u_independent=False), np.zeros(4), 0.0, u) < 1e-4
    with pytest.raises(ValueError, match="u_independent"):
        check_jacobian(reaction, np.zeros(4), 0.0, u)
    for flagged in (zero_reaction(2), source_reaction(lambda x, t: np.sin(x))):
        assert flagged.u_independent
        assert check_jacobian(flagged, np.linspace(0.3, 2.8, 6), 0.7,
                              np.ones((6, flagged.m))) == 0.0
