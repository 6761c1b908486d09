"""Low-frequency shifts, odd extension and their inverses."""

import numpy as np
import pytest

from rdfilter.core import Field, make_grid_1d, zero_reaction
from rdfilter.shift import (
    cosine_basis,
    estimate_uxx_nodes,
    odd_extend_values,
    shift1d,
)

GRID = make_grid_1d(64)
BASIS1 = cosine_basis(64, 2)
BASIS3 = cosine_basis(64, 4)


def _shift(u: Field, uxx_0=None, uxx_pi=None):
    """Whole-grid shift of a Field: first order, or third order with the
    given endpoint second derivatives."""
    if uxx_0 is None:
        v, alpha = shift1d(u.values, BASIS1)
    else:
        uxx = np.array([[uxx_0], [uxx_pi]], dtype=float)
        v, alpha = shift1d(u.values, BASIS3, uxx)
    return u.with_values(v), alpha


def _unshift(v: Field, alpha):
    basis = BASIS1 if alpha.shape[0] == 2 else BASIS3
    return v.with_values(v.values + basis @ alpha)


def test_shift1_constant():
    u = Field(GRID, np.full(65, 2.5))
    v, alpha = _shift(u)
    assert np.allclose(alpha[:, 0], [2.5, 0.0])
    assert np.max(np.abs(v.values)) < 1e-14


def test_shift1_antisymmetric_endpoints():
    # u(0) = 1, u(pi) = -1 -> alpha = (0, 1), v = u - cos(x)
    u = Field(GRID, np.cos(GRID.nodes) + np.sin(2 * GRID.nodes))
    v, alpha = _shift(u)
    assert np.allclose(alpha[:, 0], [0.0, 1.0])
    assert np.max(np.abs(v.values[:, 0] - np.sin(2 * GRID.nodes))) < 1e-14


def test_shift1_cosine_absorbed():
    u = Field(GRID, np.cos(GRID.nodes))
    v, _ = _shift(u)
    assert np.max(np.abs(v.values)) < 1e-15


def test_shift1_zero_endpoints_exactly():
    rng = np.random.default_rng(0)
    u = Field(GRID, rng.normal(size=(65, 2)))
    v, _ = _shift(u)
    assert np.max(np.abs(v.values[[0, -1]])) == 0.0


def test_shift3_hand_solutions():
    x = GRID.nodes
    # u(0)=1, u(pi)=1, zero second derivatives -> pure constant
    u = Field(GRID, np.ones(65))
    _, alpha = _shift(u, 0.0, 0.0)
    assert np.allclose(alpha[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    # u(0)=1, u(pi)=-1, zero second derivatives -> (9/8) cos x - (1/8) cos 3x
    u = Field(GRID, np.cos(x) ** 3)  # endpoint values 1, -1
    _, alpha = _shift(u, 0.0, 0.0)
    assert np.allclose(alpha[:, 0], [0.0, 9 / 8, 0.0, -1 / 8], atol=1e-14)


def test_shift3_zero_history():
    u = Field.zeros(GRID)
    uxx = estimate_uxx_nodes(u, u, u, zero_reaction(), 0.01, 0.01, [0, 64])
    _, alpha = shift1d(u.values, BASIS3, uxx)
    assert np.all(alpha == 0.0)


def test_shift3_endpoint_conditions_exact():
    x = GRID.nodes
    u = Field(GRID, (x / np.pi) ** 4 + np.cos(3 * x))
    uxx0, uxxpi = 0.0, 12.0 / np.pi**2 - 9.0 * np.cos(3 * np.pi)
    v, alpha = _shift(u, uxx0, uxxpi)
    assert np.max(np.abs(v.values[[0, -1]])) < 1e-13
    # the shifted second derivative at the ends vanishes by construction
    modes = np.arange(4)
    for xe, target in ((0.0, uxx0), (np.pi, uxxpi)):
        vxx = target + np.sum(alpha[:, 0] * (modes**2) * np.cos(modes * xe))
        assert abs(vxx) < 1e-12


def test_estimate_uxx_matches_true_second_derivative():
    # pure diffusion, single mode: u^n = exp(lam t_n) sin(x) solves the
    # recurrence only approximately, so feed the exact PDE relation instead:
    # u^{n+1}, u^n, u^{n-1} sampled from u(x,t) = exp(-t) sin(x) + 2
    grid = make_grid_1d(128)
    dt = 1e-4
    x = grid.nodes

    def u_at(t):
        return Field(grid, np.exp(-t) * np.sin(x) + 2.0)

    uxx0, uxxpi = estimate_uxx_nodes(
        u_at(3 * dt), u_at(2 * dt), u_at(dt), zero_reaction(), dt, 3 * dt, [0, 128]
    )
    # u_t = -exp(-t) sin(x) -> 0 at both ends, so u_xx estimate ~ u_t - f = 0
    assert abs(uxx0[0]) < 1e-6 and abs(uxxpi[0]) < 1e-6


def test_odd_extension_of_sines():
    n = GRID.n_intervals
    x2 = np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False)
    for k in (1, 2):
        v = Field(GRID, np.sin(k * GRID.nodes))
        w = odd_extend_values(v.values)
        assert np.max(np.abs(w[:, 0] - np.sin(k * x2))) < 1e-12


def test_odd_extension_zero_and_antisymmetry():
    assert np.all(odd_extend_values(Field.zeros(GRID).values) == 0.0)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=65)
    vals[0] = vals[-1] = 0.0
    w = odd_extend_values(Field(GRID, vals).values)[:, 0]
    n = GRID.n_intervals
    # odd about 0 and about pi
    assert np.max(np.abs(w[1:n] + w[:n:-1])) < 1e-14
    assert w[0] == 0.0 and w[n] == 0.0


def test_odd_extension_rejects_nonzero_endpoints():
    with pytest.raises(ValueError):
        odd_extend_values(Field(GRID, np.cos(GRID.nodes)).values)


def test_unshift_inverse_of_shift1():
    u = Field(GRID, (GRID.nodes / np.pi) ** 4 + np.cos(2 * GRID.nodes))
    v, alpha = _shift(u)
    assert np.max(np.abs(_unshift(v, alpha).values - u.values)) < 1e-12


def test_unshift_inverse_of_shift3():
    u = Field(GRID, (GRID.nodes / np.pi) ** 4 + np.cos(2 * GRID.nodes))
    v, alpha = _shift(u, 0.0, 12.0 / np.pi**2)
    assert np.max(np.abs(_unshift(v, alpha).values - u.values)) < 1e-12


def test_unshift_from_zero_filtered_part():
    c = Field(GRID, np.full(65, 4.0))
    _, alpha = _shift(c)
    out = _unshift(Field.zeros(GRID), alpha)
    assert np.max(np.abs(out.values - 4.0)) < 1e-14
    alpha = np.array([[0.0], [9 / 8], [0.0], [-1 / 8]])
    out = _unshift(Field.zeros(GRID), alpha)
    want = 9 / 8 * np.cos(GRID.nodes) - 1 / 8 * np.cos(3 * GRID.nodes)
    assert np.max(np.abs(out.values[:, 0] - want)) < 1e-14


def test_shift3_flattens_extension_second_difference():
    # on u = (x/pi)^4 the extension's second difference just inside pi is O(1)
    # after a first-order shift but O(h) after a third-order shift
    u = Field(GRID, (GRID.nodes / np.pi) ** 4)
    h = GRID.h
    v1, _ = _shift(u)
    w1 = odd_extend_values(v1.values)[:, 0]
    v3, _ = _shift(u, 0.0, 12.0 / np.pi**2)
    v3.values[0] = 0.0
    w3 = odd_extend_values(v3.values)[:, 0]
    n = GRID.n_intervals
    d2 = lambda w, j: (w[j - 1] - 2 * w[j] + w[j + 1]) / h**2
    assert abs(d2(w1, n - 1)) > 0.5
    assert abs(d2(w3, n - 1)) < 10.0 * h


def test_strip_shift_absorbs_global_cosine_trend():
    # a strip is shifted in global coordinates: a global cosine trend leaves
    # nothing behind, at first and at third order
    lo, hi = 20, 45
    u = (1.5 + 0.75 * np.cos(GRID.nodes))[lo:hi + 1, np.newaxis]
    v1, alpha1 = shift1d(u, BASIS1[lo:hi + 1])
    assert np.max(np.abs(v1)) < 1e-13
    assert np.allclose(alpha1[:, 0], [1.5, 0.75], atol=1e-13)
    uxx = -0.75 * np.cos(GRID.nodes[[lo, hi]])[:, np.newaxis]
    v3, alpha3 = shift1d(u, BASIS3[lo:hi + 1], uxx)
    assert np.max(np.abs(v3)) < 1e-12
    assert np.allclose(alpha3[:, 0], [1.5, 0.75, 0.0, 0.0], atol=1e-12)
