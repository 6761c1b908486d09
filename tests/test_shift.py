"""The cosine trend of the shift, odd extension and the trend added back."""

import numpy as np
import pytest

from rdfilter.core import Field, make_grid_1d
from rdfilter.filtering import postprocess_field
from rdfilter.shift import cosine_basis, cosine_trend

GRID = make_grid_1d(64)
BASIS3 = cosine_basis(64, 4)


def odd_extend_values(values: np.ndarray) -> np.ndarray:
    """(N+1, m) values with zero endpoints -> odd 2pi-periodic (2N, m) sequence:
    the extension the DST-I of the filter implies, built out to inspect it."""
    end = max(float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))))
    if end > 1.0e-12:
        raise ValueError(f"odd extension needs zero endpoint values (got {end:.3e}); shift first")
    n = values.shape[0] - 1
    out = np.empty((2 * n,) + values.shape[1:])
    out[: n + 1] = values
    out[n + 1:] = -values[n - 1:0:-1]
    return out


def _trend(u: Field, uxx_0=None, uxx_pi=None) -> np.ndarray:
    """Whole-grid cosine trend of a Field: first order, or third order with the
    given endpoint second derivatives."""
    uxx = None if uxx_0 is None else np.array([[uxx_0], [uxx_pi]], dtype=float)
    return cosine_trend(u.values[[0, -1]], 64, 0, 64, uxx)


def _shift(u: Field, uxx_0=None, uxx_pi=None):
    """(v, trend): the shifted field v = u - trend and the trend."""
    trend = _trend(u, uxx_0, uxx_pi)
    return u.with_values(u.values - trend), trend


def _modes(trend: np.ndarray, lo: int = 0) -> np.ndarray:
    """The coefficients alpha_j of a (nodes, 1) trend sum_j alpha_j cos(j x),
    j < 4, on nodes lo.. of the grid."""
    return np.linalg.lstsq(BASIS3[lo:lo + len(trend)], trend[:, 0], rcond=None)[0]


def test_shift1_constant():
    u = Field(GRID, np.full(65, 2.5))
    v, trend = _shift(u)
    assert np.allclose(trend, 2.5, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(v.values)) < 1e-14


def test_shift1_antisymmetric_endpoints():
    # u(0) = 1, u(pi) = -1 -> the trend is cos(x), v = u - cos(x)
    u = Field(GRID, np.cos(GRID.nodes) + np.sin(2 * GRID.nodes))
    v, trend = _shift(u)
    assert np.max(np.abs(trend[:, 0] - np.cos(GRID.nodes))) < 1e-14
    assert np.max(np.abs(v.values[:, 0] - np.sin(2 * GRID.nodes))) < 1e-14


def test_shift1_cosine_absorbed():
    u = Field(GRID, np.cos(GRID.nodes))
    v, _ = _shift(u)
    assert np.max(np.abs(v.values)) < 1e-15


def test_shift1_zero_endpoints_exactly():
    # the trend takes the end values, so v's ends are zero up to roundoff; the
    # DST-I never reads them, and the postprocess writes u's ends back exactly
    rng = np.random.default_rng(0)
    u = Field(GRID, rng.normal(size=(65, 2)))
    v, _ = _shift(u)
    assert np.max(np.abs(v.values[[0, -1]])) <= 4 * np.finfo(float).eps * np.max(np.abs(u.values))
    assert np.array_equal(postprocess_field(u, 2.0).values[[0, -1]], u.values[[0, -1]])


def test_shift3_hand_solutions():
    x = GRID.nodes
    # u(0)=1, u(pi)=1, zero second derivatives -> pure constant
    trend = _trend(Field(GRID, np.ones(65)), 0.0, 0.0)
    assert np.allclose(trend, 1.0, rtol=0.0, atol=1e-14)
    # u(0)=1, u(pi)=-1, zero second derivatives -> (9/8) cos x - (1/8) cos 3x
    trend = _trend(Field(GRID, np.cos(x) ** 3), 0.0, 0.0)  # endpoint values 1, -1
    assert np.allclose(trend[:, 0], 9 / 8 * np.cos(x) - 1 / 8 * np.cos(3 * x), rtol=0.0,
                       atol=1e-14)
    assert np.allclose(_modes(trend), [0.0, 9 / 8, 0.0, -1 / 8], atol=1e-14)


def test_shift3_endpoint_conditions_exact():
    x = GRID.nodes
    u = Field(GRID, (x / np.pi) ** 4 + np.cos(3 * x))
    uxx0, uxxpi = 0.0, 12.0 / np.pi**2 - 9.0 * np.cos(3 * np.pi)
    v, trend = _shift(u, uxx0, uxxpi)
    assert np.max(np.abs(v.values[[0, -1]])) < 1e-13
    # the shifted second derivative at the ends vanishes by construction
    modes = np.arange(4)
    alpha = _modes(trend)
    for xe, target in ((0.0, uxx0), (np.pi, uxxpi)):
        vxx = target + np.sum(alpha * (modes**2) * np.cos(modes * xe))
        assert abs(vxx) < 1e-12


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
    v, trend = _shift(u)
    assert np.max(np.abs(v.values + trend - u.values)) < 1e-12


def test_unshift_inverse_of_shift3():
    u = Field(GRID, (GRID.nodes / np.pi) ** 4 + np.cos(2 * GRID.nodes))
    v, trend = _shift(u, 0.0, 12.0 / np.pi**2)
    assert np.max(np.abs(v.values + trend - u.values)) < 1e-12


def test_unshift_from_zero_filtered_part():
    # a filtered part that is all zero leaves the trend alone
    trend = _trend(Field(GRID, np.full(65, 4.0)))
    assert np.max(np.abs(Field.zeros(GRID).values + trend - 4.0)) < 1e-14
    ends = np.array([[1.0], [-1.0]])  # (9/8) cos x - (1/8) cos 3x at 0 and pi
    trend = cosine_trend(ends, 64, 0, 64, np.zeros((2, 1)))
    want = 9 / 8 * np.cos(GRID.nodes) - 1 / 8 * np.cos(3 * GRID.nodes)
    assert np.max(np.abs(Field.zeros(GRID).values[:, 0] + trend[:, 0] - want)) < 1e-14


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
    trend1 = cosine_trend(u[[0, -1]], 64, lo, hi)
    assert np.max(np.abs(u - trend1)) < 1e-13
    assert np.allclose(_modes(trend1, lo)[:2], [1.5, 0.75], atol=1e-13)
    uxx = -0.75 * np.cos(GRID.nodes[[lo, hi]])[:, np.newaxis]
    trend3 = cosine_trend(u[[0, -1]], 64, lo, hi, uxx)
    assert np.max(np.abs(u - trend3)) < 1e-12
    assert np.allclose(_modes(trend3, lo), [1.5, 0.75, 0.0, 0.0], atol=1e-12)


def test_cosine_trend_keeps_the_trailing_shape_of_its_end_data():
    # (2, a, b) end data gives (nodes, a, b), column by column the trend of (2, 1) data
    rng = np.random.default_rng(3)
    ends, uxx = rng.standard_normal((2, 2, 3, 4))
    for second in (None, uxx):
        got = cosine_trend(ends, 64, 10, 30, second)
        assert got.shape == (21, 3, 4)
        for i, j in np.ndindex(3, 4):
            col = cosine_trend(ends[:, i, j:j + 1], 64, 10, 30,
                               None if second is None else second[:, i, j:j + 1])
            assert np.allclose(got[:, i, j], col[:, 0], rtol=0.0, atol=1e-13)
