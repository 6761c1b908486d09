"""Order-8 filter, critical stretching, sine-transform filtering pipeline."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdfilter import filtering
from rdfilter.bench import integrate, manufactured_heat_case_square, ratio_to_dt, run_case
from rdfilter.core import (
    Field,
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    source_reaction,
    zero_reaction,
)
from rdfilter.ddm import make_layout
from rdfilter.filtering import (
    ASSEMBLY_BLOCK,
    MATRIX_MAX_N,
    filter_factors,
    kappa_critical,
    postprocess_field,
    sigma8,
    sine_coefficients,
    sine_reconstruct,
)
from rdfilter.stepper import estimate_uxx_nodes, recurrence_roots


def test_sigma8_anchor_values():
    assert abs(sigma8(0.0) - 1.0) < 1e-14
    assert abs(sigma8(1.0)) < 1e-14
    assert abs(sigma8(0.5) - 0.5) < 1e-14


def test_sigma8_support_and_symmetry():
    xi = np.linspace(-3.0, 3.0, 1201)
    s = sigma8(xi)
    assert np.all(s[np.abs(xi) >= 1.0] == 0.0)
    assert np.max(np.abs(s - sigma8(-xi))) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_sigma8_bounded_unit_interval(xi):
    s = sigma8(xi)
    assert 0.0 <= s <= 1.0


def test_sigma8_monotone_on_unit_interval():
    xi = np.linspace(0.0, 1.0, 2001)
    assert np.all(np.diff(sigma8(xi)) <= 1e-13)


def test_sigma8_derivatives_vanish_at_zero():
    # the filter order requires sigma^(l)(0) = 0 for l = 1..7; checked in
    # high precision because float64 differences of sigma8 are dominated by
    # its enormous eighth derivative
    import mpmath as mp

    mp.mp.dps = 60

    def sig(xi):
        y = (1 + mp.cos(mp.pi * xi)) / 2
        return (35 - 84 * y + 70 * y**2 - 20 * y**3) * y**4

    for order in range(1, 8):
        d = mp.diff(sig, mp.mpf(0), order)
        assert abs(d) < 1e-6, f"order {order}: {d}"


def test_sigma8_derivatives_decay_toward_one():
    # sigma8 and its first 7 derivatives tend to 0 as xi -> 1-: each value at
    # 1 - delta/100 must be far below the value at 1 - delta
    import mpmath as mp

    mp.mp.dps = 60

    def sig(xi):
        y = (1 + mp.cos(mp.pi * xi)) / 2
        return (35 - 84 * y + 70 * y**2 - 20 * y**3) * y**4

    for order in range(0, 8):
        coarse = abs(mp.diff(sig, mp.mpf(1) - mp.mpf("1e-2"), order))
        fine = abs(mp.diff(sig, mp.mpf(1) - mp.mpf("1e-4"), order))
        assert fine < coarse / 10


def test_sigma8_float_matches_high_precision():
    import mpmath as mp

    mp.mp.dps = 60

    def sig(xi):
        y = (1 + mp.cos(mp.pi * xi)) / 2
        return (35 - 84 * y + 70 * y**2 - 20 * y**3) * y**4

    for xi in np.linspace(0.0, 1.0, 41):
        assert abs(sigma8(float(xi)) - float(sig(mp.mpf(float(xi))))) < 1e-13


def test_sigma8_matches_mpmath_to_roundoff():
    # dense near xi = 0, where the polynomial in y = (1 + cos(pi xi))/2
    # cancels: the float filter stays within 1e-15 of the exact one
    import mpmath as mp

    mp.mp.dps = 40

    def sig(xi):
        y = (1 + mp.cos(mp.pi * xi)) / 2
        return (35 - 84 * y + 70 * y**2 - 20 * y**3) * y**4

    xis = np.concatenate([np.geomspace(1e-6, 1.0, 400, endpoint=False),
                          np.linspace(0.0, 1.0, 200, endpoint=False)])
    got = sigma8(xis)
    worst = max(abs(float(g) - float(sig(mp.mpf(float(x))))) for g, x in zip(got, xis))
    assert worst <= 1e-15


def test_kappa_critical_values():
    h = np.pi / 64
    assert abs(kappa_critical(h**2 / 3.0, h) - 1.0) < 1e-12
    assert abs(kappa_critical(h**2 / 2.0, h) - np.pi / np.arccos(-1.0 / 3.0)) < 1e-12
    assert kappa_critical(1e12, h) > 1e3  # dt -> infinity: unbounded stretch
    assert kappa_critical(h**2 / 10.0, h) == 1.0  # below the limit: no stretch
    for dt in (-1.0, 0.0, float("nan"), float("inf")):  # NaN returned NaN, inf warned
        with pytest.raises(ValueError, match="^dt: must be finite and positive"):
            kappa_critical(dt, h)


def test_sine_transform_roundtrip():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(33, 2))
    vals[0] = vals[-1] = 0.0
    back = sine_reconstruct(sine_coefficients(vals))
    assert np.max(np.abs(back - vals)) < 1e-12


def test_sine_coefficients_of_pure_modes():
    grid = make_grid_1d(16)
    for k in (1, 3, 7):
        b = sine_coefficients(np.sin(k * grid.nodes)[:, np.newaxis])
        want = np.zeros(15)
        want[k - 1] = 1.0
        assert np.max(np.abs(b[:, 0] - want)) < 1e-12


def test_apply_filter_identity_at_tiny_kappa():
    grid = make_grid_1d(32)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=33)
    vals[0] = vals[-1] = 0.0
    out = postprocess_field(Field(grid, vals), 1e-6).values  # zero ends: no shift
    assert np.max(np.abs(out[:, 0] - vals)) < 1e-8


def test_apply_filter_kills_modes_beyond_cutoff():
    grid = make_grid_1d(16)
    # kappa*k/N >= 1 -> mode removed entirely
    out = postprocess_field(Field(grid, np.sin(8 * grid.nodes)), 2.0).values
    assert np.max(np.abs(out)) < 1e-13


def test_apply_filter_single_mode_half_damping():
    grid = make_grid_1d(8)
    out = postprocess_field(Field(grid, np.sin(2 * grid.nodes)), 2.0).values
    want = 0.5 * np.sin(2 * grid.nodes)
    assert np.max(np.abs(out[:, 0] - want)) < 1e-13


@pytest.mark.parametrize("n", [8, 12, 16])
def test_apply_filter_matches_dense_fourier_sum(n):
    # brute-force oracle: complex Fourier series of the odd extension on 2N
    # equispaced points, coefficients damped by sigma(kappa k / N)
    grid = make_grid_1d(n)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=n + 1)
    vals[0] = vals[-1] = 0.0
    kappa = 1.3
    got = postprocess_field(Field(grid, vals), kappa).values[:, 0]  # zero ends: no shift
    x2 = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
    w = np.concatenate([vals, -vals[-2:0:-1]])
    want = np.zeros(n + 1)
    for k in range(1, n):
        ck = np.sum(w * np.exp(-1j * k * x2)) / (2 * n)
        mode = 2.0 * np.real(ck * np.exp(1j * k * grid.nodes))
        want += sigma8(kappa * k / n) * mode
    assert np.max(np.abs(got - want)) < 1e-12


def _assert_retained_modes_stable(n: int, ratio: float) -> None:
    grid = make_grid_1d(n)
    dt = ratio * grid.h**2 / 3.0
    factors = filter_factors(n, kappa_critical(dt, grid.h))
    for k in np.nonzero(factors > 1e-12)[0] + 1:
        roots = recurrence_roots(dt, laplacian_symbol(grid.h, k))
        assert np.max(np.abs(roots)) <= 1.0 + 1e-12, f"mode {k}"


@pytest.mark.parametrize("ratio", [2.0, 4.0, 8.0])
def test_retained_modes_stable_at_critical_kappa(ratio):
    _assert_retained_modes_stable(64, ratio)


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 512), st.floats(0.5, 64.0))
def test_retained_modes_stable_at_critical_kappa_on_any_grid(n, ratio):
    _assert_retained_modes_stable(n, ratio)


def _trace(samples, kappa):
    """The 1D postprocess of a trace, as the 2D postprocess filters its edges."""
    return postprocess_field(Field(make_grid_1d(len(samples) - 1), samples), kappa).values[:, 0]


def test_filter_boundary_trace_constant_and_cosine():
    x = np.linspace(0.0, np.pi, 65)
    assert np.max(np.abs(_trace(np.full(65, 2.0), 3.0) - 2.0)) < 1e-13
    out = _trace(np.cos(x), 3.0)
    assert np.max(np.abs(out - np.cos(x))) < 1e-13


def test_filter_boundary_trace_removes_high_mode():
    x = np.linspace(0.0, np.pi, 65)
    trace = 1.0 + 0.5 * np.cos(x) + 1e-3 * np.sin(32 * x)
    out = _trace(trace, 4.0)
    assert np.max(np.abs(out - (1.0 + 0.5 * np.cos(x)))) < 1e-12
    # endpoints reproduced exactly
    assert out[0] == trace[0] and out[-1] == trace[-1]


def test_one_forward_dst_per_postprocess(monkeypatch):
    # above MATRIX_MAX_N the filter scales the coefficients of the one forward
    # DST of each step, six in 2D (four edge traces, then one pass along x and
    # one along y); at or below it the DSTs run only while the run assembles
    # its matrix, one per block of unit columns, 2D included.  Each of these
    # postprocesses builds its cosine trend once, to subtract and to add back,
    # and a 2D step builds two more for its lift, one per axis
    calls, trends = [], []
    original, original_trend = filtering.sine_coefficients, filtering.cosine_trend

    def counted(values):
        calls.append(values.shape)
        return original(values)

    def counted_trend(*args):
        trends.append(args[0].shape)
        return original_trend(*args)

    def run_1d(grid):
        dt = ratio_to_dt(8.0, grid.h)
        u0 = Field(grid, np.sin(grid.nodes) + 1e-3 * np.sin(21 * grid.nodes))
        return integrate(zero_reaction(), grid, dt, 50, lambda t: (0.0, 0.0), u0)

    def run_2d(grid):
        return run_case(manufactured_heat_case_square(), grid, 2.0 * grid.hx**2 / 6.0, 20)[1]

    monkeypatch.setattr(filtering, "sine_coefficients", counted)
    monkeypatch.setattr(filtering, "cosine_trend", counted_trend)
    for run, grid, n_calls, n_trends in [
            (run_1d, make_grid_1d(2 * MATRIX_MAX_N), 50, 50),
            (run_1d, make_grid_1d(64), -(-65 // ASSEMBLY_BLOCK), -(-65 // ASSEMBLY_BLOCK)),
            (run_2d, make_grid_2d(300, 300), 6 * 20, (6 + 2) * 20),
            (run_2d, make_grid_2d(32, 32), -(-33 // ASSEMBLY_BLOCK),
             -(-33 // ASSEMBLY_BLOCK) + 2 * 20)]:
        filtering._matrices.cache_clear()  # a cached matrix would need no DST at all
        calls.clear()
        trends.clear()
        out = run(grid)
        assert out.stable and len(calls) == n_calls, (grid, len(calls))
        assert len(trends) == n_trends, (grid, len(trends))


def _layout_or_none(grid, n_subdomains, overlap):
    try:
        return make_layout(grid, n_subdomains, overlap)
    except ValueError:
        return None


# N up to 2 MATRIX_MAX_N: postprocess_field runs matrices up to MATRIX_MAX_N, DSTs above
_POSTPROCESS_CASES = dict(
    n=st.integers(8, 2 * MATRIX_MAX_N), ratio=st.floats(0.5, 16.0),
    shift_order=st.sampled_from([1, 3]), n_subdomains=st.sampled_from([1, 2, 4]),
    overlap=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 2**32 - 1),
)


def _postprocess_case(n, ratio, shift_order, n_subdomains, overlap, reaction):
    """(grid, postprocess of a Field) for one drawn configuration; history
    levels equal to the field make the u_xx estimate read the reaction."""
    grid = make_grid_1d(n)
    layout = _layout_or_none(grid, n_subdomains, overlap)
    assume(layout is not None)
    dt = ratio_to_dt(ratio, grid.h)
    kappa = kappa_critical(dt, grid.h)

    def post(u):
        uxx_at = partial(estimate_uxx_nodes, u, u, u, reaction, dt, dt)
        return postprocess_field(u, kappa, uxx_at if shift_order == 3 else None,
                                 layout=layout).values

    return grid, post


@settings(max_examples=60, deadline=None)
@given(**_POSTPROCESS_CASES)
def test_postprocess_keeps_boundary_values_exactly(n, ratio, shift_order, n_subdomains,
                                                   overlap, seed):
    grid, post = _postprocess_case(n, ratio, shift_order, n_subdomains, overlap,
                                   zero_reaction(2))
    rng = np.random.default_rng(seed)
    u = Field(grid, np.cos(grid.nodes)[:, None] + rng.standard_normal((n + 1, 2)))
    out = post(u)
    assert np.array_equal(out[[0, -1]], u.values[[0, -1]])


@settings(max_examples=60, deadline=None)
@given(**_POSTPROCESS_CASES)
def test_postprocess_leaves_low_cosines_unchanged(n, ratio, shift_order, n_subdomains,
                                                  overlap, seed):
    rng = np.random.default_rng(seed)
    a0, a1 = rng.uniform(-2.0, 2.0, size=2)
    # a steady state of u_t = u_xx + a1 cos x, so the scheme's u_xx estimate
    # at every strip end is -a1 cos x
    reaction = source_reaction(lambda x, t: a1 * np.cos(x))
    grid, post = _postprocess_case(n, ratio, shift_order, n_subdomains, overlap, reaction)
    u = Field(grid, a0 + a1 * np.cos(grid.nodes))
    assert np.max(np.abs(post(u) - u.values)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(**{**_POSTPROCESS_CASES, "shift_order": st.just(1)})
def test_postprocess_is_linear_at_first_order(n, ratio, shift_order, n_subdomains,
                                              overlap, seed):
    grid, post = _postprocess_case(n, ratio, shift_order, n_subdomains, overlap,
                                   zero_reaction(2))
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-2.0, 2.0, size=2)
    u, w = (Field(grid, rng.standard_normal((n + 1, 2))) for _ in range(2))
    combined = post(u.with_values(a * u.values + b * w.values))
    assert np.max(np.abs(combined - (a * post(u) + b * post(w)))) <= 1e-12


# (N, n_subdomains, overlap): one domain and 2-4 strips on each grid size
_MATRIX_LAYOUTS = [(16, 1, 0), (16, 2, 2), (64, 1, 0), (64, 2, 4), (64, 4, 8),
                   (256, 1, 0), (256, 3, 8), (256, 4, 16)]


def _matrix_case(n, n_subdomains, overlap):
    grid = make_grid_1d(n)
    layout = make_layout(grid, n_subdomains, overlap) if n_subdomains > 1 else None
    return grid, layout, ((0, n),) if layout is None else layout.ranges


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("shift_order", [1, 3])
@pytest.mark.parametrize("n, n_subdomains, overlap", _MATRIX_LAYOUTS)
def test_postprocess_matrices_match_postprocess_field(n, n_subdomains, overlap, shift_order, m,
                                                      monkeypatch):
    grid, layout, ranges = _matrix_case(n, n_subdomains, overlap)
    kappa = kappa_critical(ratio_to_dt(8.0, grid.h), grid.h)
    rng = np.random.default_rng(n + 10 * n_subdomains + shift_order + m)
    u = Field(grid, 1.0 + np.cos(grid.nodes)[:, None] + rng.standard_normal((n + 1, m)))
    uxx = rng.standard_normal((n + 1, m))
    seen = []

    def uxx_at(nodes):
        seen.append(nodes)
        return uxx[nodes]

    third = shift_order == 3
    P, Q = filtering._matrices(n, kappa, ranges, third)
    end_nodes = np.ravel(ranges)
    with monkeypatch.context() as patch:  # the DST path, which N > MATRIX_MAX_N takes
        patch.setattr(filtering, "MATRIX_MAX_N", 0)
        want = postprocess_field(u, kappa, uxx_at if third else None, layout).values
    got = P @ u.values + Q @ uxx[end_nodes]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(u.values))
    # postprocess_field takes the matrix path at this N, and computes exactly P @ u + Q @ u_xx
    applied = postprocess_field(u, kappa, uxx_at if third else None, layout)
    assert np.array_equal(applied.values, got)
    # both paths read u_xx once per call, at the same nodes
    assert len(seen) == 2 * third and all(np.array_equal(s, end_nodes) for s in seen)


@pytest.mark.parametrize("shift_order", [1, 3])
@pytest.mark.parametrize("n, n_subdomains, overlap", _MATRIX_LAYOUTS + [(300, 1, 0), (300, 2, 8)])
def test_postprocess_matrices_are_the_postprocess_of_the_identity(n, n_subdomains, overlap,
                                                                  shift_order):
    # P is the postprocess of the unit columns, Q that of zero data with unit
    # u_xx at the strip ends; N = 300 takes the DST path
    grid, layout, ranges = _matrix_case(n, n_subdomains, overlap)
    kappa = kappa_critical(ratio_to_dt(8.0, grid.h), grid.h)
    third, n_ends = shift_order == 3, 2 * len(ranges)
    P, Q = filtering._matrices(n, kappa, ranges, third)
    zero_uxx = (lambda nodes: np.zeros((n_ends, n + 1))) if third else None
    identity = postprocess_field(Field(grid, np.eye(n + 1)), kappa, zero_uxx, layout)
    assert np.array_equal(P, identity.values)
    if third:
        ends = postprocess_field(Field(grid, np.zeros((n + 1, n_ends))), kappa,
                                 lambda nodes: np.eye(n_ends), layout)
        assert np.array_equal(Q, ends.values)
    else:
        assert not np.any(Q)


@pytest.mark.parametrize("shift_order", [1, 3])
@pytest.mark.parametrize("n, n_subdomains, overlap", _MATRIX_LAYOUTS)
def test_postprocess_matrices_keep_both_end_values_exactly(n, n_subdomains, overlap,
                                                           shift_order):
    ranges = _matrix_case(n, n_subdomains, overlap)[2]
    P, Q = filtering._matrices(n, 3.0, ranges, shift_order == 3)
    unit = np.eye(n + 1)
    assert np.array_equal(P[[0, -1]], unit[[0, -1]])
    assert not np.any(Q[[0, -1]])
    rng = np.random.default_rng(n)
    u = rng.standard_normal((n + 1, 2)) * 1e3
    out = P @ u + Q @ rng.standard_normal((2 * len(ranges), 2))
    assert np.array_equal(out[[0, -1]], u[[0, -1]])


@pytest.mark.parametrize("n_subdomains, overlap", [(1, 0), (4, 16)])
@pytest.mark.parametrize("third_order", [False, True])
def test_postprocess_matrices_assemble_in_small_blocks(n_subdomains, overlap, third_order):
    # one call on the whole (N+1, N+1) identity held several copies of it; the
    # blocks keep the peak near the size of P itself (0.53 MB at N = 256)
    ranges = _matrix_case(MATRIX_MAX_N, n_subdomains, overlap)[2]
    filtering._matrices(MATRIX_MAX_N, 3.0, ranges, third_order)  # fills the memoized tables
    filtering._matrices.cache_clear()  # else the measured call is a cache hit
    tracemalloc.start()
    try:
        filtering._matrices(MATRIX_MAX_N, 3.0, ranges, third_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024**2


@pytest.mark.parametrize("bad", [np.nan, 0.0, -2.0, np.inf, True, np.True_])
def test_postprocess_rejects_a_kappa_that_is_not_finite_and_positive(bad):
    # each used to pass: NaN returned an all-NaN field, 0 filtered nothing,
    # -2 acted as +2, inf removed every sine mode and True filtered with 1.0;
    # np.True_ was taken for a sequence and raised a TypeError
    reject = partial(pytest.raises, ValueError, match="^kappa: must be finite and positive")
    for n in (64, 2 * MATRIX_MAX_N):  # the matrix path and the DST path
        grid = make_grid_1d(n)
        u = Field(grid, 1.0 + np.cos(grid.nodes) + 0.1 * np.sin(40 * grid.nodes))
        with reject():
            postprocess_field(u, bad)
    u2 = Field.zeros(make_grid_2d(8, 16))
    for kappa in ((bad, 2.0), (2.0, bad)):
        with reject():
            postprocess_field(u2, kappa)


def test_postprocess_field_roundtrip_identity_filter():
    grid = make_grid_1d(64)
    u = Field(grid, (grid.nodes / np.pi) ** 4 + np.cos(2 * grid.nodes))
    out1 = postprocess_field(u, 1e-9)
    assert np.max(np.abs(out1.values - u.values)) < 1e-8
    out3 = postprocess_field(u, 1e-9,
                             partial(estimate_uxx_nodes, u, u, u, zero_reaction(), 0.1, 0.1))
    assert np.max(np.abs(out3.values - u.values)) < 1e-8


def test_postprocess_field_preserves_boundary_values():
    grid = make_grid_1d(32)
    u = Field(grid, np.cos(grid.nodes) + np.sin(5 * grid.nodes))
    out = postprocess_field(u, 3.0)
    assert out.values[0, 0] == u.values[0, 0]
    assert out.values[-1, 0] == u.values[-1, 0]


def _sawtooth(y):
    # piecewise-linear 2pi-periodic function with a single jump at pi/2;
    # exact sine-series coefficients about the jump are 1/k
    return (np.pi - np.mod(y - np.pi / 2, 2.0 * np.pi)) / 2.0


def test_step_function_far_field_decay_rates():
    # filtered truncation of a step function: error decays at order >= p-2 = 6
    # away from the jump, stays O(1) within 2h of it
    jump = np.pi / 2
    y = np.linspace(0.0, 2.0 * np.pi, 4001, endpoint=False)
    d = np.minimum(np.abs(y - jump), 2.0 * np.pi - np.abs(y - jump))
    far = d >= 1.0
    exact = _sawtooth(y)
    far_errors = []
    for n in (64, 128, 256):
        k = np.arange(1, n)[:, np.newaxis]
        coeffs = np.sin(k * (y[np.newaxis, :] - jump)) / k
        filtered = np.sum(sigma8(k / n) * coeffs, axis=0)
        err = np.abs(filtered - exact)
        far_errors.append(np.max(err[far]))
        near = d <= 2.0 * (np.pi / n)
        assert np.max(err[near]) > 0.1  # O(1) at the jump
    orders = np.log2(np.array(far_errors[:-1]) / np.array(far_errors[1:]))
    assert np.all(orders >= 6.0), f"observed orders {orders}"
