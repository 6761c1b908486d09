"""Order-8 filter, critical stretching, sine-transform filtering pipeline."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdfilter import filtering
from rdfilter.bench import integrate_1d, ratio_to_dt
from rdfilter.core import Field, laplacian_symbol, make_grid_1d, source_reaction, zero_reaction
from rdfilter.ddm import make_layout
from rdfilter.filtering import (
    FilterSpec,
    KappaMonitor,
    apply_filter_values,
    filter_boundary_trace,
    filter_factors,
    kappa_critical,
    postprocess_field,
    sigma8,
    sine_coefficients,
    sine_reconstruct,
)
from rdfilter.stepper import recurrence_roots


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
    with pytest.raises(ValueError):
        kappa_critical(-1.0, h)


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
    out = apply_filter_values(Field(grid, vals).values, FilterSpec(kappa=1e-6))
    assert np.max(np.abs(out[:, 0] - vals)) < 1e-8


def test_apply_filter_kills_modes_beyond_cutoff():
    grid = make_grid_1d(16)
    # kappa*k/N >= 1 -> mode removed entirely
    out = apply_filter_values(Field(grid, np.sin(8 * grid.nodes)).values, FilterSpec(kappa=2.0))
    assert np.max(np.abs(out)) < 1e-13


def test_apply_filter_single_mode_half_damping():
    grid = make_grid_1d(8)
    out = apply_filter_values(Field(grid, np.sin(2 * grid.nodes)).values, FilterSpec(kappa=2.0))
    want = 0.5 * np.sin(2 * grid.nodes)
    assert np.max(np.abs(out[:, 0] - want)) < 1e-13


def test_apply_filter_rejects_unshifted_input():
    grid = make_grid_1d(8)
    with pytest.raises(ValueError):
        apply_filter_values(Field(grid, np.cos(grid.nodes)).values, FilterSpec(kappa=1.0))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_apply_filter_matches_dense_fourier_sum(n):
    # brute-force oracle: complex Fourier series of the odd extension on 2N
    # equispaced points, coefficients damped by sigma(kappa k / N)
    grid = make_grid_1d(n)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=n + 1)
    vals[0] = vals[-1] = 0.0
    spec = FilterSpec(kappa=1.3)
    got = apply_filter_values(Field(grid, vals).values, spec)[:, 0]
    x2 = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
    w = np.concatenate([vals, -vals[-2:0:-1]])
    want = np.zeros(n + 1)
    for k in range(1, n):
        ck = np.sum(w * np.exp(-1j * k * x2)) / (2 * n)
        mode = 2.0 * np.real(ck * np.exp(1j * k * grid.nodes))
        want += spec.sigma(spec.kappa * k / n) * mode
    assert np.max(np.abs(got - want)) < 1e-12


def _assert_retained_modes_stable(n: int, ratio: float) -> None:
    grid = make_grid_1d(n)
    dt = ratio * grid.h**2 / 3.0
    factors = filter_factors(n, FilterSpec(kappa=kappa_critical(dt, grid.h)))
    for k in np.nonzero(factors > 1e-12)[0] + 1:
        roots = recurrence_roots(dt, laplacian_symbol(grid, k))
        assert np.max(np.abs(roots)) <= 1.0 + 1e-12, f"mode {k}"


@pytest.mark.parametrize("ratio", [2.0, 4.0, 8.0])
def test_retained_modes_stable_at_critical_kappa(ratio):
    _assert_retained_modes_stable(64, ratio)


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 512), st.floats(0.5, 64.0))
def test_retained_modes_stable_at_critical_kappa_on_any_grid(n, ratio):
    _assert_retained_modes_stable(n, ratio)


def test_filter_boundary_trace_constant_and_cosine():
    x = np.linspace(0.0, np.pi, 65)
    assert np.max(np.abs(filter_boundary_trace(np.full(65, 2.0), FilterSpec(3.0)) - 2.0)) < 1e-13
    out = filter_boundary_trace(np.cos(x), FilterSpec(3.0))
    assert np.max(np.abs(out - np.cos(x))) < 1e-13


def test_filter_boundary_trace_removes_high_mode():
    x = np.linspace(0.0, np.pi, 65)
    trace = 1.0 + 0.5 * np.cos(x) + 1e-3 * np.sin(32 * x)
    out = filter_boundary_trace(trace, FilterSpec(kappa=4.0))
    assert np.max(np.abs(out - (1.0 + 0.5 * np.cos(x)))) < 1e-12
    # endpoints reproduced exactly
    assert out[0] == trace[0] and out[-1] == trace[-1]


def test_kappa_monitor_bumps_after_sustained_growth():
    mon = KappaMonitor(kappa=2.0)
    n = 64
    # kappa = 2 retains modes k <= 31; put energy in the watched top quarter
    coeffs = np.zeros((n - 1, 1))
    coeffs[27] = 1.0
    assert mon.observe(coeffs, n) == 2.0
    assert mon.observe(1.2 * coeffs, n) == 2.0  # first growth
    assert abs(mon.observe(1.5 * coeffs, n) - 2.2) < 1e-12  # second -> bump 10%


def test_kappa_monitor_ignores_flat_energy():
    mon = KappaMonitor(kappa=2.0)
    n = 64
    coeffs = np.zeros((n - 1, 1))
    coeffs[27] = 1.0
    for _ in range(6):
        assert mon.observe(coeffs, n) == 2.0


def test_kappa_monitor_reads_the_filtered_coefficients(monkeypatch):
    # one forward DST per postprocess: the monitor watches the coefficients
    # the filter then scales.  kappa and the field are values recorded with
    # this sigma8.  The watched band holds only roundoff here, so the steps at
    # which kappa is bumped follow the last bits of the filter: a change there
    # moves the field by ~1e-8 relative, and these figures must be recorded again.
    calls = []
    original = filtering.sine_coefficients

    def counted(values):
        calls.append(values.shape)
        return original(values)

    monkeypatch.setattr(filtering, "sine_coefficients", counted)
    grid = make_grid_1d(64)
    dt = ratio_to_dt(8.0, grid.h)
    u0 = Field(grid, np.sin(grid.nodes) + 1e-3 * np.sin(21 * grid.nodes))
    out = integrate_1d(zero_reaction(), grid, dt, 50, lambda t: (0.0, 0.0), u0,
                       kappa_fraction=0.3, kappa_adapt=True)
    assert out.stable and len(calls) == 50
    assert out.kappa > 1.7 * 0.3 * kappa_critical(dt, grid.h)  # six 10 % bumps
    assert out.kappa == pytest.approx(2.310194808046378, rel=1e-14)
    v = out.field.values[:, 0]
    assert np.sum(v) == pytest.approx(29.54354702215763, rel=1e-12)
    assert np.max(np.abs(v)) == pytest.approx(0.7252533716042352, rel=1e-12)


def _layout_or_none(grid, n_subdomains, overlap):
    try:
        return make_layout(grid, n_subdomains, overlap)
    except ValueError:
        return None


_POSTPROCESS_CASES = dict(
    n=st.integers(8, 256), ratio=st.floats(0.5, 16.0),
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
    spec = FilterSpec(kappa_critical(dt, grid.h))

    def post(u):
        return postprocess_field(u, spec, shift_order, (u, u), reaction, dt, dt,
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


def test_postprocess_field_roundtrip_identity_filter():
    grid = make_grid_1d(64)
    u = Field(grid, (grid.nodes / np.pi) ** 4 + np.cos(2 * grid.nodes))
    out1 = postprocess_field(u, FilterSpec(kappa=1e-9), shift_order=1)
    assert np.max(np.abs(out1.values - u.values)) < 1e-8
    hist = (u, u)
    out3 = postprocess_field(u, FilterSpec(kappa=1e-9), shift_order=3,
                             history=hist, reaction=zero_reaction(), dt=0.1,
                             t_next=0.1)
    assert np.max(np.abs(out3.values - u.values)) < 1e-8


def test_postprocess_field_preserves_boundary_values():
    grid = make_grid_1d(32)
    u = Field(grid, np.cos(grid.nodes) + np.sin(5 * grid.nodes))
    out = postprocess_field(u, FilterSpec(kappa=3.0))
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
