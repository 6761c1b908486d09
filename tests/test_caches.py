"""Memoized step-invariant arrays and the Newton solve's shortcuts.

Every cached array must be read-only and equal to a fresh computation; the
manufactured cases, which keep their spatial factors per read-only node
array, must return the bytes of their closed forms; the cached pipeline
must reproduce the uncached formulas; the 1 x 1 division and the 2 x 2
closed form must agree with LAPACK's dense solve, which a u-dependent
m >= 3 still takes; a u-independent reaction is one division by c for every
m, bit for bit the general solve at m = 1 and within 4 ulp of it otherwise;
and a u-dependent solve must keep the bytes of its loop written out here.
"""

from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst, idst

from rdfilter import bench, filtering
from rdfilter.bench import (
    PredatorPreyCase,
    integrate,
    manufactured_heat_case,
    manufactured_heat_case_square,
    quadratic_manufactured_case,
    ratio_to_dt,
    run_predator_prey,
)
from rdfilter.core import (
    Field,
    ReactionSystem,
    interior_nodes,
    make_grid_1d,
    make_grid_2d,
    node_coordinates,
    source_reaction,
    zero_reaction,
)
from rdfilter.ddm import blend_weights, make_layout
from rdfilter.filtering import (
    filter_factors,
    kappa_critical,
    postprocess_field,
    sigma8,
)
from rdfilter.shift import cosine_basis, endpoint_inverse
from rdfilter.stepper import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    NewtonDivergence,
    estimate_uxx,
    newton_point_solve,
    step,
)


def _assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 1.0


def test_grid_nodes_cached_read_only_and_exact():
    for n in (4, 64, 4096):
        nodes = make_grid_1d(n).nodes
        assert np.array_equal(nodes, np.linspace(0.0, np.pi, n + 1))
        assert make_grid_1d(n).nodes is nodes  # shared by every grid with n intervals
        _assert_read_only(nodes)
    grid = make_grid_2d(8, 16)
    assert np.array_equal(grid.nodes_x, np.linspace(0.0, np.pi, 9))
    assert np.array_equal(grid.nodes_y, np.linspace(0.0, np.pi, 17))
    _assert_read_only(grid.nodes_x)
    _assert_read_only(grid.nodes_y)


def test_filter_factors_cached_read_only_and_exact():
    for n, kappa in ((8, 1.0), (64, 2.7), (4096, 5.3)):
        factors = filter_factors(n, kappa)
        assert np.array_equal(factors, sigma8(kappa * np.arange(1, n) / n))
        assert filter_factors(n, float(np.float64(kappa))) is factors  # equal kappas share
        _assert_read_only(factors)


def test_cosine_basis_cached_read_only_and_exact():
    for n, n_modes in ((4, 2), (64, 4), (4096, 4)):
        basis = cosine_basis(n, n_modes)
        x = np.linspace(0.0, np.pi, n + 1)
        assert np.array_equal(basis, np.cos(np.outer(x, np.arange(n_modes))))
        _assert_read_only(basis)


def test_endpoint_inverse_cached_read_only():
    for key in ((64, 0, 64, 2), (64, 20, 45, 4), (4096, 1000, 1030, 4)):
        inverse = endpoint_inverse(*key)
        assert endpoint_inverse(*key) is inverse
        assert inverse.shape == (key[3], key[3])
        _assert_read_only(inverse)


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 4096), st.data(), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
def test_endpoint_inverse_matches_dense_solve(n, data, shift_order, seed):
    # Strips as the solver builds them: the whole grid, or at least 9 intervals.
    width = data.draw(st.integers(min(n, 9), n))
    lo = data.draw(st.integers(0, n - width))
    hi = lo + width
    modes = np.arange(2 if shift_order == 1 else 4)
    ends = np.cos(np.outer(np.linspace(0.0, np.pi, n + 1)[[lo, hi]], modes))
    matrix = ends if shift_order == 1 else np.vstack([ends, -(modes**2) * ends])
    rhs = np.random.default_rng(seed).standard_normal((modes.size, 3))
    expected = np.linalg.solve(matrix, rhs)
    got = endpoint_inverse(n, lo, hi, modes.size) @ rhs
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_blend_weights_cached_read_only_and_exact():
    layout = make_layout(make_grid_1d(64), 3, 8)
    weights = blend_weights(layout.ranges)
    assert blend_weights(make_layout(make_grid_1d(64), 3, 8).ranges) is weights
    last = len(layout.ranges) - 1
    for i, ((lo, hi), w) in enumerate(zip(layout.ranges, weights)):
        fresh = np.ones(hi - lo + 1)
        if i > 0:
            fresh[:9] = np.arange(9) / 8
        if i < last:
            fresh[-9:] = np.minimum(fresh[-9:], np.arange(8, -1, -1) / 8)
        assert np.array_equal(w, fresh)
        _assert_read_only(w)


@pytest.mark.parametrize("shift_order", [1, 3])
def test_postprocess_matrices_cached_read_only_and_reused_by_the_next_run(shift_order,
                                                                          monkeypatch):
    # a run at N <= MATRIX_MAX_N assembles its matrices with DSTs at its first
    # step; a second run with the same (N, kappa, layout, order) runs none, its
    # startup step included, and matches a run on the DST path
    grid = make_grid_1d(64)
    layout = make_layout(grid, 2, 8)
    case = manufactured_heat_case()
    run = partial(integrate, case.reaction(), grid, ratio_to_dt(8.0, grid.h), 20,
                  case.boundary, case.initial(grid), shift_order=shift_order, layout=layout)
    filtering._matrices.cache_clear()
    first = run()
    calls = []
    original = filtering.sine_coefficients
    monkeypatch.setattr(filtering, "sine_coefficients",
                        lambda values: calls.append(values.shape) or original(values))
    second = run()
    assert calls == [] and np.array_equal(second.field.values, first.field.values)
    for array in filtering._matrices(64, first.kappa[0], layout.ranges, shift_order == 3):
        _assert_read_only(array)
    monkeypatch.setattr(filtering, "MATRIX_MAX_N", 0)
    dst_path = run()
    scale = np.max(np.abs(dst_path.field.values))
    assert np.max(np.abs(second.field.values - dst_path.field.values)) <= 1e-12 * scale


def test_interior_mesh_cached_read_only_and_exact():
    grid = make_grid_2d(8, 12)
    X, Y = interior_nodes(grid)
    assert interior_nodes(make_grid_2d(8, 12)) is interior_nodes(grid)
    x = np.linspace(0.0, np.pi, 9)[1:-1]
    y = np.linspace(0.0, np.pi, 13)[1:-1]
    X0, Y0 = np.meshgrid(x, y, indexing="ij")
    assert np.array_equal(X, X0) and np.array_equal(Y, Y0)
    _assert_read_only(X)
    _assert_read_only(Y)
    x1 = interior_nodes(make_grid_1d(16))
    assert np.array_equal(x1, np.linspace(0.0, np.pi, 17)[1:-1])
    _assert_read_only(x1)
    # the interior is a view of every node's coordinates: grid.nodes itself in
    # 1D, the full read-only meshes in 2D, each built once per grid
    assert node_coordinates(make_grid_1d(16)) is make_grid_1d(16).nodes
    assert np.shares_memory(x1, make_grid_1d(16).nodes)
    full = node_coordinates(grid)
    assert node_coordinates(make_grid_2d(8, 12)) is full
    for mesh, interior, want in zip(full, (X, Y), np.meshgrid(np.linspace(0.0, np.pi, 9),
                                                              np.linspace(0.0, np.pi, 13),
                                                              indexing="ij")):
        assert np.array_equal(mesh, want) and np.shares_memory(interior, mesh)
        _assert_read_only(mesh)


# The manufactured cases as closed forms, each evaluated in full on every call:
# the memoized cases must return these bytes.
def _heat_exact(x, t):
    return np.cos(t) * ((np.asarray(x) / np.pi) ** 4 + np.cos(3.0 * np.asarray(x)))


def _heat_source(x, t):
    x = np.asarray(x)
    return (-np.sin(t) * ((x / np.pi) ** 4 + np.cos(3.0 * x))
            - np.cos(t) * (12.0 * x**2 / np.pi**4 - 9.0 * np.cos(3.0 * x)))


def _quadratic_exact(x, t):
    x = np.asarray(x)
    return np.cos(10.0 * t) * (1.0 + x * (np.pi - x))


def _quadratic_source(x, t):
    x = np.asarray(x)
    return -10.0 * np.sin(10.0 * t) * (1.0 + x * (np.pi - x)) + 2.0 * np.cos(10.0 * t)


def _exact_2d(x, y, t):
    return np.cos(t) * np.cos(2.0 * np.asarray(x)) * np.cos(np.asarray(y))


def _source_2d(xy, t):
    x, y = xy
    return (-np.sin(t) + 5.0 * np.cos(t)) * np.cos(2.0 * x) * np.cos(y)


CLOSED_FORMS_1D = [(manufactured_heat_case, _heat_exact, _heat_source),
                   (quadratic_manufactured_case, _quadratic_exact, _quadratic_source)]
TIMES = (0.0, 0.37, 2.5, 10.0)


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make_case, exact, source", CLOSED_FORMS_1D)
def test_1d_cases_match_their_closed_forms_byte_for_byte(make_case, exact, source):
    case = make_case()
    grid = make_grid_1d(64)
    xs = [interior_nodes(make_grid_1d(n)) for n in (4, 64, 4096)]
    xs += [grid.nodes, make_grid_1d(4096).nodes, 0.0, np.pi, 1.3, np.float64(0.7),
           [0.2, 1.1, 2.9], np.linspace(0.1, 3.0, 7),
           grid.nodes[[1, 5, 63]],  # fancy-indexed: a fresh, writable array
           interior_nodes(grid) + 1.0e-4, interior_nodes(grid) - 1.0e-4]  # as residual's x +- eps
    for _ in range(2):  # the second pass reads what the first one kept
        for x in xs:
            for t in TIMES:
                _assert_same_bytes(case.source(x, t), source(x, t))
                _assert_same_bytes(case.exact(x, t), exact(x, t))


def test_2d_case_matches_its_closed_form_byte_for_byte():
    case = manufactured_heat_case_square()
    for grid in (make_grid_2d(16, 24), make_grid_2d(128, 128)):
        X, Y = interior_nodes(grid)
        meshes = [(X, Y), np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")]
        edges = [(grid.nodes_x, 0.0), (grid.nodes_x, np.pi), (0.0, grid.nodes_y),
                 (np.pi, grid.nodes_y), (np.linspace(0.1, 3.0, 7), 1.3)]
        for _ in range(2):
            for t in TIMES:
                for x, y in meshes:
                    _assert_same_bytes(case.reaction().eval((x, y), t, np.zeros(x.shape + (1,))),
                                       _source_2d((x, y), t)[..., np.newaxis])
                    _assert_same_bytes(case.exact((x, y), t), _exact_2d(x, y, t))
                for x, y in edges:
                    _assert_same_bytes(case.exact((x, y), t), _exact_2d(x, y, t))


def test_a_writable_node_array_changed_in_place_is_evaluated_again():
    for make_case, exact, source in CLOSED_FORMS_1D:
        case = make_case()
        x = np.linspace(0.1, 3.0, 9)
        case.source(x, 0.4), case.exact(x, 0.4)
        x += 0.05
        _assert_same_bytes(case.source(x, 0.4), source(x, 0.4))
        _assert_same_bytes(case.exact(x, 0.4), exact(x, 0.4))
    case = manufactured_heat_case_square()
    X, Y = np.meshgrid(np.linspace(0.1, 3.0, 5), np.linspace(0.2, 2.0, 6), indexing="ij")
    case.exact((X, Y), 0.4)
    X += 0.05
    Y *= 1.5
    _assert_same_bytes(case.exact((X, Y), 0.4), _exact_2d(X, Y, 0.4))


def test_a_node_factor_keeps_read_only_arrays_only_and_its_entries_read_only():
    calls = []
    factor = bench.once_per_node_array(lambda x: calls.append(x) or 2.0 * x)
    nodes = interior_nodes(make_grid_1d(32))
    kept = factor(nodes)
    assert factor(nodes) is kept and len(calls) == 1
    _assert_read_only(kept)
    writable = np.linspace(0.1, 3.0, 7)
    first, second = factor(writable), factor(writable)
    assert first is not second and first.flags.writeable
    factor(0.5), factor(0.5), factor([0.1, 0.2]), factor([0.1, 0.2])
    assert len(calls) == 7  # one for the read-only array, every other call fresh


def _count_node_factor_calls(monkeypatch):
    """Record every node array a case's factors are evaluated on, from the
    factors of each case built after this call."""
    calls = []
    memoize = bench.once_per_node_array

    def counting(factor):
        return memoize(lambda x: calls.append(x) or factor(x))

    monkeypatch.setattr(bench, "once_per_node_array", counting)
    return calls


@pytest.mark.parametrize("make_case, n_factors",
                         [(manufactured_heat_case, 2), (quadratic_manufactured_case, 1)])
def test_a_1d_run_evaluates_each_interior_factor_once(monkeypatch, make_case, n_factors):
    # the third-order shift's u_xx estimate evaluates the source on grid.nodes
    # every step: it must not evict the interior, and no other array is built
    calls = _count_node_factor_calls(monkeypatch)
    case = make_case()
    grid = make_grid_1d(64)
    out = integrate(case.reaction(), grid, ratio_to_dt(4.0, grid.h), 12, case.boundary,
                    case.initial(grid), shift_order=3, layout=make_layout(grid, 3, 8))
    assert out.stable
    arrays = [x for x in calls if np.ndim(x)]  # the boundary data pass scalars
    assert sum(x is interior_nodes(grid) for x in arrays) == n_factors
    assert sum(x is grid.nodes for x in arrays) == n_factors  # u0 and the u_xx estimates
    assert len(arrays) == 2 * n_factors


def test_a_2d_run_evaluates_each_interior_factor_once(monkeypatch):
    # the boundary data samples exact on nodes_x and nodes_y every step, by
    # the same factors as the source: neither edge may evict the interior mesh
    calls = _count_node_factor_calls(monkeypatch)
    case = manufactured_heat_case_square()
    grid = make_grid_2d(16, 24)
    X, Y = interior_nodes(grid)
    out = integrate(case.reaction(), grid, 0.002, 12, partial(case.boundary, grid=grid),
                    Field.zeros(grid))
    assert out.stable
    assert [sum(x is a for x in calls) for a in (X, Y, grid.nodes_x, grid.nodes_y)] == [1] * 4


def _postprocess_uncached(values, kappa, uxx=None):
    """The postprocess with every array rebuilt: cosine shift of order 1 (or 3
    with the given endpoint u_xx), DST-I filter, inverse shift."""
    n = values.shape[0] - 1
    x = np.linspace(0.0, np.pi, n + 1)
    if uxx is None:
        modes = np.arange(2)
        alpha = np.stack([0.5 * (values[0] + values[-1]), 0.5 * (values[0] - values[-1])])
    else:
        modes = np.arange(4)
        ends = np.vstack([np.ones(4), (-1.0) ** modes])  # cos(j*0), cos(j*pi)
        matrix = np.vstack([ends, -(modes**2) * ends])
        alpha = np.linalg.solve(matrix, np.stack([values[0], values[-1], uxx[0], uxx[1]]))
    trend = np.cos(np.outer(x, modes)) @ alpha
    v = values - trend
    b = dst(v[1:-1], type=1, axis=0) / n
    b = b * sigma8(kappa * np.arange(1, n) / n)[:, np.newaxis]
    out = trend.copy()
    out[1:-1] += idst(b * n, type=1, axis=0)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 512), st.floats(0.5, 16.0), st.sampled_from([1, 3]),
       st.integers(0, 2**32 - 1))
def test_postprocess_matches_uncached_formula(n, ratio, shift_order, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid_1d(n)
    dt = ratio * grid.h**2 / 3.0
    kappa = kappa_critical(dt, grid.h)
    x = grid.nodes
    base = np.cos(x) + x**2 / 7.0 + 0.1 * rng.standard_normal(n + 1)
    rate = rng.standard_normal(n + 1)  # so the endpoint u_xx estimates are O(1)
    u_prev, u_curr, u_new = (Field(grid, base + k * dt * rate) for k in range(3))
    ends = uxx = None
    if shift_order == 3:
        ends = ((3.0 * u_new.values - 4.0 * u_curr.values + u_prev.values)
                / (2.0 * dt))[[0, -1]]
        uxx = estimate_uxx(u_new, u_curr, u_prev, zero_reaction(), dt, dt)
    expected = _postprocess_uncached(u_new.values, kappa, ends)
    for _ in range(2):  # the second call reads every array from the caches
        out = postprocess_field(u_new, kappa, uxx)
        assert np.max(np.abs(out.values - expected)) <= 1e-13


def _atan_reaction(coeff, m):
    # c u - f(u) = atan(u): Newton on atan diverges from |u0| > 1.39.
    return ReactionSystem(
        eval=lambda x, t, u: coeff * u - np.arctan(u),
        jacobian=lambda x, t, u: (coeff - 1.0 / (1.0 + u * u))[..., np.newaxis]
        * np.eye(m),
    )


def test_m1_division_matches_dense_solve():
    # The m = 2 and m = 3 systems are two and three decoupled copies of the
    # m = 1 one: m = 2 runs the closed form and m = 3 the batched
    # np.linalg.solve on the same per-node equations.
    coeff = 3.0
    rng = np.random.default_rng(5)
    rhs = rng.uniform(-0.8, 0.8, size=(257, 1))
    one = newton_point_solve(rhs, _atan_reaction(coeff, 1), None, 0.0, coeff, rhs / coeff)
    for m in (2, 3):
        many = newton_point_solve(np.repeat(rhs, m, axis=1), _atan_reaction(coeff, m),
                                  None, 0.0, coeff, np.repeat(rhs, m, axis=1) / coeff)
        assert np.max(np.abs(one[:, 0] - many[:, 0])) <= 1e-15
        assert np.max(np.abs(many[:, :1] - many[:, 1:])) == 0.0
    assert np.max(np.abs(np.arctan(one) - rhs)) <= 1e-12


def test_m1_divergence_reports_same_node_as_dense_solve():
    coeff = 3.0
    initial = np.full((9, 1), 0.1)
    initial[6] = 2.0
    nodes = []
    for m in (1, 2, 3):
        with pytest.raises(NewtonDivergence) as info:
            newton_point_solve(np.zeros((9, m)), _atan_reaction(coeff, m), None, 0.0,
                               coeff, np.repeat(initial, m, axis=1))
        nodes.append(info.value.node)
    assert nodes == [6, 6, 6]


@pytest.mark.parametrize("overflow, m", [(False, 1), (False, 2), (False, 3), (True, 1),
                                         (True, 2)],
                         ids=["1", "2", "3", "overflow-1", "overflow-2"])
def test_zero_jacobian_raises_newton_divergence_at_that_node(overflow, m):
    # f(u) = c u - u^2 / 2 per component makes the Jacobian of c u - f(u),
    # diag(u), vanish at u = 0: the division (m = 1) and the closed form
    # (m = 2) must not turn that node into +-inf and accept it, and LAPACK's
    # solve (m = 3, and m = 2's fallback) must not raise LinAlgError.
    if overflow:  # f == 0 and c = 1e-300: the update rhs / c overflows at node 3
        coeff, node, rhs, initial = 1e-300, 3, np.zeros((5, m)), np.zeros((5, m))
        reaction = ReactionSystem(eval=lambda x, t, u: np.zeros_like(u),
                                  jacobian=lambda x, t, u: np.zeros(u.shape + (m,)))
        rhs[node] = 1e10
    else:
        coeff, node, rhs, initial = 3.0, 4, np.full((9, m), 0.5), np.full((9, m), 1.0)
        reaction = ReactionSystem(
            eval=lambda x, t, u: coeff * u - 0.5 * u * u,
            jacobian=lambda x, t, u: (coeff - u)[..., np.newaxis] * np.eye(m),
        )
        initial[node] = 0.0
    with np.errstate(all="raise"):  # no divide-by-zero or overflow warning either
        with pytest.raises(NewtonDivergence) as info:
            newton_point_solve(rhs, reaction, None, 0.0, coeff, initial)
    assert info.value.node == node
    assert info.value.residual == np.max(rhs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([(9,), (4, 5)]), st.floats(1e-3, 1e3),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_u_independent_solve_is_bit_identical_to_the_general_solve(m, nodes, coeff,
                                                                   guess, seed):
    # The flag only skips work: f is evaluated once, and the update divides
    # the residual by c without calling ``jacobian`` (which returns zeros
    # here).  At m = 1 the general solve divides by c - 0 too, bit for bit;
    # at m >= 2 it solves c I, and Cramer's rule computes c r / c^2, not r / c.
    # The update rounds on terms of size |u0|, |u|, |rhs| / c and |s| / c.
    rng = np.random.default_rng(seed)
    source = rng.standard_normal(nodes + (m,)) * 10.0 ** rng.uniform(-3, 3)
    rhs = rng.standard_normal(nodes + (m,))
    initial = rng.standard_normal(nodes + (m,)) if guess else rhs / coeff
    flagged = source_reaction(lambda x, t: source)
    cleared = replace(flagged, u_independent=False)
    fast = newton_point_solve(rhs, flagged, None, 0.0, coeff, initial)
    slow = newton_point_solve(rhs, cleared, None, 0.0, coeff, initial)
    # one update, written out, into a new array: the guess is read, not copied
    assert not np.shares_memory(fast, initial)
    assert fast.tobytes() == (initial - (coeff * initial - source - rhs) / coeff).tobytes()
    if m == 1:
        assert fast.tobytes() == slow.tobytes()
        return
    u_max = max(np.abs(a).max() for a in (initial, fast, rhs / coeff, source / coeff))
    for other in ((rhs + source) / coeff, slow):
        assert np.max(np.abs(fast - other)) <= 4.0 * np.spacing(u_max)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1.0e308])
def test_non_finite_source_diverges_at_the_same_node_either_way(m, bad):
    # a finite source of 1e308 with c = 0.5 overflows the update: the flagged
    # solve tests max|residual| / c alone, then scans for the node
    source = np.ones((9, m))
    source[5, -1] = bad
    coeff = 0.5 if np.isfinite(bad) else 3.0
    flagged = source_reaction(lambda x, t: source)
    failures = []
    for reaction in (flagged, replace(flagged, u_independent=False)):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NewtonDivergence) as info:
                newton_point_solve(np.zeros((9, m)), reaction, None, 0.0, coeff,
                                   np.zeros((9, m)))
        failures.append((info.value.node, repr(info.value.residual)))
    assert failures[0] == failures[1]
    assert failures[0][0] == 5
    if np.isfinite(bad):
        assert info.value.residual == bad


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2, 3]),
       st.sampled_from(["scalar", "n", "n, m", "nx, ny", "nx, ny, m"]),
       st.sampled_from([np.float64, np.float32, np.int64]), st.integers(0, 2**32 - 1))
def test_source_fill_matches_the_broadcast_copy(m, returns, dtype, seed):
    # The source's value is written into a fresh float array of u's shape;
    # it used to be broadcast to that shape and copied.
    rng = np.random.default_rng(seed)
    nodes = (9,) if returns in ("scalar", "n", "n, m") else (4, 5)
    u = rng.standard_normal(nodes + (m,))
    shape = {"scalar": (), "n": nodes, "nx, ny": nodes}.get(returns, nodes + (m,))
    if dtype is np.int64:
        values = rng.integers(-2**62, 2**62, shape)
    else:
        values = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30, shape))
        values.flat[rng.integers(0, values.size)] = rng.choice([np.nan, -np.inf, -0.0])
    returned = []

    def source(x, t):
        returned.append(np.array(values, dtype=dtype))
        return returned[-1]

    out = source_reaction(source).eval(None, 0.0, u)
    s = np.asarray(returned[-1], dtype=float)
    if s.shape != u.shape:
        s = np.broadcast_to(s[..., np.newaxis] if s.ndim == u.ndim - 1 else s, u.shape)
    expected = np.array(s, dtype=float)
    assert out.dtype == np.float64 and out.shape == u.shape
    assert out.tobytes() == expected.tobytes()
    assert out.flags.writeable and not np.shares_memory(out, returned[-1])


@settings(max_examples=120, deadline=None)
@given(st.floats(0.0, 1e6), st.floats(1e-3, 1e3), st.sampled_from([(9,), (4, 5)]),
       st.integers(0, 2**32 - 1))
def test_m1_solve_is_one_division_by_c_minus_the_jacobian(lam_max, c, nodes, seed):
    # f = -lam u is linear but not flagged u-independent, so the Jacobian is
    # taken; Newton's first update solves it, and the second residual is
    # roundoff far below the tolerance.  The update must be exactly one
    # division of the residual by c - df/du, written out below.
    rng = np.random.default_rng(seed)
    lam = lam_max * rng.uniform(0.0, 1.0, nodes + (1,))
    rhs = rng.standard_normal(nodes + (1,))
    u0 = rng.standard_normal(nodes + (1,))
    reaction = ReactionSystem(eval=lambda x, t, u: -lam * u,
                              jacobian=lambda x, t, u: (-lam)[..., np.newaxis])
    u = newton_point_solve(rhs, reaction, None, 0.0, c, u0)
    oracle = u0 - (c * u0 - (-lam * u0) - rhs) / (c - (-lam))
    assert u.tobytes() == oracle.tobytes()


def _linear_reaction(jac):
    # f(u) = -J u per node, so at c = 0 Newton's matrix 0 I - df/du is J bit
    # for bit, and the first update solves J u = rhs.
    return ReactionSystem(eval=lambda x, t, u: -np.einsum("...ij,...j->...i", jac, u),
                          jacobian=lambda x, t, u: -jac)


def _assert_matches_lapack(jac, rhs):
    # Both Cramer's rule (Higham 2002, 1.10.1) and LU with partial pivoting
    # are forward stable for n = 2: each errs by a small multiple of
    # eps cond(J) relative, so they differ by at most 16 eps cond(J) (max
    # norms, which do not overflow at |u| ~ 1e208).
    u = newton_point_solve(rhs, _linear_reaction(jac), None, 0.0, 0.0, np.zeros_like(rhs))
    for node in np.ndindex(rhs.shape[:-1]):
        reference = np.linalg.solve(jac[node], rhs[node])
        cond = np.linalg.cond(jac[node] / np.max(np.abs(jac[node])))
        bound = 16.0 * np.finfo(float).eps * cond * np.max(np.abs(reference))
        assert np.max(np.abs(u[node] - reference)) <= bound


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_2x2_closed_form_matches_lapack_node_by_node(n_nodes, seed):
    # Non-symmetric J = 10^k U diag(1, s) V^T with random rotations U, V (V
    # with a random reflection), cond = 1/s up to 1e8 and k in [-200, 200] per
    # node: a determinant that underflows or overflows goes to LAPACK.
    rng = np.random.default_rng(seed)

    def rotations():
        angle = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
        cos, sin = np.cos(angle), np.sin(angle)
        return np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)

    singular = np.stack([np.ones(n_nodes), 10.0 ** -rng.uniform(0.0, 8.0, n_nodes)], -1)
    reflect = np.stack([np.ones(n_nodes), rng.choice([-1.0, 1.0], n_nodes)], -1)
    jac = (rotations() * singular[:, np.newaxis, :]) @ np.swapaxes(
        rotations() * reflect[:, np.newaxis, :], -1, -2)
    jac *= 10.0 ** rng.uniform(-200.0, 200.0, (n_nodes, 1, 1))
    _assert_matches_lapack(jac, rng.standard_normal((n_nodes, 2)))


def test_2x2_jacobian_scaled_by_1e160_converges():
    # a d overflows to inf, so every node is left to LAPACK, which solves it
    rng = np.random.default_rng(160)
    jac = 1e160 * (rng.standard_normal((9, 2, 2)) + 4.0 * np.eye(2))
    _assert_matches_lapack(jac, rng.standard_normal((9, 2)))


@pytest.mark.parametrize("singular", [
    [[1.0, 2.0], [2.0, 4.0]],  # rank 1: a d - b c is exactly 0
    # LU meets the exact zero pivot 0.3 - (0.9 / 3) 1 = 0, while a d - b c
    # rounds to -1.1e-16 and Cramer's rule alone would accept a 1e16 update
    [[3.0, 1.0], [0.9, 0.3]],
])
def test_singular_2x2_jacobian_diverges_at_that_node(singular):
    jac = np.repeat([[[2.0, 1.0], [-1.0, 3.0]]], 9, axis=0)
    jac[4] = singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac[4], np.ones(2))
    with np.errstate(all="raise"):
        with pytest.raises(NewtonDivergence) as info:
            newton_point_solve(np.ones((9, 2)), _linear_reaction(jac), None, 0.0, 0.0,
                               np.zeros((9, 2)))
    assert info.value.node == 4
    assert info.value.residual == 1.0


@pytest.mark.parametrize("jacobian", [
    # singular: a node falls back to LAPACK, and jac[redo] raised IndexError
    [[3.0, 1.0], [3.0, 1.0 + 1e-17]],
    [[2.0]],  # broadcast silently over the nodes
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]],  # node-by-node LAPACK failed
], ids=["m2", "m1", "m3"])
def test_newton_rejects_a_jacobian_of_the_wrong_shape_by_name(jacobian):
    # f = -J u with one (m, m) Jacobian shared by every node, not (5, m, m)
    jac = np.array(jacobian)
    m = len(jac)
    reaction = ReactionSystem(eval=lambda x, t, u: -u @ jac.T, jacobian=lambda x, t, u: -jac)
    with pytest.raises(ValueError, match=rf"^jacobian: must have shape \(5, {m}, {m}\)"):
        newton_point_solve(np.ones((5, m)), reaction, None, 0.0, 0.0, np.ones((5, m)))


def _written_out_solve(rhs, f, dfdu, coeff, u):
    # The u-dependent Newton solve in its first form, on (nodes, m) arrays: a
    # new c u - f - rhs and c I per update, Cramer's rule with its soundness
    # bound in one expression, and a finiteness test after every update.
    m, fu, jac = u.shape[-1], f(u), None
    for iteration in range(NEWTON_MAX_ITER + 1):
        residual = coeff * u - fu - rhs
        res_max, u_max = np.abs(residual).max(), float(np.abs(u).max(initial=1.0))
        if res_max <= NEWTON_TOL * max(1.0, coeff * u_max) or (
                jac is not None and res_max <= NEWTON_TOL * float(np.abs(jac).max()) * u_max):
            return u
        if iteration == NEWTON_MAX_ITER:
            break
        if m == 1:
            jac = coeff - dfdu(u)[..., 0]
            delta = residual / jac
        else:
            jac = coeff * np.eye(m) - dfdu(u)
            delta = (_written_out_2x2 if m == 2 else _written_out_dense)(jac, residual)
        if not np.isfinite(delta).all():
            bad = ~np.isfinite(delta).all(axis=-1)
            raise NewtonDivergence(np.argmax(bad), float(np.abs(residual[bad]).max()))
        u = u - delta
        fu = f(u)
    worst = np.abs(residual)
    raise NewtonDivergence(np.argmax(worst.max(axis=-1)), float(worst.max()))


def _written_out_2x2(jac, residual):
    a, b, c, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]
    r0, r1 = residual[..., 0], residual[..., 1]
    det = a * d - b * c
    delta = np.stack([d * r0 - b * r1, a * r1 - c * r0], axis=-1) / det[..., np.newaxis]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    sound = np.abs(det) > 4.0 * eps * (np.abs(a * d) + np.abs(b * c)) + tiny
    redo = ~(sound & np.isfinite(delta).all(axis=-1))
    if redo.any():
        delta[redo] = _written_out_dense(jac[redo], residual[redo])
    return delta


def _written_out_dense(jac, residual):
    try:
        return np.linalg.solve(jac, residual[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:  # NaN at each singular node
        delta = np.full(residual.shape, np.nan)
        for node in range(len(residual)):
            try:
                delta[node] = np.linalg.solve(jac[node], residual[node])
            except np.linalg.LinAlgError:
                pass
        return delta


def _written_out_predator_prey(variant):
    # ``PredatorPreyCase``'s reaction and Jacobian in their first form
    a, b, c, d = PredatorPreyCase.a, PredatorPreyCase.b, PredatorPreyCase.c, PredatorPreyCase.d

    def f(w):
        u, v = w[..., 0], w[..., 1]
        fv = -c * u - d * u * v if variant == "printed" else -c * v + d * u * v
        return np.stack([a * u - b * u * v, fv], axis=-1)

    def dfdu(w):
        u, v = w[..., 0], w[..., 1]
        j = np.empty(w.shape[:-1] + (2, 2))
        j[..., 0, 0], j[..., 0, 1] = a - b * v, -b * u
        if variant == "printed":
            j[..., 1, 0], j[..., 1, 1] = -c - d * v, -d * u
        else:
            j[..., 1, 0], j[..., 1, 1] = d * v, -c + d * u
        return j

    return f, dfdu


@cache
def _predator_prey_state(variant):
    _, traj = run_predator_prey(PredatorPreyCase(sign_variant=variant), 64, 4.0, n_steps=20)
    state = traj["final"].values[1:-1].copy()
    state.flags.writeable = False  # shared by every example
    return state


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["classical", "printed", 1, 2, 3]), st.floats(-2.0, 4.0),
       st.floats(-12.0, 0.0), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_u_dependent_solve_keeps_the_bytes_of_the_written_out_loop(kind, log_c, log_kick, cubic,
                                                                  singular, nan, seed):
    # The solve forms its residual in one buffer, c I once, and tests each
    # update once: every result keeps its bytes, every failure its node and
    # residual.  Predator-prey (m = 2) starts at a state of a short run, its
    # rhs kicked off that state.  The linear reactions, cubic or not, (m = 1,
    # 2, 3) have Newton matrix exactly 0 at a singular node and NaN at a NaN node.
    rng = np.random.default_rng(seed)
    coeff = 10.0 ** log_c
    if isinstance(kind, str):
        u0 = _predator_prey_state(kind)
        reaction = PredatorPreyCase(sign_variant=kind).reaction()
        f, dfdu = _written_out_predator_prey(kind)
        rhs = coeff * u0 - f(u0) + 10.0 ** log_kick * rng.standard_normal(u0.shape)
    else:
        n, m = 12, kind
        gain = rng.standard_normal((n, m, m))
        weight = 0.1 * rng.uniform(0.0, 1.0, (n, 1)) * cubic
        node = rng.integers(0, n, 2)
        if singular:
            gain[node[0]], weight[node[0]] = coeff * np.eye(m), 0.0
        if nan:
            gain[node[1], 0, -1] = np.nan

        def f(u):
            return np.einsum("...ij,...j->...i", gain, u) - weight * u**3

        def dfdu(u):
            return gain - (3.0 * weight * u * u)[..., np.newaxis] * np.eye(m)

        reaction = ReactionSystem(eval=lambda x, t, u: f(u), jacobian=lambda x, t, u: dfdu(u))
        u0, rhs = rng.standard_normal((n, m)), rng.standard_normal((n, m))

    def outcome(solve, *args):
        try:
            with np.errstate(all="ignore"):  # a cubic may overflow before it diverges
                return solve(*args).tobytes()
        except NewtonDivergence as err:
            return int(err.node), repr(err.residual)

    assert outcome(newton_point_solve, rhs, reaction, None, 0.0, coeff, u0) == outcome(
        _written_out_solve, rhs, f, dfdu, coeff, u0)


def test_predator_prey_calls_no_lapack_solve_and_m3_does(monkeypatch):
    # Predator-prey (m = 2) is solved in closed form and a u-independent f
    # (m = 3 here) by a division; a u-dependent m = 3 takes np.linalg.solve.
    calls = []
    original = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    row, _ = run_predator_prey(PredatorPreyCase(), 64, 2.0, n_steps=20)
    assert row.stable and calls == []
    rhs = np.full((9, 3), 0.5)
    newton_point_solve(rhs, source_reaction(lambda x, t: 1.0), None, 0.0, 3.0, np.zeros((9, 3)))
    assert calls == []
    newton_point_solve(rhs, _atan_reaction(3.0, 3), None, 0.0, 3.0, rhs / 3.0)
    assert len(calls) >= 1


def test_step_on_unit_columns_equals_the_column_by_column_steps(monkeypatch):
    # One step of u-independent f on the 2(N + 1) unit columns (u^n, u^{n-1})
    # = (e_j, 0) and (0, e_j) yields the step's two linear maps at once; each
    # column is a field of its own, and none of them reaches LAPACK.
    def no_lapack(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    grid = make_grid_1d(64)
    dt = ratio_to_dt(4.0, grid.h)
    eye, zeros = np.eye(65), np.zeros((65, 65))
    u_curr, u_prev = Field(grid, np.hstack([eye, zeros])), Field(grid, np.hstack([zeros, eye]))
    wide = step(u_curr, u_prev, zero_reaction(), 0.0, dt, (0.0, 0.0)).values
    columns = [step(Field(grid, u_curr.values[:, [j]]), Field(grid, u_prev.values[:, [j]]),
                    zero_reaction(), 0.0, dt, (0.0, 0.0)).values for j in range(130)]
    assert wide.tobytes() == np.hstack(columns).tobytes()
