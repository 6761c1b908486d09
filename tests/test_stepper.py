"""Two-step semi-implicit scheme: stencil, Newton solve, startup, stability."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfilter import stepper
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
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    read_only,
    source_reaction,
    zero_reaction,
)
from rdfilter.ddm import make_layout
from rdfilter.stepper import (
    NewtonDivergence,
    apply_laplacian,
    estimate_uxx,
    newton_point_solve,
    recurrence_roots,
    step,
)
from rdfilter.shift import cosine_trend


def linear_reaction(lam, m=1):
    return ReactionSystem(
        eval=lambda x, t, u: lam * u,
        jacobian=lambda x, t, u: lam * np.broadcast_to(np.eye(m), u.shape + (m,)),
    )


def test_scheme_state_rejects_a_nonpositive_dt():
    # the step checks the dt it is given, on the startup step too
    u = Field.zeros(make_grid_1d(8))
    for dt in (-1.0, 0.0):
        for u_prev in (u, None):
            with pytest.raises(ValueError):
                step(u, u_prev, zero_reaction(), 0.0, dt, (0.0, 0.0))


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
def test_scheme_state_rejects_a_dt_that_is_not_finite_by_name(dt):
    # a NaN dt used to pass the dt <= 0 check and surface as "Newton diverged at node 0"
    u = Field.zeros(make_grid_1d(16))
    with pytest.raises(ValueError, match="^dt: must be finite and positive"):
        step(u, u, zero_reaction(), 0.0, dt, (0.0, 0.0))


@pytest.mark.parametrize("u_prev", [Field.zeros(make_grid_1d(32)), Field.zeros(make_grid_2d(16)),
                                    Field.zeros(make_grid_1d(16), 2)],
                         ids=["other_1d_grid", "2d_grid", "other_m"])
def test_step_rejects_a_u_prev_unlike_u_curr_by_name(u_prev):
    u_curr = Field.zeros(make_grid_1d(16))
    with pytest.raises(ValueError, match="^u_prev: must share u_curr's grid and component"):
        step(u_curr, u_prev, zero_reaction(), 0.0, 1e-3, (0.0, 0.0))


_GRID = make_grid_1d(16)
_LEVEL, _LEVEL_2D = Field.zeros(_GRID), Field.zeros(make_grid_2d(16))
_EDGES = {k: 0.0 for k in ("g0", "gpi", "h0", "hpi")}


def _estimate(u_curr=_LEVEL, u_prev=_LEVEL, dt=1e-3):
    return estimate_uxx(_LEVEL, u_curr, u_prev, zero_reaction(), dt, 0.0)


def _step(u, bc):
    return step(u, u, zero_reaction(), 0.0, 1e-3, bc)


# (call, the start of its message): each input is rejected naming its key
_REJECTED = {
    "estimate_dt_zero": (lambda: _estimate(dt=0.0), "dt: must be finite and positive"),
    "estimate_dt_nan": (lambda: _estimate(dt=float("nan")), "dt: must be finite and positive"),
    "estimate_dt_inf": (lambda: _estimate(dt=float("inf")), "dt: must be finite and positive"),
    "estimate_u_curr_other_grid": (lambda: _estimate(u_curr=Field.zeros(make_grid_1d(32))),
                                   "u_curr: must share u_next's grid"),
    "estimate_u_prev_2d_grid": (lambda: _estimate(u_prev=_LEVEL_2D),
                                "u_prev: must share u_next's grid"),
    "estimate_u_prev_other_m": (lambda: _estimate(u_prev=Field.zeros(_GRID, 2)),
                                "u_prev: must share u_next's grid"),
    "step_bc_one_value": (lambda: _step(_LEVEL, (0.0,)), "bc: must be the .left, right. "),
    "step_bc_three_values": (lambda: _step(_LEVEL, (0.0, 0.0, 0.0)),
                             "bc: must be the .left, right. "),
    "step_bc_scalar": (lambda: _step(_LEVEL, 0.0), "bc: must be the .left, right. "),
    "step_bc_2d_without_gpi": (lambda: _step(_LEVEL_2D, {k: v for k, v in _EDGES.items()
                                                         if k != "gpi"}),
                               "bc: must map each edge .* has no 'gpi'"),
    "step_bc_2d_pair": (lambda: _step(_LEVEL_2D, (0.0, 0.0)), "bc: must map each edge"),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_stepper_rejects_an_input_by_its_name(case):
    # each used to pass or fail unnamed: dt = 0 warned and returned inf, a NaN
    # dt a NaN field, a level on another grid raised a bare broadcast error; a
    # bc of one value "not enough values to unpack", a 2D bc without an edge
    # KeyError: 'gpi'
    call, message = _REJECTED[case]
    with pytest.raises(ValueError, match="^" + message):
        call()


def test_step_follows_the_state_dt():
    # two steps from the same levels that differ in dt alone step differently
    grid = make_grid_1d(16)
    u = Field(grid, np.sin(grid.nodes))
    steps = [step(u, u, zero_reaction(), 0.0, dt, (0.0, 0.0)).values
             for dt in (1.0e-3, 1.0e-2)]
    assert not np.array_equal(steps[0], steps[1])
    lam = laplacian_symbol(grid.h, 1)
    for dt, got in zip((1.0e-3, 1.0e-2), steps):  # (4 - 1 + 2 dt lam) / 3 on sin(x)
        want = (3.0 + 2.0 * dt * lam) / 3.0 * np.sin(grid.nodes)
        assert np.max(np.abs(got[:, 0] - want)) < 1e-12


def test_dxx_annihilates_constants_and_linears():
    grid = make_grid_1d(4)
    c = apply_laplacian(np.full((5, 1), 3.7))
    assert np.all(c[1:-1] == 0.0)
    lin = apply_laplacian(grid.nodes[:, np.newaxis])
    assert np.max(np.abs(lin[1:-1])) < 1e-12


def test_dxx_sine_eigenfunction():
    grid = make_grid_1d(32)
    for k in (1, 3, 7):
        u = Field(grid, np.sin(k * grid.nodes))
        out = apply_laplacian(u.values)[1:-1, 0]
        want = laplacian_symbol(grid.h, k) * np.sin(k * grid.nodes[1:-1])
        assert np.max(np.abs(out - want)) < 1e-9 * abs(laplacian_symbol(grid.h, k))


def _sliced_laplacian(u):
    # the oracle: per axis (u[i-1] - 2 u[i] + u[i+1]) / h^2 on the interior
    # slices, axis 0 summed first, boundary nodes 0
    inner = (slice(1, -1),) * (u.ndim - 1)
    total = None
    for axis in range(u.ndim - 1):
        h = np.pi / (u.shape[axis] - 1)
        below = inner[:axis] + (slice(None, -2),) + inner[axis + 1:]
        above = inner[:axis] + (slice(2, None),) + inner[axis + 1:]
        term = (u[below] - 2.0 * u[inner] + u[above]) / h**2
        total = term if total is None else total + term
    out = np.zeros_like(u)
    out[inner] = total
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(2, 40), n_y=st.integers(2, 40),
       dims=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]), transposed=st.booleans())
def test_flat_stride_laplacian_is_the_sliced_form_bit_for_bit(seed, n_x, n_y, dims, m,
                                                              transposed):
    # in 2D a transposed view is a non-contiguous input; values span 20
    # decades, so a changed order of operations shows in the bits
    rng = np.random.default_rng(seed)
    shape = (n_x + 1, m) if dims == 1 else (n_x + 1, n_y + 1, m)
    if transposed and dims == 2:
        shape = (n_y + 1, n_x + 1, m)
    u = rng.normal(size=shape) * 10.0 ** rng.integers(-10, 10, size=shape)
    if transposed and dims == 2:
        u = u.swapaxes(0, 1)
        assert not u.flags.c_contiguous
    got = apply_laplacian(u)
    assert got.shape == u.shape
    assert np.array_equal(got, _sliced_laplacian(u))
    edges = [got[[0, -1]]] + ([got[:, [0, -1]]] if dims == 2 else [])
    assert all(np.all(e == 0.0) for e in edges)


def _stiff_cubic():
    return ReactionSystem(eval=lambda x, t, u: -u - u**3,
                          jacobian=lambda x, t, u: (-1.0 - 3.0 * u**2)[..., np.newaxis])


@pytest.mark.parametrize("u_independent", [True, False])
def test_newton_solve_writes_into_no_input(u_independent):
    # the solve forms its residual and update in place, in its own buffers
    rng = np.random.default_rng(3)
    rhs, initial = read_only(rng.normal(size=(9, 1))), read_only(rng.normal(size=(9, 1)))
    kept = rhs.copy(), initial.copy()
    reaction = source_reaction(lambda x, t: 0.3) if u_independent else _stiff_cubic()
    out = newton_point_solve(rhs, reaction, np.zeros(9), 0.0, 40.0, initial)
    assert np.array_equal(rhs, kept[0]) and np.array_equal(initial, kept[1])
    assert out.flags.writeable and out.shape == rhs.shape
    assert not (np.shares_memory(out, rhs) or np.shares_memory(out, initial))


@pytest.mark.parametrize("shape", ["1d", "2d"])
@pytest.mark.parametrize("u_independent", [True, False])
@pytest.mark.parametrize("startup", [True, False])
def test_step_writes_into_no_time_level(shape, u_independent, startup):
    # the extrapolation and the right-hand side are built in place, in new arrays
    rng = np.random.default_rng(5)
    grid = make_grid_1d(16) if shape == "1d" else make_grid_2d(12, 8)
    bc = (0.3, -0.7) if shape == "1d" else {k: 0.2 for k in ("g0", "gpi", "h0", "hpi")}
    u_curr, u_prev = (Field(grid, read_only(rng.normal(size=grid.node_shape + (1,))))
                      for _ in range(2))
    assert not u_curr.values.flags.writeable
    kept = u_curr.values.copy(), u_prev.values.copy()
    reaction = source_reaction(lambda x, t: 0.3) if u_independent else _stiff_cubic()
    out = step(u_curr, None if startup else u_prev, reaction, 0.0, 1e-3, bc)
    assert np.array_equal(u_curr.values, kept[0]) and np.array_equal(u_prev.values, kept[1])
    assert out.values.flags.writeable
    assert not any(np.shares_memory(out.values, v.values) for v in (u_curr, u_prev))


def _peak_in_arrays(call, like: np.ndarray) -> float:
    # the allocation peak of one call, after a warm-up call, in units of u's
    # array size; tracemalloc sees NumPy's data buffers
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / like.nbytes


def test_2d_laplacian_and_step_make_few_temporaries():
    # 129 x 129, with a constant source, so that the scheme's own arrays are
    # counted: the sliced Laplacian peaked at 3.91 arrays, a step at 5.91 and
    # a startup step at 5.41.  In place the Laplacian holds its output and
    # the y term (1.99), and either step 4.44: the old Laplacian, or the
    # Newton update u - residual / c (5.41), takes it over its cap
    g = make_grid_2d(128)
    rng = np.random.default_rng(0)
    u_curr, u_prev = (Field(g, rng.normal(size=g.node_shape)) for _ in range(2))
    bc = manufactured_heat_case_square().boundary(0.01, grid=g)
    reaction = source_reaction(lambda x, t: 0.3)
    assert _peak_in_arrays(lambda: apply_laplacian(u_curr.values), u_curr.values) <= 2.0
    for level in (u_prev, None):
        assert _peak_in_arrays(lambda: step(u_curr, level, reaction, 0.0, 1e-4, bc),
                               u_curr.values) <= 5.0


def test_newton_zero_reaction_closed_form():
    coeff = 3.0 / (2.0 * 0.2)
    rhs = np.array([[1.0], [2.5], [-0.3]])
    u = newton_point_solve(rhs, zero_reaction(), np.zeros(3), 0.0, coeff, np.zeros((3, 1)))
    assert np.allclose(u, rhs * (2.0 * 0.2 / 3.0), atol=1e-14)
    # from the solution no update is taken, and the guess comes back as a new array
    again = newton_point_solve(rhs, zero_reaction(), np.zeros(3), 0.0, coeff, u)
    assert not np.shares_memory(again, u) and again.tobytes() == u.tobytes()


def test_newton_linear_decay_closed_form():
    # f(u) = -u, c = 15: (15 + 1) u = rhs
    rhs = np.array([[2.0], [8.0]])
    u = newton_point_solve(rhs, linear_reaction(-1.0), np.zeros(2), 0.0, 15.0, rhs / 15.0)
    assert np.allclose(u, rhs / 16.0, atol=1e-14)


def test_newton_linear_converges_in_one_update():
    # linear residual: a single Newton update lands on the solution exactly
    calls = []
    base = linear_reaction(-1.0)
    reaction = ReactionSystem(eval=base.eval,
                              jacobian=lambda x, t, u: calls.append(1) or base.jacobian(x, t, u))
    rhs = np.array([[5.0]])
    u = newton_point_solve(rhs, reaction, np.zeros(1), 0.0, 15.0, np.array([[123.0]]))
    assert abs(u[0, 0] - 5.0 / 16.0) < 1e-12
    assert len(calls) == 1


def test_newton_cubic_against_bisection():
    # f(u) = -u^3, c = 3: solve 3u + u^3 = 1
    cubic = ReactionSystem(
        eval=lambda x, t, u: -(u**3),
        jacobian=lambda x, t, u: -3.0 * u[..., np.newaxis] ** 2,
    )
    u = newton_point_solve(np.array([[1.0]]), cubic, np.zeros(1), 0.0, 3.0, np.zeros((1, 1)))
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 3.0 * mid + mid**3 < 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(u[0, 0] - 0.5 * (lo + hi)) < 1e-12


def test_newton_divergence_reports_node():
    # c u - 1e8 u^2 = rhs with c = 1.5 has no real root at either node;
    # the one with the larger residual after the last update is reported
    hard = ReactionSystem(
        eval=lambda x, t, u: u**2 * 1e8,
        jacobian=lambda x, t, u: 2e8 * u[..., np.newaxis],
    )
    with pytest.raises(NewtonDivergence) as info:
        newton_point_solve(np.array([[1.0], [50.0]]), hard, np.zeros(2), 0.0, 1.5,
                           np.array([[1.0], [1.0]]))
    assert info.value.node == 1


def _run_relaxation(lam, ratio, m, n_steps=10):
    """f = -lam (u - phi) + s on m decoupled copies, with phi and s of the
    manufactured heat case, so phi solves the PDE for every lam: N = 64,
    ``n_steps`` filtered steps.  Returns the outcome and its max error."""
    case, grid = manufactured_heat_case(), make_grid_1d(64)
    column = lambda x, t: case.exact(x, t)[:, np.newaxis]
    reaction = ReactionSystem(
        eval=lambda x, t, u: -lam * (u - column(x, t)) + case.source(x, t)[:, np.newaxis],
        jacobian=lambda x, t, u: np.broadcast_to(-lam * np.eye(m), u.shape + (m,)))
    bc = lambda t: (np.full(m, case.exact(0.0, t)), np.full(m, case.exact(np.pi, t)))
    u0 = Field(grid, np.tile(column(grid.nodes, 0.0), (1, m)))
    dt = ratio_to_dt(ratio, grid.h)
    out = integrate(reaction, grid, dt, n_steps, bc, u0)
    return out, float(np.max(np.abs(out.field.values - column(grid.nodes, out.steps * dt))))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("ratio", [1.0, 4.0, 16.0])
@pytest.mark.parametrize("lam", [1e6, 1e7, 1e8])
def test_newton_converges_on_a_stiff_reaction(lam, ratio, m):
    # The residual is roundoff on terms of size lam |u|; a tolerance on the
    # scale coeff |u| alone raised NewtonDivergence at step 0 here, from
    # lam = 1e6 at ratio 16 on.  Stiffness costs no accuracy.
    out, err = _run_relaxation(lam, ratio, m)
    assert (out.stable, out.steps, out.failure) == (True, 10, None)
    assert err <= _run_relaxation(0.0, ratio, m)[1]


@settings(max_examples=30, deadline=None)
@given(log_lam=st.floats(0.0, 8.0), ratio=st.floats(0.25, 32.0), m=st.sampled_from([1, 2]))
def test_newton_converges_on_any_stiff_relaxation(log_lam, ratio, m):
    # lam log-uniform in [1, 1e8]: every draw takes 10 stable steps, no less accurate
    out, err = _run_relaxation(10.0**log_lam, ratio, m)
    assert (out.stable, out.steps, out.failure) == (True, 10, None)
    assert err <= _run_relaxation(0.0, ratio, m)[1]


def test_step_zero_fixed_point():
    grid = make_grid_1d(16)
    dt = 1e-3
    out = step(Field.zeros(grid), Field.zeros(grid), zero_reaction(), 0.0, dt, (0.0, 0.0))
    assert np.all(out.values == 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["1d", "2d"]),
       m=st.sampled_from([1, 2]), ratio=st.floats(0.25, 16.0))
def test_step_takes_the_laplacian_of_the_extrapolated_level(seed, shape, m, ratio):
    # L is linear, so step's one Laplacian L(2 u^n - u^{n-1}) is the scheme's
    # 2 L u^n - L u^{n-1}: the same Newton solve on that right-hand side, built
    # from two Laplacians, is the oracle
    rng = np.random.default_rng(seed)
    if shape == "1d":
        grid = make_grid_1d(int(rng.integers(4, 65)))
    else:
        grid = make_grid_2d(int(rng.integers(4, 25)), int(rng.integers(4, 25)))
    u_curr, u_prev = (Field(grid, rng.normal(size=grid.node_shape + (m,))) for _ in range(2))
    dt = ratio_to_dt(ratio, np.pi / (max(grid.node_shape) - 1))
    coupling = np.array([[-1.0, 0.5], [-0.5, -2.0]])[:m, :m]
    reaction = ReactionSystem(
        eval=lambda x, t, u: u @ coupling.T,
        jacobian=lambda x, t, u: np.broadcast_to(coupling, u.shape + (m,)))
    bc = (0.3, -0.7) if shape == "1d" else {k: 0.2 for k in ("g0", "gpi", "h0", "hpi")}
    got = step(u_curr, u_prev, reaction, 0.5, dt, bc).values
    rhs = ((4.0 * u_curr.values - u_prev.values) / (2.0 * dt)
           + 2.0 * apply_laplacian(u_curr.values) - apply_laplacian(u_prev.values))
    inner = (slice(1, -1),) * len(grid.node_shape)
    want = newton_point_solve(rhs[inner], reaction, interior_nodes(grid), 0.5 + dt,
                              3.0 / (2.0 * dt), u_curr.values[inner])
    assert np.max(np.abs(got[inner] - want)) <= 1e-13 * np.max(np.abs(want))


def test_predator_prey_newton_starts_from_the_extrapolation(monkeypatch):
    # predprey1d's benchmark run: 2 u^n - u^{n-1} is O(dt^2) from u^{n+1}, so
    # each two-level solve takes one update, 2 evaluations and 1 Jacobian;
    # the startup step, from u^0, takes 3 and 2
    counts = {"ode_rhs": 0, "ode_jacobian": 0}
    for name in counts:
        def counted(case, w, _name=name, _original=getattr(PredatorPreyCase, name)):
            counts[_name] += 1
            return _original(case, w)

        monkeypatch.setattr(PredatorPreyCase, name, counted)
    row, _ = run_predator_prey(PredatorPreyCase(), 256, 4.0, n_steps=1000)
    assert row.stable
    assert counts == {"ode_rhs": 3 + 2 * 999, "ode_jacobian": 2 + 999}


@pytest.mark.parametrize("m", [1, 2])
def test_newton_takes_an_exact_extrapolation_without_a_jacobian(m):
    # u = 1 + t at every node solves the scheme exactly with
    # f = 1 + (1 + t)^2 - u^2: the rate is 1 and L u = 0, and u is linear in
    # t, so 2 u^n - u^{n-1} is u^{n+1} and Newton stops before any update
    grid, dt, t = make_grid_1d(16), 0.01, 0.25
    jacobians = []
    reaction = ReactionSystem(
        eval=lambda x, t, u: 1.0 + (1.0 + t)**2 - u * u,
        jacobian=lambda x, t, u: jacobians.append(t) or -2.0 * u[..., np.newaxis] * np.eye(m))
    u_curr, u_prev = (Field(grid, np.full((17, m), 1.0 + s)) for s in (t, t - dt))
    out = step(u_curr, u_prev, reaction, t, dt, (1.0 + t + dt, 1.0 + t + dt))
    assert jacobians == []
    assert np.max(np.abs(out.values - (1.0 + t + dt))) <= 4e-16


@pytest.mark.parametrize("shape, m", [("1d", 1), ("1d", 2), ("2d", 1)])
def test_u_independent_step_starts_newton_from_u_n_whatever_u_prev(monkeypatch, shape, m):
    # a u-independent f is solved by one update, whose last bits follow the
    # guess: starting from u^n fixes the step's bytes whatever u^{n-1} is
    rng = np.random.default_rng(7)
    grid = make_grid_1d(32) if shape == "1d" else make_grid_2d(12, 16)
    inner = (slice(1, -1),) * len(grid.node_shape)
    source = rng.normal(size=(31, m)) if shape == "1d" else 0.3
    reaction = source_reaction(lambda x, t: source)
    bc = (0.3, -0.7) if shape == "1d" else {k: 0.2 for k in ("g0", "gpi", "h0", "hpi")}
    dt = ratio_to_dt(4.0, np.pi / 32)
    u_curr = Field(grid, rng.normal(size=grid.node_shape + (m,)))
    solves = []

    def recorded(rhs, reaction, x, t, coeff, initial):
        solves.append((rhs, x, t, coeff, initial))
        return newton_point_solve(rhs, reaction, x, t, coeff, initial)

    monkeypatch.setattr(stepper, "newton_point_solve", recorded)
    moved = 0
    for scale in (0.0, 1.0, 1e3):
        u_prev = Field(grid, u_curr.values + scale * rng.normal(size=u_curr.values.shape))
        got = step(u_curr, u_prev, reaction, 0.5, dt, bc).values
        rhs, x, t, coeff, initial = solves.pop()
        assert initial.tobytes() == u_curr.values[inner].tobytes()
        assert got[inner].tobytes() == newton_point_solve(
            rhs, reaction, x, t, coeff, u_curr.values[inner]).tobytes()
        extrapolated = (2.0 * u_curr.values - u_prev.values)[inner]
        moved += newton_point_solve(rhs, reaction, x, t, coeff, extrapolated).tobytes() != (
            got[inner].tobytes())
    assert moved  # the guess is seen in the bytes: this test can tell


def test_step_single_mode_recurrence_formula():
    # one step from unit sine amplitudes on mode k matches
    # (4*1 - 1 + 2 dt lam (2*1 - 1)) / 3
    grid = make_grid_1d(32)
    k = 5
    dt = 0.2 * grid.h**2
    lam = laplacian_symbol(grid.h, k)
    u = Field(grid, np.sin(k * grid.nodes))
    out = step(u, u, zero_reaction(), 0.0, dt, (0.0, 0.0))
    want = (4.0 - 1.0 + 2.0 * dt * lam * (2.0 - 1.0)) / 3.0
    assert np.max(np.abs(out.values[:, 0] - want * np.sin(k * grid.nodes))) < 1e-12


def test_recurrence_roots_predict_twenty_steps():
    grid = make_grid_1d(24)
    k = 4
    dt = 0.25 * grid.h**2
    lam = laplacian_symbol(grid.h, k)
    # start the recurrence from amplitudes a0 = 1, a1 = 1 + dt*lam (startup symbol)
    a_prev, a_curr = 1.0, 1.0 + dt * lam
    u_prev = Field(grid, a_prev * np.sin(k * grid.nodes))
    u_curr = Field(grid, a_curr * np.sin(k * grid.nodes))
    probe = np.argmax(np.abs(np.sin(k * grid.nodes)))
    for n in range(20):
        u_next = step(u_curr, u_prev, zero_reaction(), (n + 1) * dt, dt, (0.0, 0.0))
        a_next = (4.0 * a_curr - a_prev + 2.0 * dt * lam * (2.0 * a_curr - a_prev)) / 3.0
        got = u_next.values[probe, 0] / np.sin(k * grid.nodes[probe])
        assert abs(got - a_next) < 1e-10
        u_prev, u_curr = u_curr, u_next
        a_prev, a_curr = a_curr, a_next


def test_recurrence_roots_satisfy_polynomial():
    for dt, lam in [(0.01, -30.0), (0.05, -5.0), (1.0, -0.2)]:
        for z in recurrence_roots(dt, lam):
            val = 3.0 * z**2 - (4.0 + 4.0 * dt * lam) * z + (1.0 + 2.0 * dt * lam)
            assert abs(val) < 1e-10


def test_unfiltered_stability_threshold_by_root_scan():
    # all mode amplifications <= 1 iff dt < h^2 / 3
    grid = make_grid_1d(64)
    n = grid.n_intervals
    for ratio, want_stable in [(0.5, True), (0.99, True), (1.01, False), (2.0, False)]:
        dt = ratio * grid.h**2 / 3.0
        ok = all(np.max(np.abs(recurrence_roots(dt, laplacian_symbol(grid.h, k))))
                 <= 1.0 + 1e-12 for k in range(1, n))
        assert ok == want_stable, f"ratio {ratio}"


def test_startup_zero_and_sine_symbol():
    grid = make_grid_1d(32)
    dt = 0.3 * grid.h**2
    out = step(Field.zeros(grid), None, zero_reaction(), 0.0, dt, (0.0, 0.0))
    assert np.all(out.values == 0.0)
    k = 3
    lam = laplacian_symbol(grid.h, k)
    u0 = Field(grid, np.sin(k * grid.nodes))
    u1 = step(u0, None, zero_reaction(), 0.0, dt, (0.0, 0.0))
    want = (1.0 + dt * lam) * np.sin(k * grid.nodes)
    assert np.max(np.abs(u1.values[:, 0] - want)) < 1e-9


def test_startup_linear_reaction_closed_form():
    grid = make_grid_1d(16)
    lam = -2.5
    dt = 0.01
    u0 = Field(grid, np.sin(grid.nodes) + 0.2 * np.sin(3 * grid.nodes))
    u1 = step(u0, None, linear_reaction(lam), 0.0, dt, (0.0, 0.0))
    dxx0 = apply_laplacian(u0.values)
    want = (u0.values + dt * dxx0) / (1.0 - dt * lam)
    assert np.max(np.abs(u1.values[1:-1] - want[1:-1])) < 1e-10


def test_step_boundary_values_imposed():
    grid = make_grid_1d(16)
    dt = 1e-3
    u = Field(grid, np.sin(grid.nodes))
    out = step(u, u, zero_reaction(), 0.0, dt, (1.5, -2.0))
    assert out.values[0, 0] == 1.5 and out.values[-1, 0] == -2.0


def _order(errors):
    return [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def test_temporal_second_order_linear_reaction():
    # u_t = u_xx - u with exact solution exp(-2t) sin(x); a single sine mode
    # evolves as exp((lam - 1) t) in the semi-discrete limit, so comparing
    # against that isolates the time-discretization error
    grid = make_grid_1d(16)
    reaction = linear_reaction(-1.0)
    T = 0.25
    lam = laplacian_symbol(grid.h, 1)
    errors = []
    for n_steps in (64, 128, 256):
        dt = T / n_steps
        u_prev = Field(grid, np.sin(grid.nodes))
        u_curr = step(u_prev, None, reaction, 0.0, dt, (0.0, 0.0))
        for n in range(1, n_steps):
            u_prev, u_curr = u_curr, step(u_curr, u_prev, reaction, n * dt, dt, (0.0, 0.0))
        semi = np.exp((lam - 1.0) * T) * np.sin(grid.nodes)
        errors.append(np.max(np.abs(u_curr.values[:, 0] - semi)))
        exact = np.exp(-2.0 * T) * np.sin(grid.nodes)
        assert np.max(np.abs(u_curr.values[:, 0] - exact)) < 0.01
    for p in _order(errors):
        assert 1.8 <= p <= 2.2, f"temporal order {p}"


def test_spatial_second_order_linear_reaction():
    reaction = linear_reaction(-1.0)
    T = 0.1
    dt = 1e-4
    errors = []
    for n in (16, 32, 64):
        grid = make_grid_1d(n)
        u_prev = Field(grid, np.sin(grid.nodes))
        u_curr = step(u_prev, None, reaction, 0.0, dt, (0.0, 0.0))
        n_steps = round(T / dt)
        for i in range(1, n_steps):
            u_prev, u_curr = u_curr, step(u_curr, u_prev, reaction, i * dt, dt, (0.0, 0.0))
        exact = np.exp(-2.0 * T) * np.sin(grid.nodes)
        errors.append(np.max(np.abs(u_curr.values[:, 0] - exact)))
    for p in _order(errors):
        assert 1.8 <= p <= 2.2, f"spatial order {p}"


def test_shift3_zero_history():
    u = Field.zeros(make_grid_1d(64))
    uxx = estimate_uxx(u, u, u, zero_reaction(), 0.01, 0.01).values[[0, 64]]
    assert np.all(cosine_trend(u.values[[0, -1]], 64, 0, 64, uxx) == 0.0)


def test_estimate_uxx_matches_true_second_derivative():
    # pure diffusion, single mode: u^n = exp(lam t_n) sin(x) solves the
    # recurrence only approximately, so feed the exact PDE relation instead:
    # u^{n+1}, u^n, u^{n-1} sampled from u(x,t) = exp(-t) sin(x) + 2
    grid = make_grid_1d(128)
    dt = 1e-4
    x = grid.nodes

    def u_at(t):
        return Field(grid, np.exp(-t) * np.sin(x) + 2.0)

    uxx0, uxxpi = estimate_uxx(
        u_at(3 * dt), u_at(2 * dt), u_at(dt), zero_reaction(), dt, 3 * dt
    ).values[[0, 128]]
    # u_t = -exp(-t) sin(x) -> 0 at both ends, so u_xx estimate ~ u_t - f = 0
    assert abs(uxx0[0]) < 1e-6 and abs(uxxpi[0]) < 1e-6


def test_estimate_uxx_on_a_2d_field_approaches_the_laplacian_at_second_order():
    # three exact levels of u = cos(t) cos(2x) cos(y): the estimate is
    # u_t - s = lap u = -5 u up to the O(dt^2) error of the backward difference
    case = manufactured_heat_case_square()
    grid = make_grid_2d(32)
    t_next = 0.5
    lap = -5.0 * case.exact_field(grid, t_next).values
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        u_next, u_curr, u_prev = (case.exact_field(grid, t_next - k * dt) for k in range(3))
        uxx = estimate_uxx(u_next, u_curr, u_prev, case.reaction(), dt, t_next)
        assert uxx.grid == grid and uxx.m == 1
        errors.append(np.max(np.abs(uxx.values - lap)))
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("make_case", [manufactured_heat_case, quadratic_manufactured_case])
@pytest.mark.parametrize("n, n_subdomains", [(64, 1), (64, 3), (400, 1), (400, 3), (4096, 3)])
def test_estimate_uxx_matches_the_two_node_formula_at_the_strip_ends_bit_for_bit(
        make_case, n, n_subdomains):
    # the third-order shift reads the whole-field estimate at the strip ends;
    # it must equal the formula evaluated at those nodes alone, f included
    grid = make_grid_1d(n)
    ranges = make_layout(grid, n_subdomains, 8).ranges if n_subdomains > 1 else ((0, n),)
    ends = np.ravel(ranges)
    case = make_case()
    reaction, dt = case.reaction(), ratio_to_dt(4.0, grid.h)
    rng = np.random.default_rng(n + n_subdomains)
    for t_next in (2 * dt, 0.37, 1.0):
        noise = 1e-3 * rng.standard_normal((3, n + 1, 1))
        u_next, u_curr, u_prev = (case.exact_field(grid, t_next - k * dt).values + noise[k]
                                  for k in range(3))
        rate = (3.0 * u_next[ends] - 4.0 * u_curr[ends] + u_prev[ends]) / (2.0 * dt)
        two_node = rate - reaction.eval(grid.nodes[ends], t_next, u_next[ends])
        whole = estimate_uxx(*(Field(grid, v) for v in (u_next, u_curr, u_prev)),
                             reaction, dt, t_next)
        assert whole.values[ends].tobytes() == two_node.tobytes()
