"""Two-step semi-implicit scheme: stencil, Newton solve, startup, stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfilter.bench import integrate, manufactured_heat_case, ratio_to_dt
from rdfilter.core import (
    Field,
    ReactionSystem,
    interior_nodes,
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    zero_reaction,
)
from rdfilter.stepper import (
    NewtonDivergence,
    apply_laplacian,
    estimate_uxx_nodes,
    newton_point_solve,
    recurrence_roots,
    step,
)
from rdfilter.shift import cosine_trend


def linear_reaction(lam, m=1):
    return ReactionSystem(
        m=m,
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


def test_newton_zero_reaction_closed_form():
    coeff = 3.0 / (2.0 * 0.2)
    rhs = np.array([[1.0], [2.5], [-0.3]])
    u = newton_point_solve(rhs, zero_reaction(), np.zeros(3), 0.0, coeff, np.zeros((3, 1)))
    assert np.allclose(u, rhs * (2.0 * 0.2 / 3.0), atol=1e-14)


def test_newton_linear_decay_closed_form():
    # f(u) = -u, c = 15: (15 + 1) u = rhs
    rhs = np.array([[2.0], [8.0]])
    u = newton_point_solve(rhs, linear_reaction(-1.0), np.zeros(2), 0.0, 15.0, rhs / 15.0)
    assert np.allclose(u, rhs / 16.0, atol=1e-14)


def test_newton_linear_converges_in_one_update():
    # linear residual: a single Newton update lands on the solution exactly
    calls = []
    base = linear_reaction(-1.0)
    reaction = ReactionSystem(m=1, eval=base.eval,
                              jacobian=lambda x, t, u: calls.append(1) or base.jacobian(x, t, u))
    rhs = np.array([[5.0]])
    u = newton_point_solve(rhs, reaction, np.zeros(1), 0.0, 15.0, np.array([[123.0]]))
    assert abs(u[0, 0] - 5.0 / 16.0) < 1e-12
    assert len(calls) == 1


def test_newton_cubic_against_bisection():
    # f(u) = -u^3, c = 3: solve 3u + u^3 = 1
    cubic = ReactionSystem(
        m=1,
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
        m=1,
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
        m=m, eval=lambda x, t, u: -lam * (u - column(x, t)) + case.source(x, t)[:, np.newaxis],
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
        m=m, eval=lambda x, t, u: u @ coupling.T,
        jacobian=lambda x, t, u: np.broadcast_to(coupling, u.shape + (m,)))
    bc = (0.3, -0.7) if shape == "1d" else {k: 0.2 for k in ("g0", "gpi", "h0", "hpi")}
    got = step(u_curr, u_prev, reaction, 0.5, dt, bc).values
    rhs = ((4.0 * u_curr.values - u_prev.values) / (2.0 * dt)
           + 2.0 * apply_laplacian(u_curr.values) - apply_laplacian(u_prev.values))
    inner = (slice(1, -1),) * len(grid.node_shape)
    want = newton_point_solve(rhs[inner], reaction, interior_nodes(grid), 0.5 + dt,
                              3.0 / (2.0 * dt), u_curr.values[inner])
    assert np.max(np.abs(got[inner] - want)) <= 1e-13 * np.max(np.abs(want))


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
    uxx = estimate_uxx_nodes(u, u, u, zero_reaction(), 0.01, 0.01, [0, 64])
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

    uxx0, uxxpi = estimate_uxx_nodes(
        u_at(3 * dt), u_at(2 * dt), u_at(dt), zero_reaction(), dt, 3 * dt, [0, 128]
    )
    # u_t = -exp(-t) sin(x) -> 0 at both ends, so u_xx estimate ~ u_t - f = 0
    assert abs(uxx0[0]) < 1e-6 and abs(uxxpi[0]) < 1e-6
