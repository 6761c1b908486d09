"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Each test prints "PASS criterion N: ..." (or FAIL) so the gate's verdict is
readable straight off the pytest -v output.
"""

import numpy as np

from rdfilter.core import Field, laplacian_symbol, make_grid_1d, \
    make_grid_2d, zero_reaction
from rdfilter.bench import (
    PredatorPreyCase,
    integrate,
    manufactured_heat_case,
    manufactured_heat_case_square,
    ode_orbit_check,
    quadratic_manufactured_case,
    ratio_to_dt,
    run_accuracy_sweep,
    run_case,
    run_dd_study,
    run_predator_prey,
)
from rdfilter.ddm import make_layout
from rdfilter.filtering import (
    filter_factors,
    kappa_critical,
    postprocess_field,
    sigma8,
)
from rdfilter.stepper import recurrence_roots


def _verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _perturbed_heat_run(ratio, n, n_steps, filter_on, kappa_fraction=1.0):
    grid = make_grid_1d(n)
    dt = ratio_to_dt(ratio, grid.h)
    u0 = Field(grid, 1e-6 * np.sin((n - 1) * grid.nodes))
    return integrate(zero_reaction(), grid, dt, n_steps, lambda t: (0.0, 0.0),
                     u0, filter_on=filter_on, kappa_fraction=kappa_fraction)


def test_criterion_1_unfiltered_stability_limit():
    ok_below = _perturbed_heat_run(0.9, 64, 2000, filter_on=False).stable
    above = _perturbed_heat_run(1.2, 64, 2000, filter_on=False)
    ok = ok_below and not above.stable
    _verdict(1, ok, f"ratio 0.9 stable={ok_below}, "
                    f"ratio 1.2 blew up at step {above.steps}")


def test_criterion_2_filtered_stability_extension():
    grid = make_grid_1d(64)
    details = []
    ok = True
    for ratio in (2.0, 4.0, 8.0):
        out = _perturbed_heat_run(ratio, 64, 2000, filter_on=True)
        dt = ratio_to_dt(ratio, grid.h)
        kappa = kappa_critical(dt, grid.h)
        roots_ok = True
        factors = filter_factors(64, kappa)
        for k in range(1, 64):
            if factors[k - 1] > 1e-12:
                r = recurrence_roots(dt, laplacian_symbol(grid.h, k))
                roots_ok &= bool(np.max(np.abs(r)) <= 1.0 + 1e-12)
        ok &= out.stable and roots_ok
        details.append(f"ratio {ratio:g}: stable={out.stable} roots<=1={roots_ok}")
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_filter_correctness():
    import mpmath as mp

    vals_ok = (abs(sigma8(0.0) - 1.0) < 1e-14 and abs(sigma8(1.0)) < 1e-14
               and abs(sigma8(0.5) - 0.5) < 1e-14)
    mp.mp.dps = 60

    def sig(xi):
        y = (1 + mp.cos(mp.pi * xi)) / 2
        return (35 - 84 * y + 70 * y**2 - 20 * y**3) * y**4

    deriv_ok = all(abs(mp.diff(sig, mp.mpf(0), l)) < 1e-6 for l in range(1, 8))

    dense_ok = True
    for n in (8, 12, 16):
        grid = make_grid_1d(n)
        rng = np.random.default_rng(100 + n)
        v = rng.normal(size=n + 1)
        v[0] = v[-1] = 0.0
        kappa = 1.6
        got = postprocess_field(Field(grid, v), kappa).values[:, 0]  # zero ends: no shift
        x2 = np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False)
        w = np.concatenate([v, -v[-2:0:-1]])
        want = np.zeros(n + 1)
        for k in range(1, n):
            ck = np.sum(w * np.exp(-1j * k * x2)) / (2 * n)
            want += sigma8(kappa * k / n) * 2.0 * np.real(
                ck * np.exp(1j * k * grid.nodes))
        dense_ok &= bool(np.max(np.abs(got - want)) < 1e-12)

    ok = vals_ok and deriv_ok and dense_ok
    _verdict(3, ok, f"values={vals_ok} derivatives(1..7)@0={deriv_ok} "
                    f"dense-sum<=1e-12={dense_ok}")


def test_criterion_4_spatial_second_order():
    case = manufactured_heat_case()
    rows = run_accuracy_sweep(case, [32, 64], [0.3], [1], T=1.0)
    by_n = {r.N: r for r in rows}
    ratio = by_n[32].err_linf / by_n[64].err_linf
    ok = all(r.stable for r in rows) and 3.5 <= ratio <= 4.5
    _verdict(4, ok, f"err(32)/err(64) = {ratio:.3f} in [3.5, 4.5]")


def test_criterion_5_temporal_second_order():
    # spatially exact quadratic profile isolates the error in dt
    case = quadratic_manufactured_case()
    rows = run_accuracy_sweep(case, [256], [0.5, 1.0, 2.0], [3], T=1.0)
    stable = all(r.stable for r in rows)
    errs = sorted((r.dt, r.err_linf) for r in rows)
    orders = [np.log2(errs[i + 1][1] / errs[i][1]) for i in range(len(errs) - 1)]
    ok = stable and all(1.8 <= p <= 2.2 for p in orders)
    _verdict(5, ok, f"stable={stable} observed orders {[f'{p:.2f}' for p in orders]}")


def test_criterion_6_third_order_shift_superiority():
    case = manufactured_heat_case()
    ratios = [2.0, 3.0, 4.0, 6.0, 8.0]
    rows = run_accuracy_sweep(case, [64], ratios, [1, 3], T=1.0)
    by = {(r.ratio, r.shift_order): r for r in rows}
    both = [r for r in ratios if by[(r, 1)].stable and by[(r, 3)].stable]
    largest = max(both) if both else None
    ok = largest is not None and \
        by[(largest, 3)].err_linf <= by[(largest, 1)].err_linf
    detail = "no mutually stable ratio" if largest is None else (
        f"ratio {largest:g}: shift3 err {by[(largest, 3)].err_linf:.4g} <= "
        f"shift1 err {by[(largest, 1)].err_linf:.4g}")
    _verdict(6, ok, detail)


def test_criterion_7_predator_prey_positivity_and_steady_state():
    cycle = ode_orbit_check(PredatorPreyCase())
    row, traj = run_predator_prey(PredatorPreyCase(), 64, 2.0, n_steps=2000)
    positive = row.stable and traj["min_u"] >= 0.0 and traj["min_v"] >= 0.0
    _, steady = run_predator_prey(PredatorPreyCase(excited=False), 64, 8.0,
                                  n_steps=20000)
    settles = steady["final_update"] < 1e-6
    ok = cycle and positive and settles
    _verdict(7, ok, f"ODE cycle={cycle} min(u)={traj['min_u']:.3g} "
                    f"min(v)={traj['min_v']:.3g} steady update="
                    f"{steady['final_update']:.3g}")


def test_criterion_8_dd_overlap_monotonicity():
    rows = run_dd_study(128, 4, (4, 8, 16))
    ladder = [r.ratio for r in rows[1:]]
    monotone = all(a <= b + 1e-9 for a, b in zip(ladder, ladder[1:]))

    # N_d = 1 pipeline matches the single-domain pipeline to 1e-12
    grid = make_grid_1d(128)
    rng = np.random.default_rng(8)
    vals = np.sin(np.outer(grid.nodes, np.arange(1, 20))) @ rng.normal(size=19)
    vals += 0.5 + 0.25 * np.cos(grid.nodes)
    u = Field(grid, vals)
    kappa = 3.0
    diff = np.max(np.abs(
        postprocess_field(u, kappa, layout=make_layout(grid, 1, 8)).values
        - postprocess_field(u, kappa).values))
    ok = monotone and diff < 1e-12
    _verdict(8, ok, f"max ratios {[f'{r:.2f}' for r in ladder]} monotone={monotone}, "
                    f"N_d=1 mismatch {diff:.2e}")


def test_criterion_9_2d_stability_beyond_explicit_limit():
    n = 32
    grid = make_grid_2d(n, n)
    dt = 2.0 * grid.hx**2 / 6.0
    _, out = run_case(manufactured_heat_case_square(), grid, dt, 500)
    x, y = grid.nodes_x, grid.nodes_y

    # boundary preservation: postprocess output edges equal the traces filtered in 1D
    X, Y = np.meshgrid(x, y, indexing="ij")
    u = Field(grid, np.cos(X) * np.cos(Y) + 0.05 * np.sin(2 * X) * np.sin(3 * Y))
    kappa = 2.0
    post = postprocess_field(u, (kappa, kappa)).values
    trace = lambda edge: postprocess_field(Field(make_grid_1d(n), u.values[edge]), kappa).values
    edges_ok = (np.array_equal(post[:, 0], trace(np.s_[:, 0]))
                and np.array_equal(post[0, :], trace(np.s_[0, :])))
    ok = out.stable and edges_ok
    _verdict(9, ok, f"stable at dt=2*(h^2/6) for 500 steps={out.stable}, "
                    f"edges exact={edges_ok}")


def test_criterion_10_step_function_decay_rates():
    jump = np.pi / 2
    y = np.linspace(0.0, 2.0 * np.pi, 4001, endpoint=False)
    d = np.minimum(np.abs(y - jump), 2.0 * np.pi - np.abs(y - jump))
    exact = (np.pi - np.mod(y - jump, 2.0 * np.pi)) / 2.0
    far = d >= 1.0
    far_err = []
    near_ok = True
    for n in (64, 128, 256):
        k = np.arange(1, n)[:, np.newaxis]
        filtered = np.sum(sigma8(k / n) * np.sin(k * (y - jump)) / k, axis=0)
        err = np.abs(filtered - exact)
        far_err.append(np.max(err[far]))
        near_ok &= bool(np.max(err[d <= 2 * np.pi / n]) > 0.1)
    orders = np.log2(np.array(far_err[:-1]) / np.array(far_err[1:]))
    ok = near_ok and bool(np.all(orders >= 6.0))
    _verdict(10, ok, f"far-field orders {[f'{p:.2f}' for p in orders]} >= 6, "
                     f"O(1) at jump={near_ok}")
