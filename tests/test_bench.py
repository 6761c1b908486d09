"""Benchmark cases and experiment harness."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import re
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfilter import bench, filtering, stepper
from rdfilter.core import (
    ConfigError,
    Field,
    ReactionSystem,
    make_grid_1d,
    make_grid_2d,
    source_reaction,
    zero_reaction,
)
from rdfilter.bench import (
    ManufacturedCase,
    PredatorPreyCase,
    error_norms,
    integrate,
    manufactured_heat_case,
    manufactured_heat_case_square,
    quadratic_manufactured_case,
    ratio_to_dt,
    run_accuracy_sweep,
    run_dd_study,
    run_predator_prey,
)
from rdfilter.ddm import make_layout
from rdfilter.filtering import postprocess_field
from rdfilter.shift import ENDPOINT_MAX_COND, endpoint_matrix
from rdfilter.solver2d import kappa_critical_2d
from rdfilter.stepper import step

from oracles import ode_orbit_check, pde_residual

# u = 0 on the square: homogeneous Dirichlet data on a 2D grid
ZERO_2D = ManufacturedCase(lambda xy, t: 0.0 * (xy[0] + xy[1]), lambda xy, t: 0.0)


def test_manufactured_case_anchor_values():
    case = manufactured_heat_case()
    assert abs(case.exact(0.0, 0.0) - 1.0) < 1e-14
    assert abs(case.exact(np.pi, 0.0)) < 1e-14  # 1 + cos(3 pi) = 0
    left, right = case.boundary(0.3)
    assert abs(left - np.cos(0.3)) < 1e-14
    assert abs(right) < 1e-14


def test_manufactured_source_residual():
    case = manufactured_heat_case()
    x = np.linspace(0.2, 3.0, 9)
    for t in (0.0, 0.4, 1.7):
        assert np.max(np.abs(pde_residual(case, x, t))) < 1e-6


def test_manufactured_residual_high_precision():
    # u_t - u_xx - s vanishes analytically; confirmed well below 1e-10 with
    # arbitrary-precision differentiation (the float sampling above is limited
    # by finite-difference roundoff)
    import mpmath as mp

    mp.mp.dps = 40
    case = manufactured_heat_case()

    def u(x, t):
        return mp.cos(t) * ((x / mp.pi) ** 4 + mp.cos(3 * x))

    for xv, tv in [(mp.mpf("0.7"), mp.mpf("0.3")), (mp.mpf("2.1"), mp.mpf("1.1"))]:
        ut = mp.diff(lambda t: u(xv, t), tv)
        uxx = mp.diff(lambda x: u(x, tv), xv, 2)
        s = case.source(float(xv), float(tv))
        assert abs(float(ut - uxx) - s) < 1e-10


def test_quadratic_case_residual_and_stencil_exactness():
    case = quadratic_manufactured_case()
    x = np.linspace(0.2, 3.0, 9)
    assert np.max(np.abs(pde_residual(case, x, 0.7))) < 1e-5
    # the central second difference is exact on the quadratic profile
    grid = make_grid_1d(16)
    from rdfilter.stepper import apply_laplacian

    u = case.exact_field(grid, 0.0)
    dxx = apply_laplacian(u.values)[1:-1, 0]
    assert np.max(np.abs(dxx - (-2.0))) < 1e-10


def test_manufactured_2d_consistency():
    case = manufactured_heat_case_square()
    x = np.linspace(0.1, 3.0, 5)
    y = np.linspace(0.2, 2.9, 5)
    eps = 1e-5
    for t in (0.0, 0.8):
        ut = (case.exact((x, y), t + eps) - case.exact((x, y), t - eps)) / (2 * eps)
        uxx = (case.exact((x + eps, y), t) - 2 * case.exact((x, y), t)
               + case.exact((x - eps, y), t)) / eps**2
        uyy = (case.exact((x, y + eps), t) - 2 * case.exact((x, y), t)
               + case.exact((x, y - eps), t)) / eps**2
        s = case.reaction().eval((x, y), t, np.zeros((5, 1)))[:, 0]
        assert np.max(np.abs(ut - uxx - uyy - s)) < 1e-4


def test_error_norms():
    grid = make_grid_1d(64)
    u = Field(grid, np.sin(grid.nodes))
    zero = Field.zeros(grid)
    same = error_norms(u, u)
    assert same == (0.0, 0.0)
    l2, _ = error_norms(u, zero)
    assert abs(l2 - np.sqrt(np.pi / 2.0)) < 1e-3
    one = Field(grid, np.ones(65))
    assert error_norms(one, zero)[1] == 1.0
    # (17, 2) against (17, 1) values used to broadcast to a norm, in either order
    g16 = make_grid_1d(16)
    pair = Field(g16, np.ones((17, 2))), Field(g16, np.zeros((17, 1)))
    for a, b in (pair, pair[::-1]):
        with pytest.raises(ValueError, match=r"^reference: must share u's grid and component "
                           r"count, got values of shape \(17, [12]\) for \(17, [12]\)"):
            error_norms(a, b)


def test_error_norms_2d_weights_each_axis():
    # trapezoid weights hx (along x) times hy (along y); sin(x) sin(y) has
    # squared L2 norm pi^2 / 4 on the square
    grid = make_grid_2d(48, 32)
    X, Y = np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")
    u = Field(grid, np.sin(X) * np.sin(Y))
    l2, linf = error_norms(u, Field.zeros(grid))
    assert abs(l2 - np.pi / 2.0) < 1e-12 and linf == 1.0
    wx = np.full(49, grid.hx)
    wx[[0, -1]] *= 0.5
    wy = np.full(33, grid.hy)
    wy[[0, -1]] *= 0.5
    diff = np.cos(X) * Y
    want = np.sqrt(np.sum(wx[:, None] * wy[None, :] * diff**2))
    got = error_norms(Field(grid, diff), Field.zeros(grid))[0]
    assert abs(got - want) <= 1e-15 * want
    with pytest.raises(ValueError):
        error_norms(u, Field.zeros(make_grid_2d(48)))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dotted(node, aliases):
    """The rdfilter name an expression reads (``bench.step`` ->
    ``rdfilter.bench.step``), or None when it is rooted elsewhere."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return base and f"{base}.{node.attr}"
    return None


def _perfbench_uses():
    """What the benchmark's scripts read of rdfilter, as dotted names mapped
    to whether the last part must sit in its owner's own ``vars`` (read as
    ``vars(core.Grid1D)["nodes"]``), and the keywords they pass to each call."""
    names, keywords = {}, {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("rdfilter") for alias in node.names}
        for node in ast.walk(tree):
            name = _dotted(node, aliases)
            if name:
                names.setdefault(name, False)
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name) and node.value.func.id == "vars"
                    and isinstance(node.slice, ast.Constant)):
                owner = _dotted(node.value.args[0], aliases)
                if owner:
                    names[f"{owner}.{node.slice.value}"] = True
            if isinstance(node, ast.Call) and _dotted(node.func, aliases):
                keywords.setdefault(_dotted(node.func, aliases), set()).update(
                    k.arg for k in node.keywords if k.arg)
    return names, keywords


def _resolve(name: str, own: bool = False):
    """The object ``rdfilter.<module>.<attr>...`` names; AttributeError if absent."""
    package, module, *attrs = name.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for i, attr in enumerate(attrs, 1):
        if own and i == len(attrs) and attr not in vars(obj):
            raise AttributeError(f"{attr!r} is not in vars({obj.__name__})")
        obj = getattr(obj, attr)
    return obj


def test_perfbench_workload_names_resolve():
    # every perfbench/*.py counts: test_smoke.py reads bench.step and
    # vars(core.Grid1D)["nodes"], workloads.py calls the bench drivers
    names, keywords = _perfbench_uses()
    assert {"rdfilter.bench.integrate_1d", "rdfilter.bench.step",
            "rdfilter.core.Field.blown_up"} <= set(names)
    assert names["rdfilter.core.Grid1D.nodes"] and names["rdfilter.core.ReactionSystem.__init__"]
    for name, own in sorted(names.items()):
        _resolve(name, own)
    for func, used in keywords.items():
        params = inspect.signature(_resolve(func)).parameters
        assert used <= set(params), f"{func} lacks {used - set(params)}"


def _perfbench_module(name: str):
    """A script of the benchmark, imported from its file under its own name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["heat1d_large", "predprey1d", "dd_ladder", "heat2d"])
def test_perfbench_traces_one_driver_span_per_trial(name):
    # the tracer wraps each driver by identity, under every name that holds
    # it: a driver that reached the step loop through another driver's name
    # would nest two driver spans, count two trials and halve every us/step
    tracing, workloads = _perfbench_module("tracing"), _perfbench_module("workloads")
    workload = workloads.make(name, "smoke")
    workload.setup(5)
    tracer = tracing.Tracer()
    with tracer:
        result = workload.solve()
    assert workload.verify(result)[1] == []
    spans = tracer.arrays()
    drivers = [tracer.span_names.index(d) for d in tracing.DRIVERS]
    is_driver = np.isin(spans["name"], drivers)
    parents = spans["parent"][is_driver]
    assert is_driver.any() and tracer.counts["bench.trials"] == is_driver.sum()
    assert not np.isin(spans["name"][parents[parents >= 0]], drivers).any()
    if name != "dd_ladder":
        assert tracer.counts["bench.trials"] == 1
        assert tracer.counts["bench.trial_steps"] == workload.config["n_steps"]


def test_ratio_to_dt():
    h = np.pi / 64
    assert abs(3.0 * ratio_to_dt(2.0, h) / h**2 - 2.0) < 1e-15


@pytest.mark.parametrize("h", [-1.0, 0.0, float("nan"), True])
def test_ratio_to_dt_rejects_an_h_that_is_not_finite_and_positive(h):
    # -1 used to return a positive dt, and NaN a NaN one
    with pytest.raises(ValueError, match="^h: must be finite and positive"):
        ratio_to_dt(1.0, h)


# Values no real-number test can take: each used to raise a TypeError, or an
# OverflowError, that named no key.
NOT_REAL = ["3", None, pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf"), True, np.True_]
                         + NOT_REAL)
def test_drivers_reject_a_ratio_that_is_not_finite_and_positive(ratio):
    # 0 used to raise ZeroDivisionError, -1 was blamed on T and NaN on dt;
    # True ran as 1.0
    for run in (lambda: run_accuracy_sweep(manufactured_heat_case(), [16], [ratio], [1]),
                lambda: run_predator_prey(PredatorPreyCase(), 16, ratio, 10)):
        with pytest.raises(ValueError, match="^ratio: must be finite and positive"):
            run()


def test_predator_prey_parameters_and_validation():
    case = PredatorPreyCase()
    assert (case.a, case.b, case.c, case.d) == (1.2, 1.0, 0.1, 0.2)
    assert [f.name for f in dataclasses.fields(case)] == ["base_level", "excited",
                                                          "sign_variant"]
    for level in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^base_level: must be finite and positive"):
            PredatorPreyCase(base_level=level)
    with pytest.raises(ValueError, match="^sign_variant: "):
        PredatorPreyCase(sign_variant="other")
    # only a bool is a flag: "3", NaN and 2.5 used to run on their truth
    for excited in ("3", float("nan"), 2.5, 1, None):
        with pytest.raises(ValueError, match="^excited: must be True or False"):
            PredatorPreyCase(excited=excited)
    for excited in (np.True_, np.False_):
        assert PredatorPreyCase(excited=excited).boundary(0.0)[0][0] == (
            PredatorPreyCase(excited=bool(excited)).boundary(0.0)[0][0])


def test_predator_prey_boundary_excitation():
    case = PredatorPreyCase(base_level=2.0)
    left, right = case.boundary(0.0)
    assert np.allclose(left, [4.0, 4.0]) and np.array_equal(left, right)  # (1 + cos 0)
    steady = PredatorPreyCase(excited=False)
    assert np.allclose(steady.boundary(1.3)[0], [1.0, 1.0])


def test_predator_prey_initial_is_the_boundary_value_at_every_node():
    grid = make_grid_1d(16)
    for case in (PredatorPreyCase(base_level=2), PredatorPreyCase(1.3, excited=False)):
        vals = case.initial(grid).values
        assert vals.shape == (17, 2)
        assert np.all(vals == case.boundary(0.0)[0])


def test_predator_prey_case_rejects_a_2d_grid_by_name():
    # the case is 1D only, while run_case takes either grid
    with pytest.raises(ValueError, match="^grid: the predator-prey case is 1D"):
        bench.run_case(PredatorPreyCase(), make_grid_2d(16), 0.01, 5)


def test_ode_oracle_classical_cycles_printed_does_not():
    assert ode_orbit_check(PredatorPreyCase(sign_variant="classical"))
    assert not ode_orbit_check(PredatorPreyCase(sign_variant="printed"))


def test_sweep_filter_nearly_inert_below_limit():
    # at ratio 0.5 the filter is inert: filtered and unfiltered errors agree
    # within a factor 2
    case = manufactured_heat_case()
    on = run_accuracy_sweep(case, [32], [0.5], [1], T=0.5, filter_on=True)
    off = run_accuracy_sweep(case, [32], [0.5], [1], T=0.5, filter_on=False)
    assert on[0].stable and off[0].stable
    assert np.isfinite(on[0].kappa) and np.isnan(off[0].kappa)  # no filter, no kappa
    assert on[0].err_l2 <= 2.0 * off[0].err_l2
    assert off[0].err_l2 <= 2.0 * on[0].err_l2


def test_sweep_error_plateaus_for_small_dt():
    # fixed N, shrinking dt: the scheme's error settles at the spatial O(h^2)
    # floor (filter off: per-step filtering otherwise keeps nibbling at the
    # solution's own high modes as the step count grows)
    case = manufactured_heat_case()
    rows = run_accuracy_sweep(case, [32], [0.2, 0.1, 0.05], [1], T=0.5,
                              filter_on=False)
    errs = [r.err_linf for r in rows]
    assert all(r.stable for r in rows)
    assert abs(errs[-1] - errs[-2]) <= 0.05 * errs[-2]


def test_sweep_third_order_shift_beats_first_at_large_ratio():
    case = manufactured_heat_case()
    ratios = [2.0, 4.0, 8.0]
    rows = run_accuracy_sweep(case, [64], ratios, [1, 3], T=0.5)
    by = {(r.ratio, r.shift_order): r for r in rows}
    stable_both = [r for r in ratios
                   if by[(r, 1)].stable and by[(r, 3)].stable]
    assert stable_both, "no mutually stable ratio"
    largest = max(stable_both)
    assert by[(largest, 3)].err_linf <= by[(largest, 1)].err_linf


def test_sweep_records_instability_instead_of_raising():
    case = manufactured_heat_case()
    rows = run_accuracy_sweep(case, [64], [1.2], [1], T=0.2, filter_on=False)
    assert len(rows) == 1 and not rows[0].stable
    assert np.isnan(rows[0].err_l2)


def test_sweep_rows_reproducible():
    case = manufactured_heat_case()
    a = run_accuracy_sweep(case, [32], [0.5, 2.0], [1], T=0.25)
    b = run_accuracy_sweep(case, [32], [0.5, 2.0], [1], T=0.25)
    for ra, rb in zip(a, b):
        da = dataclasses.asdict(ra)
        db = dataclasses.asdict(rb)
        da.pop("wall_ms")
        db.pop("wall_ms")
        assert da == db  # bit-for-bit, timing aside


def test_predator_prey_positivity_and_stability():
    row, traj = run_predator_prey(PredatorPreyCase(), 64, 2.0, n_steps=500)
    assert row.stable
    assert traj["min_u"] >= 0.0 and traj["min_v"] >= 0.0


def test_predator_prey_steady_state_with_constant_boundaries():
    case = PredatorPreyCase(excited=False)
    _, traj = run_predator_prey(case, 64, 8.0, n_steps=4000)
    assert traj["final_update"] < 1e-6


def test_integrate_1d_detects_blowup():
    from rdfilter.core import zero_reaction

    grid = make_grid_1d(64)
    dt = ratio_to_dt(1.2, grid.h)
    u0 = Field(grid, 1e-6 * np.sin(63 * grid.nodes))
    out = integrate(zero_reaction(), grid, dt, 2000, lambda t: (0.0, 0.0),
                    u0, filter_on=False)
    assert not out.stable and out.steps < 2000


def test_dd_study_structure():
    rows = run_dd_study(64, 2, (8,), resolution=0.5, n_steps=200)
    assert rows[0].n_subdomains == 1 and rows[0].ratio > 0.0
    assert rows[1].n_subdomains == 2 and rows[1].overlap == 8
    # overlap 8 < cap 16: not saturated
    assert rows[1].note == ""


def _fake_trial(monkeypatch, stable_below: float) -> list:
    """Replace the DD stability trial by an instant one, stable below a given
    ratio, that raises after 1,000 calls instead of letting a bisection hang."""
    calls = []

    def trial(grid, ratio, layout, n_steps):
        calls.append(ratio)
        if len(calls) > 1000:
            raise RuntimeError("the bisection did not end")
        return ratio < stable_below, n_steps

    monkeypatch.setattr(bench, "_dd_stability_trial", trial)
    return calls


@pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
def test_bisection_rejects_a_resolution_that_is_not_finite_and_positive(monkeypatch,
                                                                       resolution):
    calls = _fake_trial(monkeypatch, 3.0)
    for run in (lambda: bench.bisect_max_stable_ratio(make_grid_1d(32), None, resolution),
                lambda: run_dd_study(32, 2, (4,), resolution=resolution)):
        with pytest.raises(ValueError, match="^resolution: must be finite and positive"):
            run()
    assert calls == []


def test_bisection_ends_when_the_midpoint_reaches_an_end(monkeypatch):
    # below the spacing of doubles near 3, halving stops at the last double < 3
    calls = _fake_trial(monkeypatch, 3.0)
    last_stable = np.nextafter(3.0, 0.0)
    assert bench.bisect_max_stable_ratio(make_grid_1d(32), None, 1.0e-20) == last_stable
    assert len(calls) < 100
    rows = run_dd_study(32, 2, (4,), resolution=1.0e-20)
    assert [r.ratio for r in rows] == [last_stable, last_stable]


def _doubling_search(trial, resolution):
    """The search as it was before it started at the cap: double the ratio
    from 1 while the trials survive, then bisect the last bracket."""
    lo, hi = 0.0, 1.0
    while hi <= bench.RATIO_MAX and trial(hi):
        lo, hi = hi, hi * 2.0
    if hi > bench.RATIO_MAX:
        return lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if trial(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_the_ratio_cap_is_a_power_of_two():
    # halving from the cap tests the powers of two that doubling from 1 did
    mantissa, exponent = math.frexp(bench.RATIO_MAX)
    assert mantissa == 0.5 and exponent >= 1


@settings(max_examples=300, deadline=None)
@given(threshold=st.one_of(
           st.floats(math.log(0.01), math.log(256.0), exclude_min=True,
                     exclude_max=True).map(math.exp),
           st.sampled_from([2.0**k for k in range(-6, 9)])),
       inclusive=st.booleans(),
       resolution=st.floats(1.0e-3, 100.0))
def test_search_from_the_cap_returns_what_doubling_from_one_returned(threshold, inclusive,
                                                                    resolution):
    # any trial whose verdict is monotone in the ratio, stable strictly below
    # the threshold or at and below it
    def stable(ratio):
        return ratio <= threshold if inclusive else ratio < threshold

    calls = []

    def trial(grid, ratio, layout, n_steps):
        calls.append(ratio)
        assert len(calls) <= 1000, "the search did not end"
        return stable(ratio), n_steps

    with mock.patch.object(bench, "_dd_stability_trial", trial):
        got = bench.bisect_max_stable_ratio(make_grid_1d(32), None, resolution)
    assert got == _doubling_search(stable, resolution)
    assert calls[0] == bench.RATIO_MAX


def test_search_tries_the_cap_first_and_halves(monkeypatch):
    calls = _fake_trial(monkeypatch, 20.0)
    assert abs(bench.bisect_max_stable_ratio(make_grid_1d(32), None, 0.1) - 20.0) <= 0.1
    assert calls[:3] == [64.0, 32.0, 16.0]


def test_dd_ladder_answers_and_trial_counts(monkeypatch):
    # the real trials, counted: the same ratios as the doubling search, which
    # took 37 trials and 3,259 steps; each trial returns the steps it ran
    trials, steps = [], []
    real_trial = bench._dd_stability_trial

    def counted_trial(*args):
        trials.append(args[1])
        stable, ran = real_trial(*args)
        steps.append(ran)
        return stable, ran

    monkeypatch.setattr(bench, "_dd_stability_trial", counted_trial)
    rows = run_dd_study(128, 4, (4, 8), resolution=0.1, n_steps=100)
    assert [r.ratio for r in rows] == [64.0, 18.75, 39.1875]
    assert (len(trials), sum(steps)) == (23, 1771)


def _integrated_trial(grid, ratio, layout, n_steps):
    """The DD stability trial with every step run by ``integrate``: (stable, steps)."""
    x = grid.nodes
    u0 = Field(grid, np.sin(x) + 1.0e-6 * np.sin((grid.n_intervals - 1) * x))
    out = integrate(zero_reaction(), grid, ratio_to_dt(ratio, grid.h), n_steps,
                    lambda t: (0.0, 0.0), u0, layout=layout)
    return out.stable, out.steps


@pytest.mark.parametrize("overlaps, n_steps", [((4, 8), 100), ((4, 8, 16), 500)],
                         ids=["dd_ladder", "criterion_8"])
def test_assembled_dd_trial_stops_where_the_integrated_trial_stops(monkeypatch, overlaps,
                                                                   n_steps):
    # at every ratio the bisections try, on one domain and on the 4 strips of
    # the benchmark's ladder and of criterion 8, N = 128
    tried, real_trial = [], bench._dd_stability_trial

    def recorded(grid, ratio, layout, n):
        tried.append((grid, ratio, layout))
        return real_trial(grid, ratio, layout, n)

    monkeypatch.setattr(bench, "_dd_stability_trial", recorded)
    run_dd_study(128, 4, overlaps, resolution=0.1, n_steps=n_steps)
    assert len({layout for _, _, layout in tried}) == 1 + len(overlaps)
    for grid, ratio, layout in tried:
        assert (real_trial(grid, ratio, layout, n_steps)
                == _integrated_trial(grid, ratio, layout, n_steps)), (ratio, layout)


def test_assembled_dd_trial_on_two_strips_stops_within_three_steps_of_the_integrated_one():
    # Two strips with overlap 2 grow from the last bits of the interface nodes.
    # [A B] z rounds otherwise than the stencil, so the step at which the growth
    # passes the blow-up threshold may move by a few steps: 19 integrated, 21
    # assembled here.  Only the stopping step is compared.
    grid = make_grid_1d(64)
    layout = make_layout(grid, 2, 2)
    steps = bench._dd_stability_trial(grid, 64.0, layout, 100)[1]
    want_stable, want_steps = _integrated_trial(grid, 64.0, layout, 100)
    assert not want_stable and abs(steps - want_steps) <= 3


def test_assembled_dd_trial_assembles_in_small_blocks():
    # [A B] from one step on all 2 (N + 1) unit columns holds the 2 (N + 1)
    # square identity and several step arrays of its width at once (1.86 MB at
    # N = 128); 64 columns a call stay well under 1 MB at the largest N that
    # assembles
    grid = make_grid_1d(bench.DD_ASSEMBLED_MAX_N)
    layout = make_layout(grid, 4, 8)
    bench._dd_stability_trial(grid, 20.0, layout, 10)  # fills the postprocess memos
    tracemalloc.start()
    try:
        assert bench._dd_stability_trial(grid, 20.0, layout, 10) == (True, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2


@pytest.mark.parametrize("n, integrated_steps", [(bench.DD_ASSEMBLED_MAX_N, 1),
                                                 (bench.DD_ASSEMBLED_MAX_N + 2, 20)])
def test_dd_trial_above_the_assembly_limit_runs_every_step_through_integrate(
        monkeypatch, n, integrated_steps):
    runs, real_integrate = [], bench.integrate

    def counted_integrate(*args, **kwargs):
        out = real_integrate(*args, **kwargs)
        runs.append(out.steps)
        return out

    monkeypatch.setattr(bench, "integrate", counted_integrate)
    assert bench._dd_stability_trial(make_grid_1d(n), 4.0, None, 20) == (True, 20)
    assert runs == [integrated_steps]


def _run_driver(driver, dt=1e-3, n_steps=2, kappa_fraction=1.0, filter_on=True):
    """Run a driver on a zero field with homogeneous data."""
    grid = make_grid_1d(16) if driver == "1d" else make_grid_2d(8)
    bc = partial(ZERO_2D.boundary, grid=grid) if driver == "2d" else lambda t: (0.0, 0.0)
    return integrate(zero_reaction(), grid, dt, n_steps, bc, Field.zeros(grid),
                     filter_on=filter_on, kappa_fraction=kappa_fraction)


@pytest.mark.parametrize("driver", ["1d", "2d"])
@pytest.mark.parametrize("filter_on", ["3", float("nan"), 2.5, 1, None])
def test_drivers_take_only_a_bool_filter_on(driver, filter_on):
    # these used to run, on their truth
    with pytest.raises(ValueError, match="^filter_on: must be True or False"):
        _run_driver(driver, filter_on=filter_on)


@pytest.mark.parametrize("driver", ["1d", "2d"])
def test_drivers_take_a_numpy_bool_filter_on_as_the_bool(driver):
    for flag in (True, False):
        want, got = (_run_driver(driver, filter_on=f) for f in (flag, np.bool_(flag)))
        np.testing.assert_equal(got.kappa, want.kappa)
        assert (got.stable, got.steps) == (want.stable, want.steps)


@pytest.mark.parametrize("driver", ["1d", "2d"])
@pytest.mark.parametrize("kappa_fraction", [-1.0, 0.0, float("nan"), float("inf")])
def test_drivers_reject_a_kappa_fraction_that_is_not_finite_and_positive(driver,
                                                                        kappa_fraction):
    # a negative fraction used to run as its absolute value and report kappa < 0
    with pytest.raises(ValueError, match="^kappa_fraction: must be finite and positive"):
        _run_driver(driver, kappa_fraction=kappa_fraction)


@pytest.mark.parametrize("driver", ["1d", "2d"])
@pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf"), True, np.True_]
                         + NOT_REAL)
def test_drivers_reject_a_dt_that_is_not_finite_and_positive(driver, dt):
    # NaN and inf used to run with kappa NaN or inf and report a Newton failure;
    # True ran as 1.0
    with pytest.raises(ValueError, match="^dt: must be finite and positive"):
        _run_driver(driver, dt=dt)


@pytest.mark.parametrize("driver", ["1d", "2d"])
def test_drivers_reject_a_negative_step_count_and_take_zero_steps(driver):
    # n_steps = -3 used to return stable=True, steps=-3; True ran one step and
    # returned steps=True, 2.5 raised a TypeError that named no key
    with pytest.raises(ValueError, match="^n_steps: must be >= 0, got -3"):
        _run_driver(driver, n_steps=-3)
    for bad in (True, np.True_, 2.5, "2"):
        with pytest.raises(ValueError, match="^n_steps: must be a whole number"):
            _run_driver(driver, n_steps=bad)
    out = _run_driver(driver, n_steps=0)
    assert (out.stable, out.steps) == (True, 0)
    assert np.array_equal(out.field.values, np.zeros_like(out.field.values))


def test_dd_study_rejects_an_infeasible_overlap_before_bisecting(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "bisect_max_stable_ratio",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match="even"):
        run_dd_study(32, 4, (4, 3))
    # no strip used to raise ZeroDivisionError from the overlap cap
    with pytest.raises(ValueError, match="^n_subdomains: must be >= 1, got 0"):
        run_dd_study(32, 0, (4,))
    # one overlap, not a sequence, used to raise "'int' object is not iterable"
    with pytest.raises(ValueError, match="^overlaps: must be a sequence of overlap widths, got 4"):
        run_dd_study(32, 2, 4)
    # no step, or the startup step alone, grows no mode: every row read "capped"
    for n_steps in (0, 1):
        with pytest.raises(ValueError, match=f"^n_steps: must be >= 2, got {n_steps}"):
            run_dd_study(32, 2, (4,), resolution=1.0, n_steps=n_steps)
    assert calls == []


def test_bisection_rejects_a_trial_of_fewer_than_two_steps_before_any_trial(monkeypatch):
    trials = []
    monkeypatch.setattr(bench, "_dd_stability_trial", lambda *args: trials.append(args))
    for n_steps in (0, 1):
        with pytest.raises(ValueError, match=f"^n_steps: must be >= 2, got {n_steps}"):
            bench.bisect_max_stable_ratio(make_grid_1d(32), None, 1.0, n_steps=n_steps)
    for n_steps in (2.5, True):
        with pytest.raises(ValueError, match="^n_steps: must be a whole number"):
            bench.bisect_max_stable_ratio(make_grid_1d(32), None, 1.0, n_steps=n_steps)
    assert trials == []


def test_dd_study_rejects_an_overlap_above_the_cap_and_notes_the_cap(monkeypatch):
    # N = 64, 2 strips: the cap is the largest even width <= 64 / 4 = 16
    calls = []
    monkeypatch.setattr(bench, "bisect_max_stable_ratio",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match="^overlaps: 32 is above the cap 16"):
        run_dd_study(64, 2, (16, 32))
    assert calls == []
    rows = run_dd_study(64, 2, (14, 16))
    assert [(r.overlap, r.note) for r in rows] == [(0, ""), (14, ""), (16, "saturated")]


@pytest.mark.parametrize("n, n_subdomains, overlaps, message", [
    (128, 4, (4, 3), "^overlaps: must be even and >= 2 between strips"),
    (128, 4, (4, 32), "^overlaps: 32 is above the cap 16, "),
    (32, 2, (4, 34), "^overlaps: infeasible layout: N=32, n_subdomains=2, overlap=34 "),
    (20, 3, (4,), "^n_subdomains: infeasible layout: N=20, n_subdomains=3, overlap=2 "),
], ids=["odd", "above the cap", "infeasible", "too many strips"])
def test_dd_study_names_its_own_keys_before_bisecting(monkeypatch, n, n_subdomains, overlaps,
                                                      message):
    # each overlap used to be named "overlap:", a key the study does not take;
    # 3 strips at N = 20 fit only at overlap 4, above the cap 2
    calls = []
    monkeypatch.setattr(bench, "bisect_max_stable_ratio",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match=message):
        run_dd_study(n, n_subdomains, overlaps)
    assert calls == []


def test_dd_study_notes_a_row_that_reached_the_ratio_cap(monkeypatch):
    # the bisection returns RATIO_MAX when every ratio up to it survives
    ratios = {None: bench.RATIO_MAX, 8: 20.0, 16: bench.RATIO_MAX}
    monkeypatch.setattr(bench, "bisect_max_stable_ratio",
                        lambda grid, layout, *args, **kwargs:
                        ratios[layout and layout.overlap])
    rows = run_dd_study(64, 2, (8, 16))
    assert [(r.overlap, r.ratio, r.note) for r in rows] == [
        (0, 64.0, "capped"), (8, 20.0, ""), (16, 64.0, "saturated, capped")]


def test_dd_study_reports_dt_zero_for_a_row_where_no_ratio_survives(monkeypatch):
    calls = _fake_trial(monkeypatch, 0.0)
    rows = run_dd_study(32, 2, (4,))
    assert calls and [(r.ratio, r.dt) for r in rows] == [(0.0, 0.0), (0.0, 0.0)]


def test_steps_to_rounds_and_rejects_fewer_than_two_steps(monkeypatch):
    assert bench.steps_to(1.0, 0.3) == 3  # the run ends at 0.9
    assert bench.steps_to(0.375, 0.25) == 2
    assert bench.steps_to(0.5 * bench.MAX_STEPS, 0.5) == bench.MAX_STEPS
    # T / dt = inf raised an OverflowError; 1e30 steps ran for ever
    for T, dt in ((0.37, 0.25), (1e300, 1e-10), (1e20, 1e-10),
                  (0.5 * bench.MAX_STEPS + 0.5, 0.5)):
        with pytest.raises(ConfigError, match="^T: "):
            bench.steps_to(T, dt)
    # dt = 0 raised a bare ZeroDivisionError, and a NaN T was blamed on MAX_STEPS
    for T, dt, key in ((1.0, 0.0, "dt"), (1.0, -0.1, "dt"), (1.0, float("nan"), "dt"),
                       (1.0, float("inf"), "dt"), (float("nan"), 0.1, "T"),
                       (float("inf"), 0.1, "T"), (-1.0, 0.1, "T"), (0.0, 0.1, "T")):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite and positive"):
            bench.steps_to(T, dt)
    # a sweep checks every run before it integrates the first one
    calls = []
    monkeypatch.setattr(bench, "run_case", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError, match="^T: "):
        run_accuracy_sweep(manufactured_heat_case(), [32], [1.0, 8.0], [1], T=0.03)
    assert calls == []


@pytest.mark.parametrize("key, sequences, message", [
    ("grid_sizes", ((2,), (1.0,), (1,)), "must be >= 4, got 2"),
    ("grid_sizes", (8, (1.0,), (1,)), "must be a sequence of interval counts, got 8"),
    ("ratios", ((32,), 1.0, (1,)), "must be a sequence of normalized steps, got 1.0"),
    ("shift_orders", ((32,), (1.0,), 1), "must be a sequence of orders, got 1"),
    ("shift_orders", ((32,), (1.0,), (1, 2)), "must each be 1 or 3, got [1, 2]"),
])
def test_sweep_rejects_its_sequences_by_their_keys_before_the_first_run(monkeypatch, key,
                                                                        sequences, message):
    # (2,) used to be rejected as n_intervals, a bare value raised an unkeyed
    # TypeError, and shift order 2 raised only after the order-1 run
    calls = []
    monkeypatch.setattr(bench, "run_case", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=f"^{key}: {re.escape(message)}$"):
        run_accuracy_sweep(manufactured_heat_case(), *sequences)
    assert calls == []


def test_run_case_rows_carry_the_layout_and_the_case_errors():
    grid = make_grid_1d(32)
    dt = ratio_to_dt(2.0, grid.h)
    case = manufactured_heat_case()
    row, out = bench.run_case(case, grid, dt, 20, layout=make_layout(grid, 2, 4))
    assert (row.N, row.n_subdomains, row.overlap, row.steps) == (32, 2, 4, 20)
    assert (row.err_l2, row.err_linf) == error_norms(out.field, case.exact_field(grid, 20 * dt))
    row, out = bench.run_case(PredatorPreyCase(), grid, dt, 20)
    assert row.stable and np.isnan(row.err_l2) and np.isnan(row.err_linf)
    assert (row.n_subdomains, row.overlap) == (1, 0) and out.min_values.shape == (2,)
    # a 2D row: N and ratio of the x axis, errors against the 2D exact field
    grid, case = make_grid_2d(16, 8), manufactured_heat_case_square()
    row, out = bench.run_case(case, grid, 0.002, 20)
    assert (row.N, row.ratio, row.kappa) == (16, 3.0 * 0.002 / grid.hx**2, out.kappa[0])
    assert (row.n_subdomains, row.overlap, row.steps) == (1, 0, 20)
    assert (row.err_l2, row.err_linf) == error_norms(out.field, case.exact_field(grid, 20 * 0.002))


@pytest.mark.parametrize("filter_on", [True, False])
@pytest.mark.parametrize("key, kwargs", [
    ("shift_order", {"shift_order": 3}),
    ("layout", {"layout": make_layout(make_grid_1d(16), 2, 4)}),
], ids=["shift_order", "layout"])
def test_a_2d_run_rejects_the_third_order_shift_and_strips_before_any_step(
        monkeypatch, key, kwargs, filter_on):
    # the third-order shift used to fail after the first step, naming the
    # u_xx callback, and with the filter off it ran and was ignored
    steps = []
    monkeypatch.setattr(bench, "step", lambda *args, **kw: steps.append(args))
    with pytest.raises(ValueError, match=f"^{key}: "):
        bench.run_case(manufactured_heat_case_square(), make_grid_2d(16), 0.002, 5,
                       filter_on=filter_on, **kwargs)
    assert steps == []


@pytest.mark.parametrize("overlap, strip", [(8, "12..36"), (16, "8..40")])
def test_third_order_rejects_a_singular_strip_by_name_before_any_step(
        monkeypatch, overlap, strip):
    # the middle strip is [pi/4, 3pi/4] at overlap 8, [pi/6, 5pi/6] at 16: its
    # endpoint matrix is singular, and both runs used to blow up at step 2
    grid = make_grid_1d(48)
    layout, dt = make_layout(grid, 3, overlap), ratio_to_dt(4.0, grid.h)
    steps = []
    with monkeypatch.context() as patched:
        patched.setattr(bench, "step", lambda *args, **kw: steps.append(args))
        with pytest.raises(ValueError, match=f"^shift_order: 3 cannot shift strip {strip}: "):
            bench.run_case(manufactured_heat_case(), grid, dt, 5, shift_order=3, layout=layout)
    assert steps == []
    row, _ = bench.run_case(manufactured_heat_case(), grid, dt, 40, layout=layout)
    assert row.stable  # the first-order shift takes the same strips


def test_the_endpoint_condition_bound_sits_in_a_gap():
    # every strip of every accepted layout of 1-5 strips, N 20..128: the bound
    # is far from both the well-conditioned strips and the singular ones (with
    # more strips it is not: see the next test)
    conds = []
    for n in range(20, 129, 4):
        for n_subdomains in range(1, 6):
            for overlap in range(2, 33, 2):
                try:
                    layout = make_layout(make_grid_1d(n), n_subdomains, overlap)
                except ValueError:
                    continue
                conds += [np.linalg.cond(endpoint_matrix(n, lo, hi, 4)) for lo, hi in layout.ranges]
    conds = np.array(conds)
    assert conds[conds <= ENDPOINT_MAX_COND].max() < 1e5
    assert conds[conds > ENDPOINT_MAX_COND].min() > 1e14


def test_third_order_on_many_strips_as_it_stands():
    # ROADMAP item 14: beyond 5 strips the bound refuses a strip that is not
    # singular, and accepts strips that blow up at order 3 but not at order 1
    case, grid = manufactured_heat_case(), make_grid_1d(120)
    layout = make_layout(grid, 14, 4)
    cond = np.linalg.cond(endpoint_matrix(120, 7, 19, 4))
    assert ENDPOINT_MAX_COND < cond < 1e9
    with pytest.raises(ValueError, match="^shift_order: 3 cannot shift strip 7..19: "):
        bench.run_case(case, grid, ratio_to_dt(2.0, grid.h), 200, shift_order=3, layout=layout)
    for n, n_subdomains, blowup_step in [(128, 15, 41), (104, 12, 174)]:
        grid = make_grid_1d(n)
        layout, dt = make_layout(grid, n_subdomains, 4), ratio_to_dt(2.0, grid.h)
        third, _ = bench.run_case(case, grid, dt, 200, shift_order=3, layout=layout)
        first, _ = bench.run_case(case, grid, dt, 200, shift_order=1, layout=layout)
        assert (third.stable, third.steps, first.stable) == (False, blowup_step, True)


# ---------------------------------------------------------------------------
# Every exit of both drivers: stable, a Newton failure in the startup step or
# in a later step, a blow-up caught before the filter, and one caught after it.

def _rate_reaction(rate):
    """f = rate(t) * u + 1; the Newton Jacobian c - rate(t) is exactly 0 when
    rate(t) equals the step's coefficient c (1/dt at startup, 3/(2 dt) later)."""
    return ReactionSystem(
        eval=lambda x, t, u: rate(t) * u + 1.0,
        jacobian=lambda x, t, u: np.full(u.shape + (1,), rate(t)))


def _exit_run(driver, exit_path):
    # Newton fails at startup, or from t = 4 dt on; the source kicks in from
    # t = 3 dt (caught before the filter) or from the start (after it).
    if driver == "1d":
        grid = make_grid_1d(16)
        dt = ratio_to_dt(3.0, grid.h)
        u0 = Field(grid, np.sin(grid.nodes) + 1.0e-6 * np.sin(15 * grid.nodes))
        bc = lambda t: (0.0, 0.0)
    else:
        grid = make_grid_2d(8)
        dt = 3.0 * grid.hx**2 / 6.0
        X, Y = np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")
        u0 = Field(grid, np.sin(X) * np.sin(Y) + 1.0e-6 * np.sin(7 * X) * np.sin(7 * Y))
        bc = partial(ZERO_2D.boundary, grid=grid)
    kwargs = {}
    if exit_path == "stable":
        reaction = zero_reaction()
    elif exit_path == "newton_startup":
        reaction = _rate_reaction(lambda t: 1.0 / dt)
    elif exit_path == "newton_later":
        reaction = _rate_reaction(lambda t: 3.0 / (2.0 * dt) if t > 3.5 * dt else 0.0)
    elif exit_path == "blowup_before_filter":
        reaction = source_reaction(lambda x, t: 1.0e12 if t > 2.5 * dt else 0.0)
    elif exit_path == "blowup_after_filter":
        reaction = source_reaction(lambda x, t: 1.0e12)
    elif exit_path == "blowup_after_third_order_filter":
        # huge only at x = 0, a node the step never updates: the blow-up
        # comes from the u_xx estimate of the third-order shift
        reaction = source_reaction(lambda x, t: 1.0e20 * (np.asarray(x) == 0.0))
        kwargs = {"shift_order": 3}
    else:  # "blowup_unfiltered": filter off above the explicit limit
        reaction = zero_reaction()
        kwargs = {"filter_on": False}
    return integrate(reaction, grid, dt, 40, bc, u0, **kwargs)


KAPPA_RATIO_3 = 2.55214965605977  # pi / arccos(1/3): kappa_c at ratio 3, 1D and 2D
NEWTON_1D = "Newton diverged at node 0, residual "
NEWTON_2D = "Newton diverged at node (np.int64(0), np.int64(0)), residual "

# (stable, steps, failure, 1D final_update); kappa is KAPPA_RATIO_3 on every
# axis of a filtered run.
# The final updates are differences of the last two levels over dt; they are
# compared to 1e-12 relative, which leaves room for last-bit changes of sigma8.
_EXITS = {
    ("1d", "stable"): (True, 40, None, 0.21647970601692637),
    ("1d", "newton_startup"): (False, 0, NEWTON_1D + "2.594e+01", np.inf),
    ("1d", "newton_later"): (False, 3, NEWTON_1D + "3.976e+01", 0.22613809021568057),
    ("1d", "blowup_before_filter"): (False, 3, None, np.inf),
    ("1d", "blowup_after_filter"): (False, 1, None, np.inf),
    ("1d", "blowup_after_third_order_filter"): (False, 2, None, np.inf),
    ("1d", "blowup_unfiltered"): (False, 22, None, np.inf),
    ("2d", "stable"): (True, 40, None, None),
    ("2d", "newton_startup"): (False, 0, NEWTON_2D + "1.199e+01", None),
    ("2d", "newton_later"): (False, 3, NEWTON_2D + "1.180e+01", None),
    ("2d", "blowup_before_filter"): (False, 3, None, None),
    ("2d", "blowup_after_filter"): (False, 1, None, None),
    ("2d", "blowup_unfiltered"): (False, 23, None, None),
}


@pytest.mark.parametrize("driver, exit_path", list(_EXITS))
def test_driver_exit_paths(driver, exit_path):
    stable, steps, failure, final_update = _EXITS[driver, exit_path]
    out = _exit_run(driver, exit_path)
    assert (out.stable, out.steps, out.failure) == (stable, steps, failure)
    # an unfiltered run applied no kappa, and reports NaN on every axis
    kappa = np.nan if exit_path == "blowup_unfiltered" else KAPPA_RATIO_3
    np.testing.assert_equal(out.kappa, (kappa,) * (1 if driver == "1d" else 2))
    if driver == "1d":
        assert out.final_update == pytest.approx(final_update, rel=1e-12)


def test_integrate_2d_reports_the_kappa_of_each_axis():
    # 16 x 64 intervals at dt = 0.002: no x mode is unstable (kappa 1), while
    # the y axis runs at 3 dt / h_y^2 = 2.49 and filters with kappa_y = 3.3806
    grid, dt = make_grid_2d(16, 64), 0.002
    bc = partial(ZERO_2D.boundary, grid=grid)
    out = integrate(zero_reaction(), grid, dt, 2, bc, Field.zeros(grid))
    assert out.kappa == (1.0, kappa_critical_2d(dt, grid.hy))
    assert out.kappa[1] == pytest.approx(3.3806, abs=1e-4)


@pytest.mark.parametrize("loop_path", ["matrix", "dst"])
@pytest.mark.parametrize("shape", [(16, 16), (32, 24)])
def test_driver_2d_matches_a_postprocess_field_loop(shape, loop_path, monkeypatch):
    # integrate on a 2D grid is the README's loop: one step, then one
    # postprocess_field with a kappa per axis; the loop runs on the driver's
    # matrix path, bit for bit, or on the DST path of every axis
    grid = make_grid_2d(*shape)
    case = manufactured_heat_case_square()
    reaction, bc = case.reaction(), partial(case.boundary, grid=grid)
    dt, n_steps = 4.0 * grid.hx**2 / 6.0, 20  # four times the explicit limit along x
    kappa = (kappa_critical_2d(dt, grid.hx), kappa_critical_2d(dt, grid.hy))
    u0 = case.initial(grid)
    out = integrate(reaction, grid, dt, n_steps, bc, u0)
    if loop_path == "dst":
        monkeypatch.setattr(filtering, "MATRIX_MAX_N", 0)
    u_prev, u_curr = None, u0
    for k in range(n_steps):
        u_new = step(u_curr, u_prev, reaction, k * dt, dt, bc((k + 1) * dt))
        u_prev, u_curr = u_curr, postprocess_field(u_new, kappa)
    assert out.stable and out.steps == n_steps and out.kappa == kappa
    if loop_path == "matrix":
        assert np.array_equal(out.field.values, u_curr.values)
    scale = np.max(np.abs(u_curr.values))
    assert np.max(np.abs(out.field.values - u_curr.values)) <= 1e-12 * scale


@pytest.mark.parametrize("driver", ["1d", "2d"])
def test_drivers_reject_u0_on_another_grid(driver):
    # kappa would be taken from the driver's h, not from the field's
    if driver == "1d":
        grid, u0 = make_grid_1d(64), Field.zeros(make_grid_1d(128))
    else:
        grid, u0 = make_grid_2d(8), Field.zeros(make_grid_2d(16))
    with pytest.raises(ValueError, match=f"^u0: lives on {re.escape(str(u0.grid))}, not on"):
        integrate(zero_reaction(), grid, 1e-3, 2, partial(ZERO_2D.boundary, grid=grid), u0)


@pytest.mark.parametrize("grid", [make_grid_1d(64), make_grid_2d(16)], ids=["1d", "2d"])
def test_integrate_rejects_a_layout_of_another_grid_before_reading_any_boundary(grid):
    # on 64 intervals the startup step used to run, calling bc_at once, and
    # only the first postprocess raised "layout is for N=128, the field has N=64"
    calls = []

    def bc_at(t):
        calls.append(t)
        return ZERO_2D.boundary(t, grid)

    layout = make_layout(make_grid_1d(128), 2, 8)
    with pytest.raises(ValueError, match=r"^layout: is for Grid1D\(n_intervals=128\), not for"):
        integrate(zero_reaction(), grid, 1e-3, 2, bc_at, Field.zeros(grid), layout=layout)
    assert calls == []


# ---------------------------------------------------------------------------
# Per-step cost: with a u-independent reaction each step evaluates it once
# over the grid (the third-order shift's two-node u_xx estimate aside), never
# forms its Jacobian, and computes one Laplacian: L(2 u^n - u^{n-1}), which by
# linearity is the scheme's 2 L u^n - L u^{n-1} (L u^0 on the startup step).

@pytest.mark.parametrize("driver", ["1d", "2d"])
def test_each_step_evaluates_the_source_once_and_one_laplacian(monkeypatch, driver):
    counts = {"full_eval": 0, "jacobian": 0, "laplacian": 0}
    laplacian = stepper.apply_laplacian

    def counted_laplacian(values):
        counts["laplacian"] += 1
        return laplacian(values)

    monkeypatch.setattr(stepper, "apply_laplacian", counted_laplacian)
    n_steps = 20
    if driver == "1d":
        case, grid, interior = manufactured_heat_case(), make_grid_1d(32), (31,)
        dt, shift_order = ratio_to_dt(4.0, grid.h), 3
    else:
        case, grid, interior = manufactured_heat_case_square(), make_grid_2d(16), (15, 15)
        dt, shift_order = grid.hx**2 / 3.0, 1
    source = case.reaction()

    def counted_eval(x, t, u):
        counts["full_eval"] += u.shape[:-1] == interior
        return source.eval(x, t, u)

    def counted_jacobian(x, t, u):
        counts["jacobian"] += 1
        return source.jacobian(x, t, u)

    reaction = dataclasses.replace(source, eval=counted_eval, jacobian=counted_jacobian)
    out = integrate(reaction, grid, dt, n_steps, partial(case.boundary, grid=grid),
                    case.initial(grid), shift_order=shift_order)
    assert out.stable and out.steps == n_steps
    assert counts["full_eval"] <= n_steps
    assert counts["jacobian"] == 0
    assert counts["laplacian"] == n_steps
