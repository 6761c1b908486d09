"""Test problems and experiment harness: manufactured solutions, the
predator-prey system with excited boundaries, accuracy sweeps over the
normalized step ratio 3 dt / h^2, and domain-decomposition overlap studies."""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    BLOWUP_THRESHOLD,
    Field,
    Field2D,
    Grid1D,
    Grid2D,
    ReactionSystem,
    SchemeState,
    make_grid_1d,
    make_grid_2d,
    source_reaction,
    zero_reaction,
)
from .ddm import SubdomainLayout
from .filtering import FilterSpec, KappaMonitor, kappa_critical, postprocess_field
from .solver2d import BoundaryData2D, kappa_critical_2d, postprocess2d
from .stepper import NewtonDivergence, StepConfig, step


# ---------------------------------------------------------------------------
# Test cases

@dataclass(frozen=True)
class ManufacturedCase:
    """Chosen exact solution with its induced source s = u_t - u_xx."""

    name: str
    exact: Callable          # (x, t) -> values
    source: Callable         # (x, t) -> values

    def reaction(self) -> ReactionSystem:
        return source_reaction(self.source)

    def boundary(self, t: float) -> tuple[float, float]:
        return float(self.exact(0.0, t)), float(self.exact(np.pi, t))

    def initial(self, grid: Grid1D) -> Field:
        return Field(grid, self.exact(grid.nodes, 0.0))

    def exact_field(self, grid: Grid1D, t: float) -> Field:
        return Field(grid, self.exact(grid.nodes, t))

    def residual(self, x, t, eps: float = 1.0e-4) -> np.ndarray:
        """Sampled PDE residual u_t - u_xx - s via central differences."""
        ut = (self.exact(x, t + eps) - self.exact(x, t - eps)) / (2.0 * eps)
        uxx = (self.exact(x + eps, t) - 2.0 * self.exact(x, t)
               + self.exact(x - eps, t)) / eps**2
        return ut - uxx - self.source(x, t)


def manufactured_heat_case() -> ManufacturedCase:
    """u(x,t) = cos(t) ((x/pi)^4 + cos(3x))."""

    def exact(x, t):
        return np.cos(t) * ((np.asarray(x) / np.pi) ** 4 + np.cos(3.0 * np.asarray(x)))

    def source(x, t):
        x = np.asarray(x)
        return (-np.sin(t) * ((x / np.pi) ** 4 + np.cos(3.0 * x))
                - np.cos(t) * (12.0 * x**2 / np.pi**4 - 9.0 * np.cos(3.0 * x)))

    return ManufacturedCase("heat1d", exact, source)


def quadratic_manufactured_case(omega: float = 10.0) -> ManufacturedCase:
    """u(x,t) = cos(omega t) (1 + x (pi - x)).

    The second-difference stencil is exact on quadratics, so the numerical
    error of this case is purely temporal; used to observe the order in dt.
    """

    def exact(x, t):
        x = np.asarray(x)
        return np.cos(omega * t) * (1.0 + x * (np.pi - x))

    def source(x, t):
        x = np.asarray(x)
        return -omega * np.sin(omega * t) * (1.0 + x * (np.pi - x)) + 2.0 * np.cos(omega * t)

    return ManufacturedCase("quad1d", exact, source)


def manufactured_heat_case_2d() -> dict:
    """u(x,y,t) = cos(t) cos(2x) cos(y) with induced source s = u_t - lap u."""

    def exact(x, y, t):
        return np.cos(t) * np.cos(2.0 * np.asarray(x)) * np.cos(np.asarray(y))

    def source(xy, t):
        x, y = xy
        return (-np.sin(t) + 5.0 * np.cos(t)) * np.cos(2.0 * x) * np.cos(y)

    bc = BoundaryData2D(
        g0=lambda x, t: exact(x, 0.0, t),
        gpi=lambda x, t: exact(x, np.pi, t),
        h0=lambda y, t: exact(0.0, y, t),
        hpi=lambda y, t: exact(np.pi, y, t),
    )
    return {"exact": exact, "reaction": source_reaction(source), "bc": bc}


@dataclass(frozen=True)
class PredatorPreyCase:
    """Reaction-diffusion predator-prey system on (0, pi).

    ``sign_variant`` 'printed' uses dv/dt = v_xx - c u - d u v; 'classical'
    uses dv/dt = v_xx - c v + d u v (the form whose reaction-only ODE actually
    orbits a cycle and keeps both species nonnegative).
    """

    a: float = 1.2
    b: float = 1.0
    c: float = 0.1
    d: float = 0.2
    u_left: float = 1.0
    u_right: float = 1.0
    v_left: float = 1.0
    v_right: float = 1.0
    excited: bool = True
    sign_variant: str = "classical"

    def __post_init__(self):
        if self.sign_variant not in ("printed", "classical"):
            raise ValueError("sign_variant must be 'printed' or 'classical'")
        if min(self.u_left, self.u_right, self.v_left, self.v_right) <= 0.0:
            raise ValueError("base boundary levels must be positive")

    def ode_rhs(self, w: np.ndarray) -> np.ndarray:
        u, v = w[..., 0], w[..., 1]
        fu = self.a * u - self.b * u * v
        if self.sign_variant == "printed":
            fv = -self.c * u - self.d * u * v
        else:
            fv = -self.c * v + self.d * u * v
        return np.stack([fu, fv], axis=-1)

    def ode_jacobian(self, w: np.ndarray) -> np.ndarray:
        u, v = w[..., 0], w[..., 1]
        j = np.empty(w.shape[:-1] + (2, 2))
        j[..., 0, 0] = self.a - self.b * v
        j[..., 0, 1] = -self.b * u
        if self.sign_variant == "printed":
            j[..., 1, 0] = -self.c - self.d * v
            j[..., 1, 1] = -self.d * u
        else:
            j[..., 1, 0] = self.d * v
            j[..., 1, 1] = -self.c + self.d * u
        return j

    def reaction(self) -> ReactionSystem:
        return ReactionSystem(
            m=2,
            eval=lambda x, t, w: self.ode_rhs(w),
            jacobian=lambda x, t, w: self.ode_jacobian(w),
        )

    def boundary(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        factor = 1.0 + np.cos(t) if self.excited else 1.0
        return (np.array([self.u_left, self.v_left]) * factor,
                np.array([self.u_right, self.v_right]) * factor)

    def initial(self, grid: Grid1D) -> Field:
        left, right = self.boundary(0.0)
        frac = grid.nodes / np.pi
        vals = left[np.newaxis, :] * (1.0 - frac[:, np.newaxis]) \
            + right[np.newaxis, :] * frac[:, np.newaxis]
        return Field(grid, vals)


def ode_orbit_check(case: PredatorPreyCase, w0=(1.0, 1.0), t_max: float = 120.0,
                    return_tol: float = 0.05) -> bool:
    """Fine-step ODE oracle: does the reaction-only trajectory from ``w0``
    return near its start (a cycle) rather than spiral to equilibrium or
    leave the positive quadrant?"""
    sol = solve_ivp(lambda t, w: case.ode_rhs(np.asarray(w)), (0.0, t_max), w0,
                    rtol=1.0e-10, atol=1.0e-12, dense_output=True, max_step=0.5)
    if not sol.success or np.min(sol.y) < -1.0e-8 or np.max(np.abs(sol.y)) > 1.0e6:
        return False
    t = np.linspace(1.0, t_max, 4000)
    w = sol.sol(t)
    dist = np.hypot(w[0] - w0[0], w[1] - w0[1])
    return bool(np.min(dist) < return_tol)


# ---------------------------------------------------------------------------
# Norms

def error_norms(u: Field | Field2D, reference: Field | Field2D) -> tuple[float, float]:
    """Trapezoidal discrete L2 and sup norm of the difference; the weight of a
    node is the product of one trapezoid weight per node axis (h = pi/N)."""
    if u.grid != reference.grid:
        raise ValueError("fields live on different grids")
    diff = u.values - reference.values
    w = np.ones(())
    for n_nodes in diff.shape[:-1]:
        w_axis = np.full(n_nodes, np.pi / (n_nodes - 1))
        w_axis[[0, -1]] *= 0.5
        w = np.multiply.outer(w, w_axis)
    l2 = float(np.sqrt(np.sum(w[..., np.newaxis] * diff * diff)))
    linf = float(np.max(np.abs(diff)))
    return l2, linf


# ---------------------------------------------------------------------------
# Time-integration drivers

@dataclass
class RunOutcome:
    field: Field | Field2D | None
    stable: bool
    steps: int
    wall_ms: float
    kappa: float
    min_values: np.ndarray | None = None
    final_update: float = np.inf
    failure: str | None = None


def integrate_1d(reaction: ReactionSystem, grid: Grid1D, dt: float, n_steps: int,
                 bc_fn: Callable, u0: Field, shift_order: int = 1,
                 filter_on: bool = True, kappa_fraction: float = 1.0,
                 kappa_adapt: bool = False, layout: SubdomainLayout | None = None,
                 newton_tol: float = 1.0e-12, newton_max_iter: int = 25,
                 track_min: bool = False,
                 blowup_threshold: float = BLOWUP_THRESHOLD) -> RunOutcome:
    """Run the full pipeline for ``n_steps`` steps of size ``dt``.

    ``bc_fn(t)`` returns the Dirichlet pair at time t.  Postprocessing (when
    ``filter_on``) is applied after every step, including the startup step
    (which uses a first-order shift: only two time levels exist there).
    """
    cfg = StepConfig(dt=dt, newton_tol=newton_tol, newton_max_iter=newton_max_iter)
    kappa = kappa_fraction * kappa_critical(dt, grid.h)
    spec = FilterSpec(kappa=kappa)
    monitor = KappaMonitor(kappa) if kappa_adapt else None
    mins = np.min(u0.values, axis=0) if track_min else None
    start = time.perf_counter()

    def _done(stable, steps, fld, upd, failure=None):
        wall = (time.perf_counter() - start) * 1000.0
        k = monitor.kappa if monitor is not None else kappa
        return RunOutcome(fld, stable, steps, wall, k, mins, upd, failure)

    try:
        u1 = step(SchemeState(u0, u0, 0.0, dt), reaction, cfg, bc_fn(dt), startup=True)
    except NewtonDivergence as exc:
        return _done(False, 0, u0, np.inf, str(exc))
    if filter_on:
        u1 = postprocess_field(u1, spec, monitor=monitor, layout=layout)
    if u1.blown_up(blowup_threshold):
        return _done(False, 1, u1, np.inf)
    if track_min:
        mins = np.minimum(mins, np.min(u1.values, axis=0))

    u_prev, u_curr = u0, u1
    update = np.inf
    for n in range(1, n_steps):
        t_n = n * dt
        t_next = t_n + dt
        state = SchemeState(u_curr, u_prev, t_n, dt)
        try:
            u_new = step(state, reaction, cfg, bc_fn(t_next))
        except NewtonDivergence as exc:
            return _done(False, n, u_curr, update, str(exc))
        if u_new.blown_up(blowup_threshold):
            return _done(False, n + 1, u_new, np.inf)
        if filter_on:
            if monitor is not None:
                spec = spec.with_kappa(monitor.kappa)
            u_new = postprocess_field(u_new, spec, shift_order, (u_curr, u_prev),
                                      reaction, dt, t_next, monitor, layout)
            if u_new.blown_up(blowup_threshold):
                return _done(False, n + 1, u_new, np.inf)
        if track_min:
            mins = np.minimum(mins, np.min(u_new.values, axis=0))
        update = float(np.max(np.abs(u_new.values - u_curr.values))) / dt
        u_prev, u_curr = u_curr, u_new
    return _done(True, n_steps, u_curr, update)


def integrate_2d(reaction: ReactionSystem, grid: Grid2D, dt: float, n_steps: int,
                 bc: BoundaryData2D, u0: Field2D, filter_on: bool = True,
                 kappa_fraction: float = 1.0, newton_tol: float = 1.0e-12,
                 newton_max_iter: int = 25,
                 blowup_threshold: float = BLOWUP_THRESHOLD) -> RunOutcome:
    """2D driver; first-order shifts only."""
    cfg = StepConfig(dt=dt, newton_tol=newton_tol, newton_max_iter=newton_max_iter)
    spec_x = FilterSpec(kappa=kappa_fraction * kappa_critical_2d(dt, grid.hx))
    spec_y = FilterSpec(kappa=kappa_fraction * kappa_critical_2d(dt, grid.hy))
    start = time.perf_counter()

    def _done(stable, steps, fld, failure=None):
        wall = (time.perf_counter() - start) * 1000.0
        return RunOutcome(fld, stable, steps, wall, spec_x.kappa, None, np.inf, failure)

    try:
        u1 = step(SchemeState(u0, u0, 0.0, dt), reaction, cfg, bc.sample(grid, dt, u0.m),
                  startup=True)
    except NewtonDivergence as exc:
        return _done(False, 0, u0, str(exc))
    if filter_on:
        u1 = postprocess2d(u1, spec_x, spec_y)
    if u1.blown_up(blowup_threshold):
        return _done(False, 1, u1)

    u_prev, u_curr = u0, u1
    for n in range(1, n_steps):
        state = SchemeState(u_curr, u_prev, n * dt, dt)
        try:
            u_new = step(state, reaction, cfg, bc.sample(grid, state.time + dt, u0.m))
        except NewtonDivergence as exc:
            return _done(False, n, u_curr, str(exc))
        if u_new.blown_up(blowup_threshold):
            return _done(False, n + 1, u_new)
        if filter_on:
            u_new = postprocess2d(u_new, spec_x, spec_y)
            if u_new.blown_up(blowup_threshold):
                return _done(False, n + 1, u_new)
        u_prev, u_curr = u_curr, u_new
    return _done(True, n_steps, u_curr)


# ---------------------------------------------------------------------------
# Experiment harness

@dataclass
class SweepRow:
    N: int
    dt: float
    ratio: float
    shift_order: int
    kappa: float
    n_subdomains: int
    overlap: int
    err_l2: float
    err_linf: float
    stable: bool
    steps: int
    wall_ms: float
    note: str = ""


def ratio_to_dt(ratio: float, h: float) -> float:
    return ratio * h**2 / 3.0


def run_accuracy_sweep(case: ManufacturedCase, grid_sizes, ratios, shift_orders,
                       T: float = 1.0, filter_on: bool = True,
                       kappa_fraction: float = 1.0) -> list[SweepRow]:
    """Integrate to T for every configuration and record final-time errors
    against the exact solution; failures are recorded, never raised."""
    rows = []
    for n in grid_sizes:
        grid = make_grid_1d(n)
        reaction = case.reaction()
        for ratio in ratios:
            dt = ratio_to_dt(ratio, grid.h)
            n_steps = max(2, round(T / dt))
            for order in shift_orders:
                out = integrate_1d(reaction, grid, dt, n_steps, case.boundary,
                                   case.initial(grid), shift_order=order,
                                   filter_on=filter_on,
                                   kappa_fraction=kappa_fraction)
                if out.stable:
                    ref = case.exact_field(grid, n_steps * dt)
                    l2, linf = error_norms(out.field, ref)
                else:
                    l2 = linf = float("nan")
                rows.append(SweepRow(n, dt, 3.0 * dt / grid.h**2, order, out.kappa,
                                     1, 0, l2, linf, out.stable, out.steps,
                                     out.wall_ms, out.failure or ""))
    return rows


def run_predator_prey(case: PredatorPreyCase, n_intervals: int, ratio: float,
                      T: float | None = None, n_steps: int | None = None,
                      shift_order: int = 1, filter_on: bool = True,
                      kappa_fraction: float = 1.0) -> tuple[SweepRow, dict]:
    grid = make_grid_1d(n_intervals)
    dt = ratio_to_dt(ratio, grid.h)
    if n_steps is None:
        n_steps = max(2, round((T if T is not None else 1.0) / dt))
    out = integrate_1d(case.reaction(), grid, dt, n_steps, case.boundary,
                       case.initial(grid), shift_order=shift_order,
                       filter_on=filter_on, kappa_fraction=kappa_fraction,
                       track_min=True)
    row = SweepRow(n_intervals, dt, ratio, shift_order, out.kappa, 1, 0,
                   float("nan"), float("nan"), out.stable, out.steps,
                   out.wall_ms, out.failure or "")
    trajectory = {
        "min_u": float(out.min_values[0]) if out.min_values is not None else float("nan"),
        "min_v": float(out.min_values[1]) if out.min_values is not None else float("nan"),
        "final_update": out.final_update,
        "final": out.field,
    }
    return row, trajectory


def _dd_stability_trial(grid: Grid1D, ratio: float, layout: SubdomainLayout | None,
                        n_steps: int = 500, shift_order: int = 1) -> bool:
    """Heat equation, homogeneous data, highest-mode seed; survive n_steps?"""
    dt = ratio_to_dt(ratio, grid.h)
    x = grid.nodes
    u0 = Field(grid, np.sin(x) + 1.0e-6 * np.sin((grid.n_intervals - 1) * x))
    out = integrate_1d(zero_reaction(), grid, dt, n_steps,
                       lambda t: (0.0, 0.0), u0, shift_order=shift_order,
                       filter_on=True, layout=layout)
    return out.stable


def bisect_max_stable_ratio(grid: Grid1D, layout: SubdomainLayout | None,
                            resolution: float = 0.1, ratio_max: float = 64.0,
                            n_steps: int = 500, shift_order: int = 1) -> float:
    """Largest stable 3 dt / h^2, bisected to the given resolution."""
    lo = 0.0
    hi = 1.0
    while hi <= ratio_max and _dd_stability_trial(grid, hi, layout, n_steps, shift_order):
        lo, hi = hi, hi * 2.0
    if hi > ratio_max:
        return lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _dd_stability_trial(grid, mid, layout, n_steps, shift_order):
            lo = mid
        else:
            hi = mid
    return lo


def run_dd_study(n_intervals: int, n_subdomains: int, overlaps,
                 resolution: float = 0.1, n_steps: int = 500) -> list[SweepRow]:
    """Maximal stable ratio per overlap for the heat equation, plus the
    single-domain reference row."""
    from .ddm import make_layout

    grid = make_grid_1d(n_intervals)
    rows = []
    t0 = time.perf_counter()
    r1 = bisect_max_stable_ratio(grid, None, resolution, n_steps=n_steps)
    rows.append(SweepRow(n_intervals, ratio_to_dt(r1, grid.h), r1, 1,
                         float("nan"), 1, 0, float("nan"), float("nan"), True,
                         n_steps, (time.perf_counter() - t0) * 1000.0))
    for ov in overlaps:
        cap = n_intervals // (2 * n_subdomains)
        note = "saturated" if ov >= cap else ""
        layout = make_layout(grid, n_subdomains, min(ov, cap if cap % 2 == 0 else cap - 1))
        t0 = time.perf_counter()
        r = bisect_max_stable_ratio(grid, layout, resolution, n_steps=n_steps)
        rows.append(SweepRow(n_intervals, ratio_to_dt(r, grid.h), r, 1,
                             float("nan"), n_subdomains, layout.overlap,
                             float("nan"), float("nan"), True, n_steps,
                             (time.perf_counter() - t0) * 1000.0, note))
    return rows
