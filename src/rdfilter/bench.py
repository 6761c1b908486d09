"""Test problems and experiment harness: manufactured solutions, the
predator-prey system with excited boundaries, accuracy sweeps over the
normalized step ratio 3 dt / h^2, and domain-decomposition overlap studies.

The drivers ``integrate_1d`` and ``integrate_2d`` only build their boundary
sampler and their postprocess; both run the one step loop, ``_time_loop``,
the one place that turns the time levels into u_xx for the postprocess."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    ConfigError,
    Field,
    Grid1D,
    Grid2D,
    ReactionSystem,
    SchemeState,
    make_grid_1d,
    source_reaction,
    zero_reaction,
)
from .ddm import SubdomainLayout, make_layout
from .filtering import KappaMonitor, kappa_critical, postprocess_field
from .solver2d import BoundaryData2D, kappa_critical_2d, postprocess2d
from .stepper import NewtonDivergence, apply_laplacian, estimate_uxx_nodes, step


def _require_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name}: must be finite and positive, got {value!r}")


# ---------------------------------------------------------------------------
# Test cases

@dataclass(frozen=True)
class ManufacturedCase:
    """Chosen exact solution with its induced source s = u_t - u_xx."""

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

    return ManufacturedCase(exact, source)


def quadratic_manufactured_case() -> ManufacturedCase:
    """u(x,t) = cos(omega t) (1 + x (pi - x)) with omega = 10.

    The second-difference stencil is exact on quadratics, so the numerical
    error of this case is purely temporal; used to observe the order in dt.
    """
    omega = 10.0

    def exact(x, t):
        x = np.asarray(x)
        return np.cos(omega * t) * (1.0 + x * (np.pi - x))

    def source(x, t):
        x = np.asarray(x)
        return -omega * np.sin(omega * t) * (1.0 + x * (np.pi - x)) + 2.0 * np.cos(omega * t)

    return ManufacturedCase(exact, source)


def manufactured_heat_case_2d() -> dict:
    """u(x,y,t) = cos(t) cos(2x) cos(y) with induced source s = u_t - lap u."""

    def exact(x, y, t):
        return np.cos(t) * np.cos(2.0 * np.asarray(x)) * np.cos(np.asarray(y))

    def source(xy, t):
        x, y = xy
        return (-np.sin(t) + 5.0 * np.cos(t)) * np.cos(2.0 * x) * np.cos(y)

    return {"exact": exact, "reaction": source_reaction(source), "bc": BoundaryData2D(exact)}


@dataclass(frozen=True)
class PredatorPreyCase:
    """Reaction-diffusion predator-prey system on (0, pi), with the rates
    a, b, c, d = 1.2, 1.0, 0.1, 0.2.

    Both species are held at ``base_level`` at both ends, times 1 + cos t
    when ``excited``; the initial data is the boundary value at t = 0 at
    every node.  ``sign_variant`` 'printed' uses dv/dt = v_xx - c u - d u v;
    'classical' uses dv/dt = v_xx - c v + d u v (the form whose reaction-only
    ODE actually orbits a cycle and keeps both species nonnegative).
    """

    a: ClassVar[float] = 1.2
    b: ClassVar[float] = 1.0
    c: ClassVar[float] = 0.1
    d: ClassVar[float] = 0.2
    base_level: float = 1.0
    excited: bool = True
    sign_variant: str = "classical"

    def __post_init__(self):
        if self.sign_variant not in ("printed", "classical"):
            raise ValueError("sign_variant must be 'printed' or 'classical'")
        _require_positive("base_level", self.base_level)

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
        level = self.base_level * (1.0 + np.cos(t) if self.excited else 1.0)
        return np.full(2, level), np.full(2, level)

    def initial(self, grid: Grid1D) -> Field:
        return Field(grid, np.tile(self.boundary(0.0)[0], (len(grid.nodes), 1)))


def ode_orbit_check(case: PredatorPreyCase) -> bool:
    """Fine-step ODE oracle: does the reaction-only trajectory from (1, 1)
    come back within 0.05 of its start over t in [1, 120] (a cycle) rather
    than spiral to equilibrium or leave the positive quadrant?"""
    w0, t_max = (1.0, 1.0), 120.0
    sol = solve_ivp(lambda t, w: case.ode_rhs(np.asarray(w)), (0.0, t_max), w0,
                    rtol=1.0e-10, atol=1.0e-12, dense_output=True, max_step=0.5)
    if not sol.success or np.min(sol.y) < -1.0e-8 or np.max(np.abs(sol.y)) > 1.0e6:
        return False
    t = np.linspace(1.0, t_max, 4000)
    w = sol.sol(t)
    dist = np.hypot(w[0] - w0[0], w[1] - w0[1])
    return bool(np.min(dist) < 0.05)


# ---------------------------------------------------------------------------
# Norms

def error_norms(u: Field, reference: Field) -> tuple[float, float]:
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
    field: Field | None
    stable: bool
    steps: int
    wall_ms: float
    kappa: float
    min_values: np.ndarray
    final_update: float = np.inf
    failure: str | None = None


def _time_loop(reaction: ReactionSystem, u0: Field, dt: float, n_steps: int,
               bc_at: Callable, postprocess: Callable | None, kappa: float) -> RunOutcome:
    """The step loop of both drivers: ``n_steps`` steps of size ``dt`` from u0,
    the first one the startup step, each followed by ``postprocess(u_new,
    uxx_at)`` unless that is None; ``uxx_at(nodes)`` estimates u_xx at those
    nodes from three levels, so it is None after the startup step.

    A step is blown up (``Field.blown_up``) when its values exceed
    ``core.BLOWUP_THRESHOLD`` after its postprocess; every step but the
    startup step is also checked before it.
    A blow-up or a Newton failure ends the run and is reported, never raised.
    ``final_update`` is max |u^N - u^{N-1}| / dt over the last two levels, once
    a step after the startup step has completed, else inf.  ``min_values``
    are the per-component minima over u0 and every completed step.
    """
    mins = np.min(u0.values.reshape(-1, u0.m), axis=0)
    start = time.perf_counter()

    def _done(stable, steps, fld, failure=None, levels=None):
        wall = (time.perf_counter() - start) * 1000.0
        update = np.inf
        if levels is not None and steps >= 2:
            update = float(np.max(np.abs(levels[0].values - levels[1].values))) / dt
        return RunOutcome(fld, stable, steps, wall, kappa, mins, update, failure)

    u_prev, u_curr, lap_prev = u0, u0, None  # lap_prev: L u^{n-1}, last step's L u^n
    for n in range(n_steps):
        t_next = n * dt + dt
        lap_curr = apply_laplacian(u_curr).values
        try:
            u_new = step(SchemeState(u_curr, u_prev, n * dt, dt, lap_curr, lap_prev),
                         reaction, bc_at(t_next), startup=n == 0)
        except NewtonDivergence as exc:
            return _done(False, n, u_curr, str(exc), (u_curr, u_prev))
        if (n > 0 or postprocess is None) and u_new.blown_up():
            return _done(False, n + 1, u_new)
        if postprocess is not None:
            uxx_at = None if n == 0 else partial(
                estimate_uxx_nodes, u_new, u_curr, u_prev, reaction, dt, t_next)
            u_new = postprocess(u_new, uxx_at)
            if u_new.blown_up():
                return _done(False, n + 1, u_new)
        mins = np.minimum(mins, np.min(u_new.values.reshape(-1, u0.m), axis=0))
        u_prev, u_curr, lap_prev = u_curr, u_new, lap_curr
    return _done(True, n_steps, u_curr, levels=(u_curr, u_prev))


def integrate_1d(reaction: ReactionSystem, grid: Grid1D, dt: float, n_steps: int,
                 bc_fn: Callable, u0: Field, shift_order: int = 1,
                 filter_on: bool = True, kappa_fraction: float = 1.0,
                 kappa_adapt: bool = False, layout: SubdomainLayout | None = None) -> RunOutcome:
    """Run the full pipeline for ``n_steps`` steps of size ``dt``.

    ``bc_fn(t)`` returns the Dirichlet pair at time t.  Postprocessing (when
    ``filter_on``) is applied after every step, including the startup step
    (which uses a first-order shift: only two time levels exist there).
    """
    if shift_order not in (1, 3):
        raise ValueError(f"shift_order must be 1 or 3, got {shift_order}")
    if u0.grid != grid:
        raise ValueError(f"u0 lives on {u0.grid}, not on {grid}")
    _require_positive("kappa_fraction", kappa_fraction)
    kappa = kappa_fraction * kappa_critical(dt, grid.h)
    monitor = KappaMonitor(kappa) if kappa_adapt else None

    def postprocess(u, uxx_at):
        return postprocess_field(u, kappa, uxx_at if shift_order == 3 else None,
                                 monitor, layout)

    out = _time_loop(reaction, u0, dt, n_steps, bc_fn,
                     postprocess if filter_on else None, kappa)
    if monitor is not None:
        out.kappa = monitor.kappa
    return out


def integrate_2d(reaction: ReactionSystem, grid: Grid2D, dt: float, n_steps: int,
                 bc: BoundaryData2D, u0: Field, filter_on: bool = True,
                 kappa_fraction: float = 1.0) -> RunOutcome:
    """2D driver; first-order shifts only."""
    if u0.grid != grid:
        raise ValueError(f"u0 lives on {u0.grid}, not on {grid}")
    _require_positive("kappa_fraction", kappa_fraction)
    kappa_x = kappa_fraction * kappa_critical_2d(dt, grid.hx)
    kappa_y = kappa_fraction * kappa_critical_2d(dt, grid.hy)

    def postprocess(u, uxx_at):
        return postprocess2d(u, kappa_x, kappa_y)

    return _time_loop(reaction, u0, dt, n_steps, lambda t: bc.sample(grid, t, u0.m),
                      postprocess if filter_on else None, kappa_x)


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


# The largest normalized step 3 dt / h^2 the overlap study tries.
RATIO_MAX = 64.0


def ratio_to_dt(ratio: float, h: float) -> float:
    return ratio * h**2 / 3.0


def steps_to(T: float, dt: float) -> int:
    """round(T / dt): a run to T ends at round(T/dt)*dt.  Fewer than two steps
    (the startup step and one two-step update) raise a ConfigError naming T."""
    if round(T / dt) < 2:
        raise ConfigError(f"T: {T:.6g} is under two steps of dt = {dt:.6g} (needs T >= 1.5 dt)")
    return round(T / dt)


def run_case_1d(case: ManufacturedCase | PredatorPreyCase, grid: Grid1D, dt: float,
                n_steps: int, shift_order: int = 1, filter_on: bool = True,
                kappa_fraction: float = 1.0, kappa_adapt: bool = False,
                layout: SubdomainLayout | None = None) -> tuple[SweepRow, RunOutcome]:
    """Integrate a 1D case from its initial data and score it as one row.  The
    errors are taken against ``case.exact_field`` at the final time when the
    case has one and the run was stable, else they are NaN."""
    out = integrate_1d(case.reaction(), grid, dt, n_steps, case.boundary,
                       case.initial(grid), shift_order=shift_order,
                       filter_on=filter_on, kappa_fraction=kappa_fraction,
                       kappa_adapt=kappa_adapt, layout=layout)
    l2 = linf = float("nan")
    exact_field = getattr(case, "exact_field", None)
    if out.stable and exact_field is not None:
        l2, linf = error_norms(out.field, exact_field(grid, n_steps * dt))
    n_sub, overlap = (layout.n_subdomains, layout.overlap) if layout else (1, 0)
    row = SweepRow(grid.n_intervals, dt, 3.0 * dt / grid.h**2, shift_order, out.kappa,
                   n_sub, overlap, l2, linf, out.stable, out.steps, out.wall_ms,
                   out.failure or "")
    return row, out


def run_accuracy_sweep(case: ManufacturedCase, grid_sizes, ratios, shift_orders,
                       T: float = 1.0, filter_on: bool = True,
                       kappa_fraction: float = 1.0) -> list[SweepRow]:
    """Integrate to T for every configuration and record final-time errors
    against the exact solution; failures are recorded, never raised.  A T
    shorter than two steps of any run raises before the first run starts."""
    runs = [(grid, dt, steps_to(T, dt)) for grid in map(make_grid_1d, grid_sizes)
            for dt in (ratio_to_dt(ratio, grid.h) for ratio in ratios)]
    return [run_case_1d(case, grid, dt, n_steps, shift_order=order, filter_on=filter_on,
                        kappa_fraction=kappa_fraction)[0]
            for grid, dt, n_steps in runs for order in shift_orders]


def run_predator_prey(case: PredatorPreyCase, n_intervals: int, ratio: float,
                      n_steps: int, shift_order: int = 1) -> tuple[SweepRow, dict]:
    """Run ``n_steps`` steps at 3 dt / h^2 = ratio, tracking each species' minimum."""
    grid = make_grid_1d(n_intervals)
    dt = ratio_to_dt(ratio, grid.h)
    row, out = run_case_1d(case, grid, dt, n_steps, shift_order=shift_order)
    return row, {"min_u": float(out.min_values[0]), "min_v": float(out.min_values[1]),
                 "final_update": out.final_update, "final": out.field}


def _dd_stability_trial(grid: Grid1D, ratio: float, layout: SubdomainLayout | None,
                        n_steps: int = 500) -> bool:
    """Heat equation, homogeneous data, highest-mode seed; survive n_steps?"""
    dt = ratio_to_dt(ratio, grid.h)
    x = grid.nodes
    u0 = Field(grid, np.sin(x) + 1.0e-6 * np.sin((grid.n_intervals - 1) * x))
    out = integrate_1d(zero_reaction(), grid, dt, n_steps,
                       lambda t: (0.0, 0.0), u0, layout=layout)
    return out.stable


def bisect_max_stable_ratio(grid: Grid1D, layout: SubdomainLayout | None,
                            resolution: float = 0.1, n_steps: int = 500) -> float:
    """Largest stable 3 dt / h^2, bisected to the given resolution (or until
    the midpoint rounds to an end); RATIO_MAX when every ratio up to that cap
    survives.  A ``resolution`` that is not finite and positive raises."""
    _require_positive("resolution", resolution)
    lo = 0.0
    hi = 1.0
    while hi <= RATIO_MAX and _dd_stability_trial(grid, hi, layout, n_steps):
        lo, hi = hi, hi * 2.0
    if hi > RATIO_MAX:
        return lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _dd_stability_trial(grid, mid, layout, n_steps):
            lo = mid
        else:
            hi = mid
    return lo


def dd_layout(grid: Grid1D, n_subdomains: int, overlap: int) -> tuple[SubdomainLayout, str]:
    """The strip layout of one ``run_dd_study`` row and its note.  The cap is
    the largest even width not above N / (2 n_subdomains): a row at the cap
    is noted "saturated", a wider overlap raises ValueError."""
    cap = grid.n_intervals // (2 * n_subdomains) // 2 * 2
    if overlap > cap:
        raise ValueError(f"overlap {overlap} is above the cap {cap}, the largest even "
                         "width <= N / (2 n_subdomains)")
    return make_layout(grid, n_subdomains, overlap), "saturated" if overlap == cap else ""


def run_dd_study(n_intervals: int, n_subdomains: int, overlaps,
                 resolution: float = 0.1, n_steps: int = 500) -> list[SweepRow]:
    """Maximal stable ratio per overlap for the heat equation, after the
    single-domain reference row.  Every layout is built before the first
    bisection, so an infeasible one fails at once.  A row whose bisection
    reached RATIO_MAX is noted "capped": its true limit may lie above."""
    grid = make_grid_1d(n_intervals)
    rows = []
    for layout, note in [(None, "")] + [dd_layout(grid, n_subdomains, ov) for ov in overlaps]:
        t0 = time.perf_counter()
        r = bisect_max_stable_ratio(grid, layout, resolution, n_steps=n_steps)
        if r >= RATIO_MAX:
            note = ", ".join(filter(None, (note, "capped")))
        n_sub, overlap = (layout.n_subdomains, layout.overlap) if layout else (1, 0)
        rows.append(SweepRow(n_intervals, ratio_to_dt(r, grid.h), r, 1, float("nan"),
                             n_sub, overlap, float("nan"), float("nan"), True, n_steps,
                             (time.perf_counter() - t0) * 1000.0, note))
    return rows
