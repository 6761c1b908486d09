"""Test problems and experiment harness: manufactured solutions, the
predator-prey system with excited boundaries, accuracy sweeps over the
normalized step ratio 3 dt / h^2, and domain-decomposition overlap studies.

One case type, one driver and one scorer serve 1D and 2D grids:
``ManufacturedCase``, ``integrate`` (the one step loop, and the one place
that calls ``stepper.estimate_uxx`` for the postprocess) and ``run_case``.
Each step makes one ``postprocess_field`` call, which picks its path by N,
axis by axis in 2D: a memoized matrix product on at most
``filtering.MATRIX_MAX_N`` intervals, the DSTs above.

The manufactured cases evaluate each spatial factor once per node array
(``once_per_node_array``), so a step only scales it by its time factor.  A
read-only node array, as the grids and ``core.node_coordinates`` hand out, is
treated as immutable and evaluated once; anything else is evaluated fresh."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from .core import (
    BLOWUP_THRESHOLD,
    ConfigError,
    Field,
    Grid1D,
    Grid2D,
    ReactionSystem,
    make_grid_1d,
    node_coordinates,
    read_only,
    require_bool,
    require_positive,
    require_whole,
    source_reaction,
    zero_reaction,
)
from .ddm import SubdomainLayout, make_layout
from .filtering import kappa_critical, postprocess_field
from .stepper import NewtonDivergence, estimate_uxx, step


# ---------------------------------------------------------------------------
# Test cases

@dataclass(frozen=True)
class ManufacturedCase:
    """Chosen exact solution with its induced source s = u_t - lap u, on a 1D
    or a 2D grid.  ``exact(nodes, t)`` and ``source(nodes, t)`` take node
    coordinates as ``core.node_coordinates`` hands them to a reaction: the x
    array in 1D, the pair (x, y) in 2D, of parts that broadcast together."""

    exact: Callable
    source: Callable

    def reaction(self) -> ReactionSystem:
        return source_reaction(self.source)

    def boundary(self, t: float, grid: Grid1D | Grid2D | None = None):
        """The Dirichlet data at t in ``stepper.set_boundary``'s format.  With
        no grid or a Grid1D, the pair at x = 0 and pi; on a Grid2D the edge
        dict, ``exact`` called once per edge with one coordinate that edge's
        node array and the other its constant 0 or pi, so the two edges
        through a corner agree there."""
        if not isinstance(grid, Grid2D):
            return float(self.exact(0.0, t)), float(self.exact(np.pi, t))
        x, y = grid.nodes_x, grid.nodes_y
        return {"g0": self.exact((x, 0.0), t), "gpi": self.exact((x, np.pi), t),
                "h0": self.exact((0.0, y), t), "hpi": self.exact((np.pi, y), t)}

    def initial(self, grid: Grid1D | Grid2D) -> Field:
        return self.exact_field(grid, 0.0)

    def exact_field(self, grid: Grid1D | Grid2D, t: float) -> Field:
        """``exact`` at every node, at ``core.node_coordinates``."""
        return Field(grid, self.exact(node_coordinates(grid), t))


# Read-only node arrays one ``once_per_node_array`` factor keeps.
_NODE_MEMO_SIZE = 4


def once_per_node_array(factor: Callable) -> Callable:
    """``factor(x)``, a function of the node coordinates alone (an array, as
    ``np.asarray`` gives it), evaluated once per read-only node array.  A
    read-only ``ndarray`` is treated as immutable, as the grids' node arrays
    and ``core.node_coordinates`` are: its value is kept read-only, with the
    array itself, so that its id cannot be reused.  Anything else (a writable
    array, a scalar, a list) is evaluated fresh and not kept.  The oldest of
    ``_NODE_MEMO_SIZE`` entries goes first; a run passes a factor at most two
    read-only arrays a step (the interior nodes, and an edge or every node), so
    a step never evicts one."""
    memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def memoized(x):
        if not isinstance(x, np.ndarray) or x.flags.writeable:
            return factor(np.asarray(x))
        hit = memo.get(id(x))
        if hit is None:
            if len(memo) >= _NODE_MEMO_SIZE:
                del memo[next(iter(memo))]
            hit = memo[id(x)] = (x, read_only(np.asarray(factor(x))))
        return hit[1]

    return memoized


def manufactured_heat_case() -> ManufacturedCase:
    """u(x,t) = cos(t) phi(x) with phi(x) = (x/pi)^4 + cos(3x)."""
    phi = once_per_node_array(lambda x: (x / np.pi) ** 4 + np.cos(3.0 * x))
    phi_xx = once_per_node_array(lambda x: 12.0 * x**2 / np.pi**4 - 9.0 * np.cos(3.0 * x))

    def exact(x, t):
        return np.cos(t) * phi(x)

    def source(x, t):
        return -np.sin(t) * phi(x) - np.cos(t) * phi_xx(x)

    return ManufacturedCase(exact, source)


def quadratic_manufactured_case() -> ManufacturedCase:
    """u(x,t) = cos(omega t) (1 + x (pi - x)) with omega = 10.

    The second-difference stencil is exact on quadratics, so the numerical
    error of this case is purely temporal; used to observe the order in dt.
    """
    omega = 10.0
    quadratic = once_per_node_array(lambda x: 1.0 + x * (np.pi - x))

    def exact(x, t):
        return np.cos(omega * t) * quadratic(x)

    def source(x, t):
        return -omega * np.sin(omega * t) * quadratic(x) + 2.0 * np.cos(omega * t)

    return ManufacturedCase(exact, source)


def manufactured_heat_case_square() -> ManufacturedCase:
    """u(x,y,t) = cos(t) cos(2x) cos(y) on the square, with induced source
    s = u_t - lap u.  cos(2x) and cos(y) are kept apart: multiplied first,
    they round otherwise."""
    cos_2x = once_per_node_array(lambda x: np.cos(2.0 * x))
    cos_y = once_per_node_array(np.cos)

    def exact(xy, t):
        x, y = xy
        return np.cos(t) * cos_2x(x) * cos_y(y)

    def source(xy, t):
        x, y = xy
        return (-np.sin(t) + 5.0 * np.cos(t)) * cos_2x(x) * cos_y(y)

    return ManufacturedCase(exact, source)


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
            raise ValueError(f"sign_variant: unknown value {self.sign_variant!r}, "
                             "expected one of 'printed', 'classical'")
        require_positive("base_level", self.base_level)
        require_bool("excited", self.excited)

    def ode_rhs(self, w: np.ndarray) -> np.ndarray:
        u, v, f = w[..., 0], w[..., 1], np.empty(w.shape)
        np.subtract(self.a * u, self.b * u * v, out=f[..., 0])
        if self.sign_variant == "printed":
            np.subtract(-self.c * u, self.d * u * v, out=f[..., 1])
        else:
            np.add(-self.c * v, self.d * u * v, out=f[..., 1])
        return f

    def ode_jacobian(self, w: np.ndarray) -> np.ndarray:
        u, v = w[..., 0], w[..., 1]
        j = np.empty(w.shape[:-1] + (2, 2))
        np.subtract(self.a, self.b * v, out=j[..., 0, 0])
        np.multiply(-self.b, u, out=j[..., 0, 1])
        if self.sign_variant == "printed":
            np.subtract(-self.c, self.d * v, out=j[..., 1, 0])
            np.multiply(-self.d, u, out=j[..., 1, 1])
        else:
            np.multiply(self.d, v, out=j[..., 1, 0])
            np.add(-self.c, self.d * u, out=j[..., 1, 1])
        return j

    def reaction(self) -> ReactionSystem:
        return ReactionSystem(
            eval=lambda x, t, w: self.ode_rhs(w),
            jacobian=lambda x, t, w: self.ode_jacobian(w),
        )

    def boundary(self, t: float, grid: Grid1D | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The (left, right) pair at t; the case is 1D, so ``grid`` is not read."""
        level = self.base_level * (1.0 + np.cos(t) if self.excited else 1.0)
        return np.full(2, level), np.full(2, level)

    def initial(self, grid: Grid1D) -> Field:
        if not isinstance(grid, Grid1D):
            raise ValueError(f"grid: the predator-prey case is 1D, got {grid}")
        return Field(grid, np.tile(self.boundary(0.0)[0], (len(grid.nodes), 1)))


# ---------------------------------------------------------------------------
# Norms

def error_norms(u: Field, reference: Field) -> tuple[float, float]:
    """Trapezoidal discrete L2 and sup norm of the difference; the weight of a
    node is the product of one trapezoid weight per node axis (h = pi/N).
    The two fields must share their grid and their component count."""
    if reference.values.shape != u.values.shape:  # the shape fixes grid and m
        raise ValueError(f"reference: must share u's grid and component count, "
                         f"got values of shape {reference.values.shape} for {u.values.shape}")
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
    """``kappa`` holds the stretching factor of each node axis, x first, NaN
    on every axis of an unfiltered run."""

    field: Field | None
    stable: bool
    steps: int
    wall_ms: float
    kappa: tuple[float, ...]
    min_values: np.ndarray
    final_update: float = np.inf
    failure: str | None = None


def integrate(reaction: ReactionSystem, grid: Grid1D | Grid2D, dt: float, n_steps: int,
              bc_at: Callable, u0: Field, shift_order: int = 1, filter_on: bool = True,
              kappa_fraction: float = 1.0,
              layout: SubdomainLayout | None = None) -> RunOutcome:
    """``n_steps`` steps of size ``dt`` from u0 on a 1D or a 2D grid, the
    first one the startup step, each followed by one ``postprocess_field``
    call (which picks its path by N) when ``filter_on``.  ``bc_at(t)``
    returns the Dirichlet data at t in ``stepper.set_boundary``'s format.
    The startup step takes the first-order shift: only two time levels exist
    there.  The loop keeps only the two time levels, u^{n-1} None until the
    startup step has run; ``step`` derives its one Laplacian from them.
    Each of the d node axes filters with kappa_fraction * kappa_c(d dt,
    pi / N_axis), its share of the stability budget (see
    ``solver2d.kappa_critical_2d``).  A 2D grid takes neither
    the third-order shift nor a strip ``layout`` yet: both are rejected by
    name before the first step, and so is a layout of another 1D grid.  So
    are, with the filter off, a shift order 3, a ``layout`` and a
    ``kappa_fraction`` other than 1: nothing reads them; and at shift order
    3, a strip the third-order shift cannot take (``shift.cosine_trend``),
    by one ``postprocess_field`` call on u0.

    A step is blown up (``Field.blown_up``) when its values exceed
    ``core.BLOWUP_THRESHOLD`` after its postprocess; every step but the
    startup step is also checked before it.
    A blow-up or a Newton failure ends the run and is reported, never raised.
    ``filter_on`` must be a bool.
    ``final_update`` is max |u^N - u^{N-1}| / dt over the last two levels, once
    a step after the startup step has completed, else inf.  ``min_values``
    are the per-component minima over u0 and every completed step.
    """
    shift_order = require_whole("shift_order", shift_order)
    n_steps = require_whole("n_steps", n_steps, 0)
    if shift_order not in (1, 3):
        raise ValueError(f"shift_order: must be 1 or 3, got {shift_order}")
    if isinstance(grid, Grid2D) and shift_order != 1:
        raise ValueError("shift_order: a 2D grid takes only shift order 1")
    if u0.grid != grid:
        raise ValueError(f"u0: lives on {u0.grid}, not on {grid}")
    if layout is not None and layout.grid != grid:  # a layout's grid is 1D
        raise ValueError(f"layout: is for {layout.grid}, not for {grid}")
    require_positive("dt", dt)
    require_positive("kappa_fraction", kappa_fraction)
    require_bool("filter_on", filter_on)
    if not filter_on and (shift_order != 1 or layout is not None or kappa_fraction != 1.0):
        key = ("shift_order" if shift_order != 1 else "layout" if layout is not None
               else "kappa_fraction")
        raise ValueError(f"{key}: only a filtered run reads it, and filter_on is off")
    kappa = tuple(kappa_fraction * kappa_critical(len(grid.node_shape) * dt, np.pi / (n - 1))
                  if filter_on else float("nan") for n in grid.node_shape)
    if shift_order == 3 and layout is not None:
        postprocess_field(u0, kappa, u0, layout)  # raises on a strip it cannot take
    mins = u0.values.reshape(-1, u0.m).min(axis=0)
    start = time.perf_counter()

    def _done(stable, steps, fld, failure=None, levels=None):
        wall = (time.perf_counter() - start) * 1000.0
        update = np.inf
        if levels is not None and steps >= 2:
            update = float(np.max(np.abs(levels[0].values - levels[1].values))) / dt
        return RunOutcome(fld, stable, steps, wall, kappa, mins, update, failure)

    u_prev, u_curr = None, u0
    for n in range(n_steps):
        t_next = n * dt + dt
        try:
            u_new = step(u_curr, u_prev, reaction, n * dt, dt, bc_at(t_next))
        except NewtonDivergence as exc:
            return _done(False, n, u_curr, str(exc), (u_curr, u_prev))
        if (u_prev is not None or not filter_on) and u_new.blown_up():
            return _done(False, n + 1, u_new)
        if filter_on:
            uxx = None if u_prev is None or shift_order == 1 else estimate_uxx(
                u_new, u_curr, u_prev, reaction, dt, t_next)
            u_new = postprocess_field(u_new, kappa, uxx, layout)
            if u_new.blown_up():
                return _done(False, n + 1, u_new)
        mins = np.minimum(mins, u_new.values.reshape(-1, u0.m).min(axis=0))
        u_prev, u_curr = u_curr, u_new
    return _done(True, n_steps, u_curr, levels=(u_curr, u_prev))


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


# The largest normalized step 3 dt / h^2 the overlap study tries, and its first:
# a power of two, so halving from it tries the powers that doubling from 1 would.
RATIO_MAX = 64.0
# The most steps a run may ask for: about 2,500 times the most any acceptance
# criterion takes (criterion 5 at N = 256 and ratio 0.5, some 40,000 steps).
MAX_STEPS = 10**8
# The largest N whose DD trial steps as its assembled map: dense products beat a
# step's ~70 NumPy calls only at small N.  New / old trial time (ratio 4, 4 strips,
# overlap 8, 2-core x86) at N =  64   128  160  192  256
#                  100 steps:  0.32 0.59 0.76 1.02 1.63
#                  500 steps:  0.23 0.42 0.50 0.67 0.99
DD_ASSEMBLED_MAX_N = 128


def ratio_to_dt(ratio: float, h: float) -> float:
    require_positive("ratio", ratio)
    require_positive("h", h)
    return ratio * h**2 / 3.0


def steps_to(T: float, dt: float) -> int:
    """round(T / dt): a run to T ends at round(T/dt)*dt.  A T or dt that is not finite
    and positive raises a ConfigError naming it; fewer than two steps (the startup
    step and one two-step update), or more than MAX_STEPS, one naming T."""
    require_positive("T", T, ConfigError)
    require_positive("dt", dt, ConfigError)
    if not T / dt <= MAX_STEPS:  # an infinite T / dt too
        raise ConfigError(f"T: {T:.6g} / dt = {dt:.6g} asks for more than "
                          f"MAX_STEPS = {MAX_STEPS:.0e} steps")
    if round(T / dt) < 2:
        raise ConfigError(f"T: {T:.6g} is under two steps of dt = {dt:.6g} (needs T >= 1.5 dt)")
    return round(T / dt)


def run_case(case: ManufacturedCase | PredatorPreyCase, grid: Grid1D | Grid2D, dt: float,
             n_steps: int, shift_order: int = 1, filter_on: bool = True,
             kappa_fraction: float = 1.0,
             layout: SubdomainLayout | None = None) -> tuple[SweepRow, RunOutcome]:
    """Integrate a case from its initial data on a 1D or a 2D grid and score
    it as one row, whose N and ratio are those of the x axis.  The errors are
    taken against ``case.exact_field`` at the final time when the case has
    one and the run was stable, else they are NaN."""
    out = integrate(case.reaction(), grid, dt, n_steps, partial(case.boundary, grid=grid),
                    case.initial(grid), shift_order=shift_order,
                    filter_on=filter_on, kappa_fraction=kappa_fraction, layout=layout)
    l2 = linf = float("nan")
    exact_field = getattr(case, "exact_field", None)
    if out.stable and exact_field is not None:
        l2, linf = error_norms(out.field, exact_field(grid, n_steps * dt))
    n_sub, overlap = (layout.n_subdomains, layout.overlap) if layout else (1, 0)
    n = grid.node_shape[0] - 1
    row = SweepRow(n, dt, 3.0 * dt / (np.pi / n)**2, shift_order, out.kappa[0],
                   n_sub, overlap, l2, linf, out.stable, out.steps, out.wall_ms,
                   out.failure or "")
    return row, out


def _each(key: str, values, what: str, check: Callable = lambda value: value) -> list:
    """``check`` of each of ``values``, a sequence of ``what``, as a list; a non-
    sequence, or a value ``check`` rejects, raises ValueError re-keyed to ``key``."""
    try:
        values = list(values)
    except TypeError:
        raise ValueError(f"{key}: must be a sequence of {what}, got {values!r}") from None
    try:
        return [check(value) for value in values]
    except ValueError as err:
        raise ValueError(f"{key}: {str(err).partition(': ')[2] or err}") from None


def run_accuracy_sweep(case: ManufacturedCase, grid_sizes, ratios, shift_orders,
                       T: float = 1.0, filter_on: bool = True,
                       kappa_fraction: float = 1.0) -> list[SweepRow]:
    """Integrate to T for every configuration and record final-time errors
    against the exact solution; failures are recorded, never raised.  Each
    sequence, by its key, and each run's T are checked before the first run."""
    grids = _each("grid_sizes", grid_sizes, "interval counts", make_grid_1d)
    ratios = _each("ratios", ratios, "normalized steps")  # each by ``ratio_to_dt``, as ratio
    orders = _each("shift_orders", shift_orders, "orders", partial(require_whole, "shift_order"))
    if not set(orders) <= {1, 3}:  # as ``integrate`` takes them
        raise ValueError(f"shift_orders: must each be 1 or 3, got {orders}")
    runs = [(grid, dt, steps_to(T, dt)) for grid in grids
            for dt in (ratio_to_dt(ratio, grid.h) for ratio in ratios)]
    return [run_case(case, grid, dt, n_steps, shift_order=order, filter_on=filter_on,
                     kappa_fraction=kappa_fraction)[0]
            for grid, dt, n_steps in runs for order in orders]


def run_predator_prey(case: PredatorPreyCase, n_intervals: int, ratio: float,
                      n_steps: int, shift_order: int = 1) -> tuple[SweepRow, dict]:
    """Run ``n_steps`` steps at 3 dt / h^2 = ratio, tracking each species' minimum."""
    grid = make_grid_1d(n_intervals)
    dt = ratio_to_dt(ratio, grid.h)
    row, out = run_case(case, grid, dt, n_steps, shift_order=shift_order)
    return row, {"min_u": float(out.min_values[0]), "min_v": float(out.min_values[1]),
                 "final_update": out.final_update, "final": out.field}


def _dd_stability_trial(grid: Grid1D, ratio: float, layout: SubdomainLayout | None,
                        n_steps: int = 500) -> tuple[bool, int]:
    """Heat equation, zero data, highest-mode seed: (survived n_steps?, steps run
    as ``RunOutcome.steps`` counts them).  Up to ``DD_ASSEMBLED_MAX_N`` intervals,
    after the startup step in ``integrate``, z = (u^n, u^{n-1}) steps as P [A B] z
    on plain arrays, checked before and after P: [A B] is ``step`` on 64 unit
    columns a call, P the postprocess of the identity."""
    x, n = grid.nodes, grid.n_intervals
    u0 = Field(grid, np.sin(x) + 1.0e-6 * np.sin((n - 1) * x))
    reaction, dt, zero = zero_reaction(), ratio_to_dt(ratio, grid.h), (0.0, 0.0)
    out = integrate(reaction, grid, dt, 1 if n <= DD_ASSEMBLED_MAX_N else n_steps,
                    lambda t: zero, u0, layout=layout)
    if n > DD_ASSEMBLED_MAX_N or not out.stable:
        return out.stable, out.steps
    AB = np.empty((n + 1, 2 * n + 2))  # column j: the step of (u^n, u^{n-1}) = e_j
    for c0 in range(0, 2 * n + 2, 64):
        unit = np.eye(2 * n + 2, min(64, 2 * n + 2 - c0), -c0)
        AB[:, c0:c0 + unit.shape[1]] = step(Field(grid, unit[:n + 1]), Field(grid, unit[n + 1:]),
                                            reaction, 0.0, dt, zero).values
    P = postprocess_field(Field(grid, np.eye(n + 1)), out.kappa, layout=layout).values
    z = np.concatenate((out.field.values[:, 0], u0.values[:, 0]))
    for k in range(1, n_steps):
        v = AB @ z  # checked as ``Field.blown_up`` checks, and P applied only if it passes
        if not (np.abs(v).max() <= BLOWUP_THRESHOLD
                and np.abs(w := P @ v).max() <= BLOWUP_THRESHOLD):
            return False, k + 1
        z = np.concatenate((w, z[:n + 1]))
    return True, n_steps


def bisect_max_stable_ratio(grid: Grid1D, layout: SubdomainLayout | None,
                            resolution: float = 0.1, n_steps: int = 500) -> float:
    """Largest 3 dt / h^2 whose ``_dd_stability_trial`` survives n_steps, searched
    from the cap down: RATIO_MAX if its trial survives, else halve to the first
    survivor 2^j and bisect [2^j, 2^(j+1)] ([0, 1] if none survives) to the given
    resolution, or until the midpoint rounds to an end.  A ``resolution`` that
    is not finite and positive, or ``n_steps`` below 2, raises naming it."""
    require_positive("resolution", resolution)
    n_steps = require_whole("n_steps", n_steps, 2)  # the startup step alone grows no mode
    lo = RATIO_MAX
    while lo >= 1.0 and not _dd_stability_trial(grid, lo, layout, n_steps)[0]:
        lo *= 0.5
    if lo == RATIO_MAX:
        return lo
    lo, hi = (lo if lo >= 1.0 else 0.0), 2.0 * lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _dd_stability_trial(grid, mid, layout, n_steps)[0]:
            lo = mid
        else:
            hi = mid
    return lo


def dd_layout(grid: Grid1D, n_subdomains: int, overlap: int) -> tuple[SubdomainLayout, str]:
    """The strip layout of one ``run_dd_study`` row and its note.  The cap is
    the largest even width not above N / (2 n_subdomains): a row at the cap
    is noted "saturated", a wider overlap raises ValueError.  The layout is
    built first, so it names a strip count or an overlap it cannot take."""
    layout = make_layout(grid, n_subdomains, overlap)
    cap = grid.n_intervals // (2 * layout.n_subdomains) // 2 * 2
    if layout.overlap > cap:
        raise ValueError(f"overlap: {overlap} is above the cap {cap}, the largest even "
                         "width <= N / (2 n_subdomains)")
    return layout, "saturated" if layout.overlap == cap else ""


def run_dd_study(n_intervals: int, n_subdomains: int, overlaps,
                 resolution: float = 0.1, n_steps: int = 500) -> list[SweepRow]:
    """Maximal stable ratio per overlap for the heat equation, after the
    single-domain reference row.  Every layout is built before the first
    bisection, so ``n_steps`` below 2, too many strips for N at overlap 2 or
    an overlap ``dd_layout`` rejects (keyed ``overlaps``) fails at once.  Each
    row's search starts at RATIO_MAX; a row whose trial there survived is
    noted "capped": its true limit may lie above."""
    n_steps = require_whole("n_steps", n_steps, 2)
    grid = make_grid_1d(n_intervals)
    make_layout(grid, n_subdomains, 2)  # too many strips for N, named n_subdomains
    layouts = _each("overlaps", overlaps, "overlap widths", partial(dd_layout, grid, n_subdomains))
    rows = []
    for layout, note in [(None, "")] + layouts:
        t0 = time.perf_counter()
        r = bisect_max_stable_ratio(grid, layout, resolution, n_steps=n_steps)
        if r >= RATIO_MAX:
            note = ", ".join(filter(None, (note, "capped")))
        n_sub, overlap = (layout.n_subdomains, layout.overlap) if layout else (1, 0)
        dt = ratio_to_dt(r, grid.h) if r > 0.0 else 0.0  # 0: no ratio tried survived
        rows.append(SweepRow(n_intervals, dt, r, 1, float("nan"),
                             n_sub, overlap, float("nan"), float("nan"), True, n_steps,
                             (time.perf_counter() - t0) * 1000.0, note))
    return rows


# ---------------------------------------------------------------------------
# Kept only because perfbench/workloads.py calls these names and the benchmark
# changes in its own commits, never with the solver.  The next benchmark commit
# moves the workloads to ``integrate`` and ``manufactured_heat_case_square`` and
# drops this block, with ``core.Field2D``.

integrate_1d = integrate


def integrate_2d(reaction, grid, dt, n_steps, bc, u0, _run=integrate):
    # ``_run`` is bound here, not looked up: a tracer that wraps the object
    # ``integrate_1d`` names, under every name that holds it, must see one
    # driver span per 2D run, this one
    return _run(reaction, grid, dt, n_steps, partial(bc.boundary, grid=grid), u0)


def manufactured_heat_case_2d() -> dict:
    case = manufactured_heat_case_square()
    return {"exact": lambda x, y, t: case.exact((x, y), t), "reaction": case.reaction(),
            "bc": case}
