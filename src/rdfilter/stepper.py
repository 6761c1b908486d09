"""Semi-implicit two-step time scheme.

Diffusion is treated explicitly by extrapolation, the (stiff) reaction
implicitly by a pointwise Newton solve:

    (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) = 2 Dxx u^n - Dxx u^{n-1} + f(u^{n+1})

Only the pointwise m x m Jacobian of f is ever formed; the node solves are
independent, so the whole implicit stage is a batched dense solve (a
division when m = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, Grid1D, ReactionSystem, SchemeState


@dataclass(frozen=True)
class StepConfig:
    dt: float
    newton_tol: float = 1.0e-12
    newton_max_iter: int = 25

    def __post_init__(self):
        if self.dt <= 0.0 or self.newton_tol <= 0.0 or self.newton_max_iter < 1:
            raise ValueError("invalid StepConfig")


class NewtonDivergence(RuntimeError):
    """Pointwise implicit solve failed; smaller dt or a better guess is needed."""

    def __init__(self, node, residual):
        self.node = node
        self.residual = residual
        super().__init__(f"Newton diverged at node {node}, residual {residual:.3e}")


def apply_dxx(field: Field, grid: Grid1D | None = None) -> Field:
    """Second-order central difference; boundary rows are 0 (Dirichlet nodes
    are prescribed, never updated by the stencil)."""
    grid = grid or field.grid
    u = field.values
    out = np.zeros_like(u)
    out[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / grid.h**2
    return field.with_values(out)


def newton_point_solve(rhs: np.ndarray, reaction: ReactionSystem, x, t: float,
                       cfg: StepConfig, initial: np.ndarray | None = None,
                       coeff: float | None = None) -> np.ndarray:
    """Solve c*u - f(x, t, u) = rhs at every node, c = 3/(2 dt) by default.

    ``rhs`` has shape (..., m); the solve is vectorized over the leading axes
    with one dense m x m factorization per node (a division for m = 1).
    Deterministic regardless of how nodes would be scheduled: every node only
    touches its own values.
    """
    rhs = np.asarray(rhs, dtype=float)
    if coeff is None:
        coeff = 3.0 / (2.0 * cfg.dt)
    u = np.array(rhs / coeff if initial is None else initial, dtype=float)
    eye = np.eye(reaction.m)

    def _tol(uv):
        # The residual lives on the scale coeff*|u|; an absolute tolerance
        # below roundoff on that scale is unattainable in float64.
        scale = coeff * float(np.max(np.abs(uv), initial=1.0))
        return cfg.newton_tol * max(1.0, scale)

    def _diverged(per_node, worst):
        # per_node: one number per node (leading axes); report its argmax.
        node = np.unravel_index(np.argmax(per_node.ravel()), per_node.shape)
        return NewtonDivergence(node[0] if len(node) == 1 else node, worst)

    for _ in range(cfg.newton_max_iter):
        residual = coeff * u - reaction.eval(x, t, u) - rhs
        if np.max(np.abs(residual)) <= _tol(u):
            return u
        jac = coeff * eye - reaction.jacobian(x, t, u)
        if reaction.m == 1:  # a 1 x 1 solve is a division
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = residual / jac[..., 0]
        else:
            delta = np.linalg.solve(jac, residual[..., np.newaxis])[..., 0]
        if not np.isfinite(delta).all():  # a zero 1 x 1 Jacobian, or an overflow
            bad = ~np.isfinite(delta).all(axis=-1)
            raise _diverged(bad, float(np.max(np.abs(residual[bad]))))
        u = u - delta
    residual = coeff * u - reaction.eval(x, t, u) - rhs
    worst = np.abs(residual)
    if np.max(worst) <= _tol(u):
        return u
    raise _diverged(worst.max(axis=-1), float(np.max(worst)))


def step(state: SchemeState, reaction: ReactionSystem, cfg: StepConfig,
         bc: tuple[np.ndarray, np.ndarray]) -> Field:
    """One step of the two-step scheme; returns u^{n+1}.

    ``bc`` holds the Dirichlet values (left, right) at t_{n+1}, each of
    shape (m,) (scalars accepted for m = 1).
    """
    un, um1 = state.u_curr, state.u_prev
    grid = un.grid
    dxx_n = apply_dxx(un).values
    dxx_m1 = apply_dxx(um1).values
    rhs = ((4.0 * un.values - um1.values) / (2.0 * cfg.dt)
           + 2.0 * dxx_n - dxx_m1)
    t_next = state.time + cfg.dt
    x_int = grid.nodes[1:-1]
    u_int = newton_point_solve(rhs[1:-1], reaction, x_int, t_next, cfg,
                               initial=un.values[1:-1])
    out = np.empty_like(un.values)
    out[1:-1] = u_int
    out[0] = np.broadcast_to(np.atleast_1d(np.asarray(bc[0], dtype=float)), (un.m,))
    out[-1] = np.broadcast_to(np.atleast_1d(np.asarray(bc[1], dtype=float)), (un.m,))
    return un.with_values(out)


def startup_step(u0: Field, reaction: ReactionSystem, cfg: StepConfig,
                 bc: tuple[np.ndarray, np.ndarray]) -> Field:
    """Produce u^1 for the two-step scheme.

    One backward-Euler-in-reaction / forward-Euler-in-diffusion step,
    (u^1 - u^0)/dt = Dxx u^0 + f(u^1); locally second order, so the global
    accuracy of the scheme is unharmed.
    """
    grid = u0.grid
    dxx0 = apply_dxx(u0).values
    coeff = 1.0 / cfg.dt
    rhs = coeff * u0.values + dxx0
    x_int = grid.nodes[1:-1]
    u_int = newton_point_solve(rhs[1:-1], reaction, x_int, cfg.dt, cfg,
                               initial=u0.values[1:-1], coeff=coeff)
    out = np.empty_like(u0.values)
    out[1:-1] = u_int
    out[0] = np.broadcast_to(np.atleast_1d(np.asarray(bc[0], dtype=float)), (u0.m,))
    out[-1] = np.broadcast_to(np.atleast_1d(np.asarray(bc[1], dtype=float)), (u0.m,))
    return u0.with_values(out)


def recurrence_roots(dt: float, lam: float) -> np.ndarray:
    """Roots of the per-mode characteristic polynomial of the linear scheme,
    3 z^2 - (4 + 4 dt lam) z + (1 + 2 dt lam) = 0."""
    return np.roots([3.0, -(4.0 + 4.0 * dt * lam), 1.0 + 2.0 * dt * lam])


def mode_is_stable(dt: float, lam: float, tol: float = 1.0e-12) -> bool:
    return bool(np.max(np.abs(recurrence_roots(dt, lam))) <= 1.0 + tol)
