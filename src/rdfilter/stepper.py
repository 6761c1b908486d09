"""Semi-implicit two-step time scheme: the one time stepper, for 1D and 2D.

Diffusion is treated explicitly by extrapolation, the (stiff) reaction
implicitly by a pointwise Newton solve:

    (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) = 2 L u^n - L u^{n-1} + f(u^{n+1})

with L the second-difference Laplacian over the node axes.  ``step`` runs
this update, or its startup variant, on a 1D or a 2D Field alike.

Only the pointwise m x m Jacobian of f is ever formed; the node solves are
independent, so the whole implicit stage is a batched dense solve (a
division when m = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, ReactionSystem, SchemeState, interior_nodes


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


def apply_laplacian(field: Field) -> Field:
    """Second-difference Laplacian: one second difference per node axis,
    axis 0 first, with h = pi/N along that axis.  Boundary nodes carry 0
    (Dirichlet nodes are prescribed, never updated by the stencil)."""
    u = field.values
    inner = (slice(1, -1),) * (u.ndim - 1)
    terms = []
    for axis in range(u.ndim - 1):
        h = np.pi / (u.shape[axis] - 1)
        below = inner[:axis] + (slice(None, -2),) + inner[axis + 1:]
        above = inner[:axis] + (slice(2, None),) + inner[axis + 1:]
        terms.append((u[below] - 2.0 * u[inner] + u[above]) / h**2)
    out = np.zeros_like(u)
    out[inner] = sum(terms[1:], terms[0])
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


def set_boundary(values: np.ndarray, bc) -> None:
    """Write Dirichlet data onto the boundary nodes of node-major ``values``.

    1D: ``bc`` is the (left, right) pair, each of shape (m,) (scalars accepted
    for m = 1).  2D: ``bc`` is the edge dict of ``BoundaryData2D.sample``; the
    y-edges are written first and the x-edges last, so the x-edges own the
    corners.
    """
    if values.ndim == 2:
        values[0], values[-1] = bc
    else:
        values[:, 0], values[:, -1] = bc["g0"], bc["gpi"]
        values[0], values[-1] = bc["h0"], bc["hpi"]


def step(state: SchemeState, reaction: ReactionSystem, cfg: StepConfig, bc,
         startup: bool = False) -> Field:
    """One step of the two-step scheme over the node axes of a 1D or 2D
    Field; returns u^{n+1} with the Dirichlet data ``bc`` at t_{n+1} (see
    ``set_boundary``).

    With ``startup`` it produces u^1 from u^0 = ``state.u_curr`` (``u_prev`` is
    not read): one backward-Euler-in-reaction / forward-Euler-in-diffusion
    step, (u^1 - u^0)/dt = L u^0 + f(u^1); locally second order, so the global
    accuracy of the scheme is unharmed.
    """
    un = state.u_curr
    if startup:
        coeff = 1.0 / cfg.dt
        rhs = coeff * un.values + apply_laplacian(un).values
    else:
        coeff = 3.0 / (2.0 * cfg.dt)
        um1 = state.u_prev
        rhs = ((4.0 * un.values - um1.values) / (2.0 * cfg.dt)
               + 2.0 * apply_laplacian(un).values - apply_laplacian(um1).values)
    inner = (slice(1, -1),) * (un.values.ndim - 1)
    out = np.empty_like(un.values)
    out[inner] = newton_point_solve(rhs[inner], reaction, interior_nodes(un.grid),
                                    state.time + cfg.dt, cfg,
                                    initial=un.values[inner], coeff=coeff)
    set_boundary(out, bc)
    return un.with_values(out)


def recurrence_roots(dt: float, lam: float) -> np.ndarray:
    """Roots of the per-mode characteristic polynomial of the linear scheme,
    3 z^2 - (4 + 4 dt lam) z + (1 + 2 dt lam) = 0."""
    return np.roots([3.0, -(4.0 + 4.0 * dt * lam), 1.0 + 2.0 * dt * lam])


def mode_is_stable(dt: float, lam: float, tol: float = 1.0e-12) -> bool:
    return bool(np.max(np.abs(recurrence_roots(dt, lam))) <= 1.0 + tol)
