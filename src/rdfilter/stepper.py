"""Semi-implicit two-step time scheme: the one time stepper, for 1D and 2D.

Diffusion is treated explicitly by extrapolation, the (stiff) reaction
implicitly by a pointwise Newton solve:

    (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) = 2 L u^n - L u^{n-1} + f(u^{n+1})

with L the second-difference Laplacian over the node axes.  ``step`` runs
this update, or its startup variant, on a 1D or a 2D Field alike; a time
loop hands it L u^{n-1} as the previous step's L u^n.  ``estimate_uxx_nodes``
reads u_xx back from the same levels, for the third-order shift.

The step size is ``SchemeState.dt``.  Only the pointwise m x m Jacobian of
f is ever formed, and none for a u-independent f; the node solves are
independent, so the whole implicit stage is a batched dense solve (a
division when m = 1), stopped at NEWTON_TOL or after NEWTON_MAX_ITER updates.
"""

from __future__ import annotations

import numpy as np

from .core import Field, ReactionSystem, SchemeState, interior_nodes

NEWTON_TOL = 1.0e-12
NEWTON_MAX_ITER = 25


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
                       coeff: float, initial: np.ndarray) -> np.ndarray:
    """Solve c*u - f(x, t, u) = rhs at every node, c = ``coeff``, by Newton
    from ``initial``.

    ``rhs`` has shape (..., m); the solve is vectorized over the leading axes
    with one dense m x m factorization per node (a division for m = 1).
    Deterministic regardless of how nodes would be scheduled: every node only
    touches its own values.  A ``u_independent`` f makes the equation linear
    in u: its Jacobian is not taken, and the first update solves it.  A node
    whose Jacobian is singular, or whose update is not finite, raises
    ``NewtonDivergence`` naming that node.
    """
    rhs = np.asarray(rhs, dtype=float)
    u = np.array(initial, dtype=float)
    eye = np.eye(reaction.m)
    f = reaction.eval(x, t, u)

    def _tol(uv):
        # The residual lives on the scale coeff*|u|; an absolute tolerance
        # below roundoff on that scale is unattainable in float64.
        scale = coeff * float(np.max(np.abs(uv), initial=1.0))
        return NEWTON_TOL * max(1.0, scale)

    def _diverged(per_node, worst):
        # per_node: one number per node (leading axes); report its argmax.
        node = np.unravel_index(np.argmax(per_node.ravel()), per_node.shape)
        return NewtonDivergence(node[0] if len(node) == 1 else node, worst)

    for iteration in range(NEWTON_MAX_ITER + 1):
        residual = coeff * u - f - rhs
        if np.max(np.abs(residual)) <= _tol(u):
            return u
        if iteration == NEWTON_MAX_ITER:
            break
        jac = coeff * eye if reaction.u_independent else coeff * eye - reaction.jacobian(x, t, u)
        if reaction.m == 1:  # a 1 x 1 solve is a division
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = residual / jac[..., 0]
        else:
            try:
                delta = np.linalg.solve(jac, residual[..., np.newaxis])[..., 0]
            except np.linalg.LinAlgError:  # singular at some node: find which
                delta = _solve_each_node(jac, residual)
        if not np.isfinite(delta).all():  # a singular Jacobian, or an overflow
            bad = ~np.isfinite(delta).all(axis=-1)
            raise _diverged(bad, float(np.max(np.abs(residual[bad]))))
        u = u - delta
        if reaction.u_independent:
            return u
        f = reaction.eval(x, t, u)
    worst = np.abs(residual)
    raise _diverged(worst.max(axis=-1), float(np.max(worst)))


def _solve_each_node(jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """The batched solve node by node, NaN at a node whose Jacobian is singular."""
    delta = np.full(residual.shape, np.nan)
    for node in np.ndindex(residual.shape[:-1]):
        try:
            delta[node] = np.linalg.solve(jac[node], residual[node])
        except np.linalg.LinAlgError:
            pass
    return delta


def set_boundary(values: np.ndarray, bc) -> None:
    """Write Dirichlet data onto the boundary nodes of node-major ``values``.

    1D: ``bc`` is the (left, right) pair, each of shape (m,) (scalars accepted
    for m = 1).  2D: ``bc`` maps 'g0'/'gpi' to the edges y = 0/pi and 'h0'/'hpi'
    to x = 0/pi, as ``BoundaryData2D.sample`` builds it; the y-edges are written
    first and the x-edges last, so the x-edges own the corners.
    """
    if values.ndim == 2:
        values[0], values[-1] = bc
    else:
        values[:, 0], values[:, -1] = bc["g0"], bc["gpi"]
        values[0], values[-1] = bc["h0"], bc["hpi"]


def step(state: SchemeState, reaction: ReactionSystem, bc, startup: bool = False) -> Field:
    """One step of size ``state.dt`` of the two-step scheme over the node axes
    of a 1D or 2D Field; returns u^{n+1} with the Dirichlet data ``bc`` at
    t_{n+1} (see ``set_boundary``).

    With ``startup`` it produces u^1 from u^0 = ``state.u_curr`` (``u_prev`` is
    not read): one backward-Euler-in-reaction / forward-Euler-in-diffusion
    step, (u^1 - u^0)/dt = L u^0 + f(u^1); locally second order, so the global
    accuracy of the scheme is unharmed.  A Laplacian the state lacks is
    computed here.
    """
    un, um1, dt = state.u_curr, state.u_prev, state.dt
    lap = apply_laplacian(un).values if state.lap_curr is None else state.lap_curr
    if startup:
        coeff = 1.0 / dt
        rhs = coeff * un.values + lap
    else:
        coeff = 3.0 / (2.0 * dt)
        lap_prev = apply_laplacian(um1).values if state.lap_prev is None else state.lap_prev
        rhs = (4.0 * un.values - um1.values) / (2.0 * dt) + 2.0 * lap - lap_prev
    inner = (slice(1, -1),) * (un.values.ndim - 1)
    out = np.empty_like(un.values)
    out[inner] = newton_point_solve(rhs[inner], reaction, interior_nodes(un.grid),
                                    state.time + dt, coeff, un.values[inner])
    set_boundary(out, bc)
    return un.with_values(out)


def estimate_uxx_nodes(u_next: Field, u_curr: Field, u_prev: Field,
                       reaction: ReactionSystem, dt: float, t_next: float,
                       idx: np.ndarray) -> np.ndarray:
    """u_xx at the given nodes from the PDE itself:
    u_xx ~= (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) - f(u^{n+1})."""
    idx = np.asarray(idx)
    xb = u_next.grid.nodes[idx]
    ub = (3.0 * u_next.values[idx] - 4.0 * u_curr.values[idx]
          + u_prev.values[idx]) / (2.0 * dt)
    fb = reaction.eval(xb, t_next, u_next.values[idx])
    return ub - fb


def recurrence_roots(dt: float, lam: float) -> np.ndarray:
    """Roots of the per-mode characteristic polynomial of the linear scheme,
    3 z^2 - (4 + 4 dt lam) z + (1 + 2 dt lam) = 0."""
    return np.roots([3.0, -(4.0 + 4.0 * dt * lam), 1.0 + 2.0 * dt * lam])
