"""Semi-implicit two-step time scheme: the one time stepper, for 1D and 2D.

Diffusion is treated explicitly by extrapolation, the (stiff) reaction
implicitly by a pointwise Newton solve:

    (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) = 2 L u^n - L u^{n-1} + f(u^{n+1})

with L the second-difference Laplacian over the node axes.  L is linear, so
the explicit part is one Laplacian, L(2 u^n - u^{n-1}), of the two levels.
``step`` takes the two levels and runs this update, or, given u^0 alone,
its startup variant, on a 1D or a 2D Field alike; ``estimate_uxx_nodes``
reads u_xx back from the same levels, for the third-order shift.

Only the pointwise Jacobian J of f is formed, none for a u-independent f,
and the identity only for m >= 2.  Each node's Newton update is independent
and solved on whole arrays: a division by c, or by c - J, when m = 1,
Cramer's rule when m = 2 (LAPACK for a node whose determinant it cannot
trust), LAPACK's batched solve when m >= 3.  It stops once the residual is
below NEWTON_TOL max|c I - J| max|u|, the size of its terms, or fails after
NEWTON_MAX_ITER updates.
"""

from __future__ import annotations

import numpy as np

from .core import Field, ReactionSystem, interior_nodes, require_positive

NEWTON_TOL = 1.0e-12
NEWTON_MAX_ITER = 25
_FLOAT = np.finfo(float)


class NewtonDivergence(RuntimeError):
    """Pointwise implicit solve failed; smaller dt or a better guess is needed."""

    def __init__(self, node, residual):
        self.node = node
        self.residual = residual
        super().__init__(f"Newton diverged at node {node}, residual {residual:.3e}")


def apply_laplacian(u: np.ndarray) -> np.ndarray:
    """Second-difference Laplacian of node-major values: one second difference
    per node axis, axis 0 first, with h = pi/N along that axis (N + 1 nodes).
    Boundary nodes carry 0 (Dirichlet nodes are prescribed, never updated by
    the stencil)."""
    inner = (slice(1, -1),) * (u.ndim - 1)
    terms = []
    for axis in range(u.ndim - 1):
        h = np.pi / (u.shape[axis] - 1)
        below = inner[:axis] + (slice(None, -2),) + inner[axis + 1:]
        above = inner[:axis] + (slice(2, None),) + inner[axis + 1:]
        terms.append((u[below] - 2.0 * u[inner] + u[above]) / h**2)
    out = np.zeros_like(u)
    out[inner] = sum(terms[1:], terms[0])
    return out


def newton_point_solve(rhs: np.ndarray, reaction: ReactionSystem, x, t: float,
                       coeff: float, initial: np.ndarray) -> np.ndarray:
    """Solve c*u - f(x, t, u) = rhs at every node, c = ``coeff``, by Newton
    from ``initial``.

    ``rhs`` has shape (..., m); the solve is vectorized over the leading axes:
    a division by c, or by c - df/du, for m = 1, where no identity is formed;
    for m >= 2 the matrix c I - J, solved by Cramer's rule for m = 2 (LAPACK
    at a node where it cannot be trusted, see ``_solve_2x2``) and by one
    dense LAPACK solve per node for m >= 3.  Deterministic: every node only
    touches its own values.  A ``u_independent`` f makes the equation linear
    in u: its Jacobian is not taken, and the first update solves it.  A node
    whose Jacobian is singular, or whose update is not finite, raises
    ``NewtonDivergence`` naming that node.
    """
    rhs = np.asarray(rhs, dtype=float)
    u = np.array(initial, dtype=float)
    eye = np.eye(reaction.m) if reaction.m >= 2 else None
    f = reaction.eval(x, t, u)

    def _diverged(per_node, worst):
        # per_node: one number per node (leading axes); report its argmax.
        node = np.unravel_index(np.argmax(per_node.ravel()), per_node.shape)
        return NewtonDivergence(node[0] if len(node) == 1 else node, worst)

    # The residual is roundoff on terms of size |c I - J| |u| (c|u| and |J u|
    # cancel in a stiff f): a tolerance below that is unattainable.  It scales
    # with max(c, max|c I - J|), J from the last Jacobian formed; the max over
    # that Jacobian is taken only when the tolerance at c alone is not met.
    jac = None
    for iteration in range(NEWTON_MAX_ITER + 1):
        residual = coeff * u - f - rhs
        res_max, u_max = np.abs(residual).max(), float(np.abs(u).max(initial=1.0))
        if res_max <= NEWTON_TOL * max(1.0, coeff * u_max) or (
                jac is not None and res_max <= NEWTON_TOL * float(np.abs(jac).max()) * u_max):
            return u
        if iteration == NEWTON_MAX_ITER:
            break
        if reaction.m == 1:  # the Newton matrix is one number per node
            jac = coeff if reaction.u_independent else coeff - reaction.jacobian(x, t, u)[..., 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = residual / jac
        else:
            jac = coeff * eye if reaction.u_independent else (
                coeff * eye - reaction.jacobian(x, t, u))
            delta = (_solve_2x2 if reaction.m == 2 else _solve_dense)(jac, residual)
        if not np.isfinite(delta).all():  # a singular Jacobian, or an overflow
            bad = ~np.isfinite(delta).all(axis=-1)
            raise _diverged(bad, float(np.abs(residual[bad]).max()))
        u = u - delta
        if reaction.u_independent:
            return u
        f = reaction.eval(x, t, u)
    worst = np.abs(residual)
    raise _diverged(worst.max(axis=-1), float(worst.max()))


def _solve_2x2(jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Every node's 2 x 2 system by Cramer's rule on whole arrays, which is
    forward stable for n = 2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, 1.10.1).  A node goes to ``_solve_dense``
    instead when its determinant is not a finite normal float or is within
    rounding of zero (cond above about 1e15, where LU may meet an exact zero
    pivot), or its update is not finite; so LAPACK decides which diverge."""
    a, b, c, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]
    r0, r1 = residual[..., 0], residual[..., 1]
    delta = np.empty_like(residual)
    with np.errstate(all="ignore"):
        ad, bc = a * d, b * c
        det = ad - bc
        delta[..., 0] = d * r0 - b * r1
        delta[..., 1] = a * r1 - c * r0
        delta /= det[..., np.newaxis]
        # False for a NaN, an infinite (then |ad| + |bc| is too) or a subnormal det
        sound = np.abs(det) > 4.0 * _FLOAT.eps * (np.abs(ad) + np.abs(bc)) + _FLOAT.tiny
    if not (sound.all() and np.isfinite(delta).all()):
        redo = ~(sound & np.isfinite(delta).all(axis=-1))
        jac = np.broadcast_to(jac, residual.shape + (2,))  # c I when f is u-independent
        delta[redo] = _solve_dense(jac[redo], residual[redo])
    return delta


def _solve_dense(jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """LAPACK's batched solve; if some node's Jacobian is singular, node by
    node, with NaN at each such node."""
    try:
        return np.linalg.solve(jac, residual[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:  # singular at some node: find which
        pass
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
    to x = 0/pi, as ``bench.ManufacturedCase.boundary`` builds it.  An edge is
    a scalar, constant along it, or has shape (nodes, m), or (nodes,) for
    m = 1; any other shape raises naming the edge, rather than broadcast.
    The y-edges are written first and the x-edges last, so the x-edges own
    the corners.
    """
    if values.ndim == 2:
        values[0], values[-1] = bc
        return
    for key, edge in (("g0", values[:, 0]), ("gpi", values[:, -1]),
                      ("h0", values[0]), ("hpi", values[-1])):
        sample = np.asarray(bc[key], dtype=float)
        if sample.ndim == 1:
            sample = sample[:, np.newaxis]
        if sample.ndim and sample.shape != edge.shape:
            raise ValueError(f"{key}: edge sample has shape {sample.shape}, "
                             f"expected {edge.shape}")
        edge[...] = sample


def step(u_curr: Field, u_prev: Field | None, reaction: ReactionSystem, t: float,
         dt: float, bc) -> Field:
    """One step of size ``dt`` from t = t_n of the two-step scheme over the
    node axes of a 1D or 2D Field, from u^n = ``u_curr`` and u^{n-1} =
    ``u_prev``; returns u^{n+1} with the Dirichlet data ``bc`` at t_{n+1}
    (see ``set_boundary``).  A ``dt`` that is not finite and positive, or a
    ``u_prev`` on another grid or with another component count, raises
    naming it.

    With ``u_prev`` None only u^0 = ``u_curr`` exists, and the startup step
    produces u^1: one backward-Euler-in-reaction / forward-Euler-in-diffusion
    step, (u^1 - u^0)/dt = L u^0 + f(u^1); locally second order, so the global
    accuracy of the scheme is unharmed.  Either way it takes one Laplacian.
    """
    require_positive("dt", dt)
    un = u_curr.values
    if u_prev is None:
        coeff = 1.0 / dt
        rhs = coeff * un + apply_laplacian(un)
    else:
        um1 = u_prev.values
        # the node shape fixes the grid, so equal shapes mean the same grid and m
        if um1.shape != un.shape:
            raise ValueError(f"u_prev: must share u_curr's grid and component count, "
                             f"got values of shape {um1.shape} for {un.shape}")
        coeff = 3.0 / (2.0 * dt)
        rhs = (4.0 * un - um1) / (2.0 * dt) + apply_laplacian(2.0 * un - um1)
    inner = (slice(1, -1),) * (un.ndim - 1)
    out = np.empty_like(un)
    out[inner] = newton_point_solve(rhs[inner], reaction, interior_nodes(u_curr.grid),
                                    t + dt, coeff, un[inner])
    set_boundary(out, bc)
    return u_curr.with_values(out)


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
