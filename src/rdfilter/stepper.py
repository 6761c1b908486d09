"""Semi-implicit two-step time scheme: the one time stepper, for 1D and 2D.

Diffusion is treated explicitly by extrapolation, the (stiff) reaction
implicitly by a pointwise Newton solve:

    (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) = 2 L u^n - L u^{n-1} + f(u^{n+1})

with L the second-difference Laplacian over the node axes.  L is linear, so
the explicit part is one Laplacian, L(2 u^n - u^{n-1}), of the two levels.
``step`` takes the two levels and runs this update, or, given u^0 alone,
its startup variant, on a 1D or a 2D Field alike; ``estimate_uxx`` reads
u_xx back from the same levels at every node, for the third-order shift.

Only the pointwise Jacobian J of f is formed, none for a u-independent f,
and the identity only for a u-dependent f with m >= 2, m = u.shape[-1].
Each node's Newton update is solved on whole arrays: a division by c for a
u-independent f, by c - J when m = 1, else Cramer's rule when m = 2 (LAPACK
for a node whose determinant it cannot trust), LAPACK's batched solve when
m >= 3.  It starts from the extrapolation 2 u^n - u^{n-1}, O(dt^2) from
u^{n+1}, for a u-dependent f, and from u^n on the startup step and for a
u-independent f.  It stops once the residual is below NEWTON_TOL
max|c I - J| max|u|, the size of its terms, or fails after NEWTON_MAX_ITER
updates; a Jacobian not of shape u.shape + (m,) raises naming ``jacobian``.
"""

from __future__ import annotations

import numpy as np

from .core import Field, ReactionSystem, interior_nodes, node_coordinates, require_positive

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
    the stencil).  One flat-stride form for 1D and 2D: each axis's term is
    three slices of the flat C-order values, offset by its stride, summed in place."""
    u = np.ascontiguousarray(u)
    flat, out, lo = u.reshape(-1), np.empty_like(u), u.strides[0] // u.itemsize
    hi = u.size - lo  # the flat range of rows 1..N-1 of axis 0 is lo..hi-1
    acc = out.reshape(-1)[lo:hi]
    for axis, n in enumerate(u.shape[:-1]):  # n >= 2 nodes, so the stride is exact
        s, term = u.strides[axis] // u.itemsize, np.empty_like(acc) if axis else acc
        np.subtract(flat[lo - s:hi - s], np.multiply(flat[lo:hi], 2.0, out=term), out=term)
        term += flat[lo + s:hi + s]
        term /= (np.pi / (n - 1)) ** 2
        if axis:
            acc += term
    for axis, n in enumerate(u.shape[:-1]):  # a later axis's edge nodes read across it
        out[(slice(None),) * axis + (slice(None, None, n - 1),)] = 0.0
    return out


def newton_point_solve(rhs: np.ndarray, reaction: ReactionSystem, x, t: float,
                       coeff: float, initial: np.ndarray) -> np.ndarray:
    """Solve c*u - f(x, t, u) = rhs at every node, c = ``coeff``, by Newton
    from ``initial``.

    ``rhs`` has shape (..., m); the solve is vectorized over the leading axes.
    A ``u_independent`` f makes the equation linear in u: its Jacobian is not
    taken, and one update, u - residual / c for every m, solves it into a new
    array (the guess itself is not copied).  Its finiteness is one scalar
    test, max|residual| / c: max keeps a NaN and a correctly rounded division
    by c > 0 is monotone, so that quotient is finite exactly when every
    node's is; only when it is not are the nodes scanned for the culprit.
    Else the update divides by c - df/du for m = 1, where no identity is
    formed, and for m >= 2 solves c I - J, by Cramer's rule for m = 2 (LAPACK
    at a node where it cannot be trusted, see ``_solve_2x2``) and by one dense
    LAPACK solve per node for m >= 3.  Every node only touches its own values.  A node
    whose Jacobian is singular, or whose update is not finite, raises
    ``NewtonDivergence`` naming that node.  A Jacobian whose shape is not
    u.shape + (m,) raises ValueError naming ``jacobian``; the first one formed
    is checked.
    """
    rhs = np.asarray(rhs, dtype=float)
    if reaction.u_independent:  # one update; dividing by a finite c > 0 needs no errstate
        u = np.asarray(initial, dtype=float)
        residual = coeff * u  # the residual, then the update, in this one buffer
        residual -= reaction.eval(x, t, u)
        residual -= rhs
        res_max = np.abs(residual).max()
        if res_max <= NEWTON_TOL * max(1.0, coeff * float(np.abs(u).max(initial=1.0))):
            return u.copy()
        if not np.isfinite(res_max / coeff):  # a non-finite f, or an overflow
            # the largest |residual|, or a NaN, sits at a diverging node
            raise _diverged(~np.isfinite(residual / coeff).all(axis=-1), float(res_max))
        return np.subtract(u, np.divide(residual, coeff, out=residual), out=residual)
    u = np.array(initial, dtype=float)
    m = u.shape[-1]
    f = reaction.eval(x, t, u)

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
        dfdu = reaction.jacobian(x, t, u)
        if jac is None and np.shape(dfdu) != u.shape + (m,):  # the first one formed
            raise ValueError(f"jacobian: must have shape {u.shape + (m,)} for u of "
                             f"shape {u.shape}, got {np.shape(dfdu)}")
        if m == 1:  # the Newton matrix is one number
            jac = coeff - dfdu[..., 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = residual / jac
        else:
            jac = coeff * np.eye(m) - dfdu
            delta = (_solve_2x2 if m == 2 else _solve_dense)(jac, residual)
        if not np.isfinite(delta).all():  # a singular Jacobian, or an overflow
            bad = ~np.isfinite(delta).all(axis=-1)
            raise _diverged(bad, float(np.abs(residual[bad]).max()))
        u = u - delta
        f = reaction.eval(x, t, u)
    worst = np.abs(residual)
    raise _diverged(worst.max(axis=-1), float(worst.max()))


def _diverged(per_node: np.ndarray, worst: float) -> NewtonDivergence:
    """The failure at the argmax of ``per_node``, one number per node (the
    leading axes), with ``worst`` as its residual."""
    node = np.unravel_index(np.argmax(per_node.ravel()), per_node.shape)
    return NewtonDivergence(node[0] if len(node) == 1 else node, worst)


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
    the corners.  A 1D ``bc`` that is not such a pair, or a 2D one without
    an edge, raises ValueError naming ``bc``.
    """
    if values.ndim == 2:
        try:  # caught, not checked first: the valid path costs nothing
            values[0], values[-1] = bc
        except (TypeError, ValueError) as err:
            raise ValueError(f"bc: must be the (left, right) boundary pair: {err}") from None
        return
    for key, edge in (("g0", values[:, 0]), ("gpi", values[:, -1]),
                      ("h0", values[0]), ("hpi", values[-1])):
        try:
            sample = bc[key]
        except (KeyError, TypeError):
            raise ValueError(f"bc: must map each edge 'g0', 'gpi', 'h0', 'hpi' to its "
                             f"data, has no {key!r}") from None
        sample = np.asarray(sample, dtype=float)
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
    accuracy of the scheme is unharmed.  Either way it takes one Laplacian,
    added to a right-hand side built in place in a new array.

    Newton starts from 2 u^n - u^{n-1}, the level the Laplacian is taken of,
    for a u-dependent f; from u^n on the startup step and for a
    u-independent f, which one update solves from any guess.
    """
    require_positive("dt", dt)
    un = u_curr.values
    if u_prev is None:
        coeff, guess = 1.0 / dt, un
        rhs = coeff * un
    else:
        um1 = u_prev.values
        # the node shape fixes the grid, so equal shapes mean the same grid and m
        if um1.shape != un.shape:
            raise ValueError(f"u_prev: must share u_curr's grid and component count, "
                             f"got values of shape {um1.shape} for {un.shape}")
        coeff = 3.0 / (2.0 * dt)
        guess = 2.0 * un
        guess -= um1  # the extrapolation, O(dt^2) from u^{n+1}
        rhs = 4.0 * un
        rhs -= um1
        rhs /= 2.0 * dt
    rhs += apply_laplacian(guess)
    if reaction.u_independent:
        # one update solves a u-independent f from any guess, but its last bit
        # follows the guess; rebinding also frees the extrapolation before the
        # solve (held through it, a 129 x 129 step took 4 % longer, 2-core x86)
        guess = un
    inner = (slice(1, -1),) * (un.ndim - 1)
    out = np.empty_like(un)
    out[inner] = newton_point_solve(rhs[inner], reaction, interior_nodes(u_curr.grid),
                                    t + dt, coeff, guess[inner])
    set_boundary(out, bc)
    return u_curr.with_values(out)


def estimate_uxx(u_next: Field, u_curr: Field, u_prev: Field, reaction: ReactionSystem,
                 dt: float, t_next: float) -> Field:
    """u_xx at every node from the PDE itself, a Field on u_next's grid:
    (3 u^{n+1} - 4 u^n + u^{n-1}) / (2 dt) - f(u^{n+1}), f evaluated at
    ``core.node_coordinates``.  On a 2D field it estimates u_xx + u_yy.  A
    ``dt`` that is not finite and positive, or a ``u_curr`` or ``u_prev`` on
    another grid or with another component count, raises naming it."""
    require_positive("dt", dt)
    u = u_next.values
    for name, level in (("u_curr", u_curr), ("u_prev", u_prev)):
        if level.values.shape != u.shape:  # as in ``step``: the shape fixes grid and m
            raise ValueError(f"{name}: must share u_next's grid and component count, "
                             f"got values of shape {level.values.shape} for {u.shape}")
    rate = (3.0 * u - 4.0 * u_curr.values + u_prev.values) / (2.0 * dt)
    return u_next.with_values(rate - reaction.eval(node_coordinates(u_next.grid), t_next, u))


def recurrence_roots(dt: float, lam: float) -> np.ndarray:
    """Roots of the per-mode characteristic polynomial of the linear scheme,
    3 z^2 - (4 + 4 dt lam) z + (1 + 2 dt lam) = 0."""
    return np.roots([3.0, -(4.0 + 4.0 * dt * lam), 1.0 + 2.0 * dt * lam])
