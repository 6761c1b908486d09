"""Test oracles that share no code with the solver: a fine-step ODE integrator
for the predator-prey reaction, and the sampled PDE residual of a
manufactured case.  The tests import this module as ``oracles`` (pytest puts
``tests/`` on ``sys.path``), so the library never loads ``scipy.integrate``."""

import numpy as np
from scipy.integrate import solve_ivp


def ode_orbit_check(case) -> bool:
    """Fine-step ODE oracle: does the reaction-only trajectory of a
    ``PredatorPreyCase`` from (1, 1) come back within 0.05 of its start over
    t in [1, 120] (a cycle) rather than spiral to equilibrium or leave the
    positive quadrant?"""
    w0, t_max = (1.0, 1.0), 120.0
    sol = solve_ivp(lambda t, w: case.ode_rhs(np.asarray(w)), (0.0, t_max), w0,
                    rtol=1.0e-10, atol=1.0e-12, dense_output=True, max_step=0.5)
    if not sol.success or np.min(sol.y) < -1.0e-8 or np.max(np.abs(sol.y)) > 1.0e6:
        return False
    t = np.linspace(1.0, t_max, 4000)
    w = sol.sol(t)
    dist = np.hypot(w[0] - w0[0], w[1] - w0[1])
    return bool(np.min(dist) < 0.05)


def pde_residual(case, x, t, eps: float = 1.0e-4) -> np.ndarray:
    """Sampled PDE residual u_t - u_xx - s of a 1D ``ManufacturedCase`` via
    central differences of its ``exact``, at nodes x."""
    ut = (case.exact(x, t + eps) - case.exact(x, t - eps)) / (2.0 * eps)
    uxx = (case.exact(x + eps, t) - 2.0 * case.exact(x, t)
           + case.exact(x - eps, t)) / eps**2
    return ut - uxx - case.source(x, t)
