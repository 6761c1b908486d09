"""The per-axis critical stretching of two-dimensional Dirichlet problems.

The time step (``stepper.step``) is the one of 1D, run over both node axes,
with its edge data from ``stepper.set_boundary``.  The postprocess
(``filtering.postprocess_field``) is the 1D one along x, then along y, of
the field lifted by the change the 1D postprocess makes to its faces, with
one stretching factor per axis, each ``kappa_critical_2d``."""

from __future__ import annotations

from .filtering import kappa_critical


def kappa_critical_2d(dt: float, h: float) -> float:
    """Per-axis critical stretching in 2D.

    The worst tensor mode pairs the per-axis cutoffs, so each axis gets half
    the 1D stability budget: replace h^2 by h^2/2 in the 1D formula, which is
    the 1D formula at 2 dt.  Below dt = h^2/6 nothing is unstable.
    """
    return kappa_critical(2.0 * dt, h)
