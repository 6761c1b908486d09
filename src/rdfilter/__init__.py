"""Stabilized explicit solver for stiff reaction-diffusion systems.

A semi-implicit two-step scheme treats diffusion explicitly and the stiff
reaction implicitly (pointwise Newton); an a-posteriori spectral filter
(low-frequency shift, odd extension, order-8 filter with stretching,
inverse shift) removes the explicitly-unstable high modes after every step,
buying time steps far beyond dt = h^2/3.  Works in 1D, 2D, and with
overlapping strip domain decomposition of the postprocess.

One stepper, ``step``, and one postprocess, ``postprocess_field``, serve 1D
and 2D fields.  ``step`` takes the two time levels u^n and u^{n-1}; given
u^0 alone (``u_prev`` None) it takes the startup step.  In 2D the
postprocess is the 1D one along x, then along y, of a field lifted by its
filtered faces, and in 1D it also runs on overlapping strips.  Its
third-order shift takes u_xx at every node as a field (``estimate_uxx``).
"""

from .core import (
    BLOWUP_THRESHOLD,
    Field,
    Grid1D,
    Grid2D,
    ReactionSystem,
    interior_nodes,
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    node_coordinates,
    source_reaction,
    zero_reaction,
)
from .stepper import (
    NewtonDivergence,
    apply_laplacian,
    estimate_uxx,
    newton_point_solve,
    recurrence_roots,
    step,
)
from .shift import cosine_basis, cosine_trend
from .filtering import (
    kappa_critical,
    postprocess_field,
    sigma8,
)
from .ddm import SubdomainLayout, blend_weights, make_layout
from .solver2d import kappa_critical_2d

__version__ = "0.1.0"
