"""Stabilized explicit solver for stiff reaction-diffusion systems.

A semi-implicit two-step scheme treats diffusion explicitly and the stiff
reaction implicitly (pointwise Newton); an a-posteriori spectral filter
(low-frequency shift, odd extension, order-8 filter with stretching,
inverse shift) removes the explicitly-unstable high modes after every step,
buying time steps far beyond dt = h^2/3.  Works in 1D, 2D, and with
overlapping strip domain decomposition of the postprocess.

One stepper, ``step``, advances 1D and 2D fields; one 1D postprocess,
``postprocess_field``, runs on the whole grid or on overlapping strips, and
``postprocess2d`` runs the same shift and filter along each axis.
"""

from .core import (
    BLOWUP_THRESHOLD,
    Field,
    Grid1D,
    Grid2D,
    ReactionSystem,
    SchemeState,
    interior_nodes,
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    source_reaction,
    zero_reaction,
)
from .stepper import (
    NewtonDivergence,
    StepConfig,
    apply_laplacian,
    newton_point_solve,
    recurrence_roots,
    step,
)
from .shift import cosine_basis, odd_extend_values, shift1d
from .filtering import (
    FilterSpec,
    KappaMonitor,
    apply_filter_values,
    filter_boundary_trace,
    kappa_critical,
    postprocess_field,
    sigma8,
)
from .ddm import SubdomainLayout, blend_weights, make_layout
from .solver2d import (
    BoundaryData2D,
    kappa_critical_2d,
    postprocess2d,
)

__version__ = "0.1.0"
