"""Numerical laboratory for O(n)xO(n)-invariant mean curvature flow.

The package cross-validates the computable side of the curvature blow-up
picture near the Simons cone: the radial curvature calculus, the minimal
profile desingularizing the cone, the Jacobi operator with its explicit
inverses and generalized kernel, the Bessel parabolic heat kernel, the
profile flow with its self-similar rescalings, and the supersolution
barriers.  Each piece carries an independent oracle (closed forms, exact
self-similar solutions, quadrature identities, or re-integration), so no
module is trusted on its own output.
"""

__version__ = "0.1.0"

from .fitting import RateFit, fit_power_law
from .params import (
    ExponentCondition,
    Params,
    admissible_window_exists,
    blowup_scale,
    derive_constants,
    exponent_condition,
)
from .geometry import (
    CurvatureData,
    ProfileJet,
    WeightedNormReport,
    curvature,
    distance_equivalence,
    fd_jet,
    laplace_beltrami_radial,
    minimal_laplace_beltrami_radial,
    normal_position,
    unit_normal,
    weighted_sup_norm,
)
from .minimal_surface import (
    MinimalProfile,
    U0Profile,
    fit_tail,
    integrate_profile,
    u0_profile,
    verify_scaling,
)
from .jacobi import (
    JacobiData,
    KernelElement,
    apply_L,
    assemble,
    generalized_kernel,
    indicial_roots,
    invert_L,
    top_eigenvalue,
)
from .cone_heat import (
    HalfLineField,
    bessel_I,
    cone_transform,
    cone_transform_inverse,
    decay_experiment,
    heat_kernel,
    propagate,
)
from .flow import (
    BC,
    FlowDiagnostics,
    ProfileState,
    evolve,
    fit_rate,
    from_inner,
    from_parabolic,
    step,
    to_inner,
    to_parabolic,
)
from .barriers import (
    Supersolution,
    convexity_reduction_check,
    gradient_bound_check,
    h_bound_report,
    supersolution,
    supersolution_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
