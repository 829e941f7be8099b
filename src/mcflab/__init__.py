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
