"""The radial Jacobi operator on the minimal surface.

Acting on radial functions, the stability operator Delta + |A|^2 of the
minimal profile becomes, after multiplication by 1 + Q'^2,

    L u = u'' + (n-1)(1+Q'^2)/r u' + V u
        = (1/J) (J u')' + V u

with the area density J(r) = r^{n-1} Q^{n-1} / sqrt(1+Q'^2) and potential
V = (Q''/(1+Q'^2))^2 + (n-1) Q'^2/r^2 + (n-1)/Q^2.

The positive kernel element u0 = (Q - r Q')/sqrt(1+Q'^2) yields the first
order factorization L = -A* A with

    A u = -u' + W u,     A* u = (1/J)(J u)' + W u,     W = u0'/u0,

whose explicit inverses, both integrated from the axis, build the generalized
kernel u_j = L^{-1}((1+Q'^2) u_{j-1}) with growth u_j ~ r^{2j} (1+r)^alpha.
All quadrature runs on a geometrically graded grid refined in log r, where
composite Simpson is effectively spectral for the power-law integrands at hand.

The singular solution v0 ~ r^{-(n-2)} takes Gauss-Legendre steps in log r;
L is linear, so all their 2x2 step matrices are built in one batch.

The top of the spectrum (Dirichlet wall at R_trunc) comes from P1 elements
with a lumped mass: the pencil (A, M) is then the symmetric tridiagonal
M^{-1/2} A M^{-1/2}, and LAPACK bisection returns its largest eigenvalue.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import eigh_tridiagonal

from .errors import GridMismatch
from .fitting import RateFit, fit_power_law, last_decade_window, two_node_exponent
from .minimal_surface import MinimalProfile, kernel_element, third_derivative
from .params import tail_roots

_REFINE = 8  # fine quadrature intervals per coarse grid interval
_GL_STAGES = 4  # Gauss-Legendre stages of the v0 step (order 8)
_GL_SUBSTEPS = 2  # v0 steps per grid interval


@dataclass
class JacobiData:
    """Coefficients of the radial Jacobi operator sampled on the profile grid.

    The public arrays live on the coarse grid (the profile grid without the
    axis node); a log-uniform refinement of the same grid is kept internally
    for quadrature, with coarse nodes at stride _REFINE.
    """

    mp: MinimalProfile
    grid: np.ndarray
    xi: np.ndarray  # log(grid)
    J: np.ndarray
    V: np.ndarray
    W: np.ndarray
    u0: np.ndarray
    u0p: np.ndarray  # u0'
    s: np.ndarray  # 1 + Q'^2
    _fine: dict = field(repr=False)

    @property
    def n(self) -> int:
        return self.mp.n

    def coefficients_at(self, r):
        """(J, V, W, u0, s, u0', W') at arbitrary radii r > 0."""
        return _coefficients(self.mp, r)


def potential(n: int, r, q, q1, q2):
    """Jacobi potential V = (Q''/s)^2 + (n-1)(Q'/r)^2 + (n-1)/Q^2 and s = 1 + Q'^2.

    V is s |A|^2 of the profile 2-jet (Q, Q', Q'') at r > 0; s is returned
    too because every caller needs it.  Scalars or arrays.
    """
    s = 1.0 + q1 * q1
    return (q2 / s) ** 2 + (n - 1) * (q1 / r) ** 2 + (n - 1) / q**2, s


def _coefficients(mp: MinimalProfile, r):
    """(J, V, W, u0, s, u0', W') of the Jacobi operator at radii r > 0.

    u0 is assembled from the cone gap (see kernel_element), which is what
    keeps W and the factorization usable in the far field.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0.0):
        raise ValueError("the Jacobi coefficients require r > 0")
    n = mp.n
    v, v1, v2 = mp.gap(r)
    q, q1, q2 = r + v, 1.0 + v1, v2
    q3 = third_derivative(n, r, v, v1, v2)
    V, s = potential(n, r, q, q1, q2)
    J = r ** (n - 1) * q ** (n - 1) / np.sqrt(s)
    u0, u0p = kernel_element(r, v, v1, v2)
    u0pp = (
        -(q3 / s**1.5) * (r + q * q1)
        + 3.0 * q1 * q2 * q2 * (r + q * q1) / s**2.5
        - (q2 / s**1.5) * (1.0 + q1 * q1 + q * q2)
    )
    W = u0p / u0
    Wp = u0pp / u0 - W * W
    return J, V, W, u0, s, u0p, Wp


def assemble(mp: MinimalProfile) -> JacobiData:
    """Sample J, V, W, u0, u0' and s on the profile grid and prepare the quadrature grid."""
    grid = mp.grid[mp.grid > 0.0]
    xi = np.log(grid)
    h = np.diff(xi)
    if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
        raise GridMismatch("jacobi assembly expects a geometrically graded grid")

    nfine = (len(grid) - 1) * _REFINE + 1
    xi_f = xi[0] + (xi[-1] - xi[0]) * np.arange(nfine) / (nfine - 1)
    r_f = np.exp(xi_f)
    r_f[::_REFINE] = grid  # pin coarse nodes exactly

    Jf, Vf, Wf, u0f, sf, u0pf, _ = _coefficients(mp, r_f)
    fine = {"r": r_f, "xi": xi_f, "J": Jf, "W": Wf, "u0": u0f, "s": sf}
    stride = slice(None, None, _REFINE)
    jd = JacobiData(
        mp=mp,
        grid=grid,
        xi=xi,
        J=Jf[stride],
        V=Vf[stride].copy(),  # a copy frees the fine array, which nothing reads
        W=Wf[stride],
        u0=u0f[stride],
        u0p=u0pf[stride].copy(),
        s=sf[stride],
        _fine=fine,
    )
    if np.any(jd.J <= 0.0) or np.any(jd.V <= 0.0) or np.any(jd.u0 <= 0.0):
        raise ValueError("J, V and u0 must all be positive on the grid")
    return jd


def _fd_derivs_uniform(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Sixth-order derivatives on a uniform grid; NaN at the 3 nodes at each end."""
    n = len(u)
    if n < 7:
        raise GridMismatch("need at least 7 nodes for the derivative stencils")
    d1 = np.full(n, np.nan)
    d2 = np.full(n, np.nan)
    d1[3:-3] = (
        -u[:-6] + 9 * u[1:-5] - 45 * u[2:-4] + 45 * u[4:-2] - 9 * u[5:-1] + u[6:]
    ) / (60 * h)
    d2[3:-3] = (
        2 * u[:-6]
        - 27 * u[1:-5]
        + 270 * u[2:-4]
        - 490 * u[3:-3]
        + 270 * u[4:-2]
        - 27 * u[5:-1]
        + 2 * u[6:]
    ) / (180 * h * h)
    return d1, d2


def apply_L(jd: JacobiData, u, jets=None) -> np.ndarray:
    """Evaluate L u on the grid.

    With `jets` = (u', u'') the evaluation is pointwise exact; otherwise the
    derivatives come from sixth-order centered differences in log r, and
    the 3 rows at each end of the grid, where the 7-point stencil does not
    fit, are NaN.  Sampled-value noise is amplified by 1/(h r)^2 in u'', so
    headroom above the nominal residual targets matters.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != jd.grid.shape:
        raise GridMismatch(f"u has shape {u.shape}, grid has {jd.grid.shape}")
    if jets is not None:
        u1, u2 = (np.asarray(a, dtype=float) for a in jets)
    else:
        xi = jd.xi
        du, ddu = _fd_derivs_uniform(u, float(xi[1] - xi[0]))
        u1 = du / jd.grid
        u2 = (ddu - du) / jd.grid**2
    return u2 + (jd.n - 1) * jd.s / jd.grid * u1 + jd.V * u


def _cumulative_from_zero(xi, r: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """cumint_0^r of a power-law-like integrand sampled at r = exp(xi).

    The stretch below r[0] is handled by the power law through the first two
    nodes when they share a sign (so the rule is odd in the integrand); on
    the grid, Simpson in log r does the rest.
    """
    cum = cumulative_simpson(integrand * r, x=xi, initial=0.0)
    p = two_node_exponent(xi[1] - xi[0], integrand[0], integrand[1])
    if p is not None and p > -0.9:
        cum = cum + integrand[0] * r[0] / (p + 1.0)
    return cum


def _invert_fine(jd: JacobiData, f_f: np.ndarray) -> np.ndarray:
    """L^{-1} f = -A^{-1} (A*)^{-1} f for f_f sampled on the fine grid jd._fine["r"].

    Both inverses integrate from the axis, so the result u0 int_0^r
    (A*)^{-1}f / u0 is the solution regular there; any other differs from it
    by a multiple of u0, the kernel of L.
    """
    fine = jd._fine
    r_f, xi_f, u0_f, J_f = fine["r"], fine["xi"], fine["u0"], fine["J"]
    g = _cumulative_from_zero(xi_f, r_f, f_f * J_f * u0_f) / (u0_f * J_f)
    return u0_f * _cumulative_from_zero(xi_f, r_f, g / u0_f)


@dataclass(frozen=True)
class KernelElement:
    """One generalized kernel element with its fitted growth exponents."""

    j: int
    u: np.ndarray
    inner_fit: RateFit
    outer_fit: RateFit


def generalized_kernel(jd: JacobiData, j_max: int) -> list[KernelElement]:
    """Build u_0 .. u_{j_max} by iterated inversion and fit their exponents.

    Each element should grow like r^{2j} near the axis and r^{2j+alpha} far
    out.  Larger j needs more room: r_max >= 10^(2 + j_max/2) * b is
    enforced so the outer fit window sits in the asymptotic regime.  J and
    each element must stay finite up to r_max (J ~ r^{2(n-1)} overflows
    there from about n = 45 on); a non-finite one raises ValueError.
    """
    if j_max > 4:
        raise ValueError("j_max above 4 needs absurd domains; not supported")
    r_max = jd.grid[-1]
    need = 10.0 ** (2.0 + j_max / 2.0) * jd.mp.b
    if r_max < need:
        raise ValueError(f"r_max={r_max:g} too small for j_max={j_max}; need >= {need:g}")
    overflow = (f"leaves the floating-point range below r_max = {r_max:g} at n = {jd.n}; "
                "a smaller b or j_max needs less r_max")
    fine = jd._fine
    if not np.isfinite(fine["J"]).all():
        raise ValueError(f"the area density J {overflow}")
    b = jd.mp.b
    inner_window = (fine["r"][0], b / 10.0)
    outer_window = last_decade_window(fine["r"])
    stride = slice(None, None, _REFINE)

    elements = []
    u_f = fine["u0"].copy()
    for j in range(j_max + 1):
        if j > 0:
            u_f = _invert_fine(jd, fine["s"] * u_f)
            if not np.isfinite(u_f).all():
                raise ValueError(f"generalized kernel element u_{j} {overflow}")
            if np.any(u_f[1:] <= 0.0):
                raise ValueError(f"generalized kernel element u_{j} lost positivity")
        inner = fit_power_law(fine["r"], np.abs(u_f), window=inner_window)
        outer = fit_power_law(fine["r"], np.abs(u_f), window=outer_window)
        elements.append(
            KernelElement(j=j, u=u_f[stride].copy(), inner_fit=inner, outer_fit=outer)
        )
    return elements


@dataclass(frozen=True)
class IndicialRoots:
    """Indicial exponents of L u = 0 at the two ends, plus the singular solution."""

    at_zero: tuple[float, float]
    at_infinity: tuple[float, float]
    v0: np.ndarray | None = None
    v0_prime: np.ndarray | None = None
    inner_fit: RateFit | None = None


def indicial_roots(n: int, jd: JacobiData | None = None) -> IndicialRoots:
    """Exponents (0, -(n-2)) at r = 0 and (alpha_+, alpha_-) at infinity.

    The far-field Euler approximation u'' + 2(n-1)/r u' + 2(n-1)/r^2 u = 0
    has roots alpha_+- = (-(2n-3) +- sqrt((2n-3)^2 - 8(n-1)))/2; near zero
    the potential is bounded so the exponents are those of u'' + (n-1)/r u'.
    When Jacobi data is supplied, the second kernel element v0 is built by
    integrating L u = 0 backwards from r_max with the r^{alpha_-} seed, and
    its r^{-(n-2)} blow-up at the axis is fitted.

    The integration runs in xi = log r on y = (v, r v'), where L u = 0 reads
    y' = [[0, 1], [-r^2 V, 1 - (n-1) s]] y with bounded, smooth coefficients,
    in _GL_SUBSTEPS Gauss-Legendre steps per grid interval.  L is linear, so
    V and s at every stage node come from one call each to MinimalProfile.gap
    and potential(), and the steps are a chain of 2x2 step matrices.  It
    never uses u0, so the constancy of the Wronskian J (u0 v0' - v0 u0')
    stays an independent check of both.  Jacobi data of another n raises
    ValueError.
    """
    roots = IndicialRoots(at_zero=(0.0, -(float(n) - 2.0)), at_infinity=tail_roots(n))
    if jd is None:
        return roots
    if n != jd.n:
        raise ValueError(f"indicial_roots got n = {n} for Jacobi data of n = {jd.n}")

    xi = jd.xi
    nodes = np.arange(_GL_SUBSTEPS * (len(xi) - 1) + 1) / _GL_SUBSTEPS
    ends = np.interp(nodes, np.arange(len(xi)), xi)  # hits every grid node exactly
    h = ends[:-1] - ends[1:]  # backward steps, each from ends[k + 1] to ends[k]
    r = np.exp(ends[1:, None] + _gauss_tableau()[0] * h[:, None]).ravel()
    v, v1, v2 = jd.mp.gap(r)
    V, s = potential(n, r, r + v, 1.0 + v1, v2)
    zero, one = np.zeros_like(r), np.ones_like(r)
    stage_A = np.stack([zero, one, -r * r * V, 1.0 - (n - 1) * s], axis=-1)
    steps = _gauss_step_matrices(h, stage_A.reshape(len(h), -1, 2, 2))

    a_minus, r_hi = roots.at_infinity[1], float(jd.grid[-1])
    y0, y1 = r_hi**a_minus, a_minus * r_hi**a_minus
    ys = [(y0, y1)]
    for m00, m01, m10, m11 in reversed(steps.reshape(-1, 4).tolist()):
        y0, y1 = m00 * y0 + m01 * y1, m10 * y0 + m11 * y1
        ys.append((y0, y1))
    y = np.array(ys[::-_GL_SUBSTEPS])
    if not np.all(np.isfinite(y)):
        raise RuntimeError("backward integration for v0 left the floating-point range")
    inner_mask = jd.grid <= jd.mp.b / 10.0
    inner = fit_power_law(jd.grid[inner_mask], np.abs(y[inner_mask, 0]))
    return replace(roots, v0=y[:, 0], v0_prime=y[:, 1] / jd.grid, inner_fit=inner)


@functools.cache
def _gauss_tableau() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, b, A) of the _GL_STAGES-stage Gauss-Legendre collocation method.

    c and b are the Gauss nodes and weights on [0, 1]; A solves C(s):
    sum_j a_ij c_j^(k-1) = c_i^k / k, k = 1..s.  Built on first call, as
    cone_heat._unit_rules is, since leggauss costs resident memory.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_STAGES)
    c = 0.5 * (x + 1.0)
    k = np.arange(1, _GL_STAGES + 1)
    a = np.linalg.solve(c ** (k[:, None] - 1), (c[:, None] ** k / k).T).T
    return c, 0.5 * w, a


def _gauss_step_matrices(h: np.ndarray, stage_A: np.ndarray) -> np.ndarray:
    """Gauss-Legendre step matrices of the linear system y' = A(x) y.

    h has shape (K,) and stage_A shape (K, s, 2, 2): A at the stage nodes
    x_k + c_i h_k of each step.  With D = blockdiag(A_i) the stage slopes
    solve (I - h D (a x I)) K = D (1 x I) y_k, so the step y_{k+1} = M_k y_k
    has M_k = I + h (b^T x I) K, from one batched (K, 2s, 2s) solve.
    """
    _, b, a = _gauss_tableau()
    steps, s = stage_A.shape[:2]
    system = np.einsum("ij,kipq->kipjq", a, stage_A) * -h[:, None, None, None, None]
    system = system.reshape(steps, 2 * s, 2 * s) + np.eye(2 * s)
    slopes = np.linalg.solve(system, stage_A.reshape(steps, 2 * s, 2))
    slopes = slopes.reshape(stage_A.shape)
    return np.eye(2) + h[:, None, None] * np.einsum("i,kipq->kpq", b, slopes)


def wronskian(jd: JacobiData, roots: IndicialRoots) -> np.ndarray:
    """J (u0 v0' - v0 u0') on the grid; constant for two L-kernel elements."""
    if roots.v0 is None:
        raise ValueError("indicial_roots must be called with Jacobi data first")
    return jd.J * (jd.u0 * roots.v0_prime - roots.v0 * jd.u0p)


def _fem_matrices(jd: JacobiData, R_trunc: float, nodes: int):
    """P1 finite-element matrices for (Lu/(1+Q'^2), u) in the surface measure.

    Returns the symmetric tridiagonal (diag, off) pair of the bilinear form
    a(u,v) = -int J u'v' + int V J u v and the diagonal of the lumped mass
    m(u,v) = int (1+Q'^2) J u v, whose row for each node is int (1+Q'^2) J phi
    over its hat function phi; both use two-point Gauss quadrature per
    element.  The operator represented is Delta + |A|^2 acting on radial
    functions; self-adjointness holds in the measure (1+Q'^2) J dr, the radial
    part of the volume form.
    """
    r = np.geomspace(jd.grid[0], R_trunc, nodes)
    h = np.diff(r)
    gauss = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
    rg = r[:-1, None] + h[:, None] * gauss[None, :]
    Jg, Vg, _, _, sg, _, _ = jd.coefficients_at(rg.ravel())
    Jg = Jg.reshape(rg.shape)
    Vg = Vg.reshape(rg.shape)
    sg = sg.reshape(rg.shape)
    wg = 0.5 * h[:, None]  # Gauss weights on each element

    phi_l = 1.0 - gauss[None, :]
    phi_r = gauss[None, :]

    stiff = np.sum(wg * Jg, axis=1) / h**2  # int_e J / h^2
    VJ = Vg * Jg
    sJ = sg * Jg

    npts = len(r)
    A_diag = np.zeros(npts)
    M_diag = np.zeros(npts)
    A_diag[:-1] += -stiff + np.sum(wg * VJ * phi_l * phi_l, axis=1)
    A_diag[1:] += -stiff + np.sum(wg * VJ * phi_r * phi_r, axis=1)
    A_off = stiff + np.sum(wg * VJ * phi_l * phi_r, axis=1)
    M_diag[:-1] += np.sum(wg * sJ * phi_l, axis=1)
    M_diag[1:] += np.sum(wg * sJ * phi_r, axis=1)

    # Dirichlet at R_trunc: drop the last unknown; natural condition at the
    # inner end (J -> 0 there makes the flux vanish on its own)
    return r, (A_diag[:-1], A_off[:-1]), M_diag[:-1]


def top_eigenvalue(jd: JacobiData, R_trunc: float, nodes: int = 4000) -> float:
    """Largest eigenvalue of the radial Delta + |A|^2 with Dirichlet wall.

    With the lumped mass M the pencil (A, M) is the symmetric tridiagonal
    T = M^{-1/2} A M^{-1/2}, whose top eigenvalue LAPACK's bisection (stebz)
    finds directly.  The continuum operator is nonpositive, so the result
    should not exceed discretization noise.
    """
    if R_trunc > jd.grid[-1] / 2.0:
        raise ValueError("R_trunc must leave at least a factor 2 inside r_max")
    _, (A_d, A_o), M = _fem_matrices(jd, R_trunc, nodes)
    scale = 1.0 / np.sqrt(M)
    top = len(A_d) - 1
    # stebz's default tolerance is eps * |T|, and |T| ~ 1e11 from the nodes
    # near r = 1e-3 would swamp an eigenvalue of order 1e-3; the smallest
    # positive tolerance leaves bisection at its relative-precision floor
    lam = eigh_tridiagonal(
        A_d / M,
        A_o * scale[:-1] * scale[1:],
        eigvals_only=True,
        select="i",
        select_range=(top, top),
        tol=np.finfo(float).tiny,
    )
    return float(lam[0])
