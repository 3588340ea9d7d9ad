"""Cayley transform between the Lie ball and the tube over the light cone,
the boundary-measure density, and numerical evaluation of the tube-domain
Cauchy-Szego kernel.

Coordinates: the Lie ball lives in the classical quadratic-form coordinates
(|sum z_j^2|^2 < 1 and 2|z|^2 - 1 < |sum z_j^2|^2).  The Jordan-algebra
Cayley transform w -> i(e + w)(e - w)^(-1) acts on spin-factor coordinates,
where the same domain is cut out by the Lorentz determinant.  The two charts
differ by the twist (z_1, z') -> (z_1, i z'), which maps one quadratic form
onto the other; all public functions take Lie-ball coordinates and twist
internally.

The kernel integral over the light cone factorizes in the coordinates
(t, rho, phi) with xi_1 = rho + t, xi' = rho (cos phi, sin phi): on rotated
rays the t and rho factors are exp(-s) and s exp(-s), integrated exactly by a
fixed order-8 Gauss-Laguerre rule, and only the angle is refined, by the
periodic trapezoid rule.  This checks the closed form
c Delta((z - conj w)/i)^(-n/r) of Faraut & Koranyi (1994) independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jordan as jd
from .errors import BudgetExceededError, NearSingularityError

DOM_PHI_MARGIN = 1e-12


# --- domain points ------------------------------------------------------------

@dataclass(frozen=True)
class LieBallPoint:
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.shape[0] < 3:
            raise ValueError("the Lie ball needs dimension >= 3")
        object.__setattr__(self, "z", z)

    @property
    def contained(self):
        return lie_ball_contains(self.z)


@dataclass(frozen=True)
class TubePoint:
    """Point of the tube R^n + i Omega, stored as a complex spin element."""

    z: jd.Element

    @property
    def x(self):
        return jd.Element(self.z.algebra, self.z.coords.real)

    @property
    def y(self):
        return jd.Element(self.z.algebra, self.z.coords.imag)

    @property
    def in_tube(self):
        return jd.in_cone(self.y)

    def margin(self):
        return jd.cone_margin(self.y)


@dataclass(frozen=True)
class KernelSample:
    z: np.ndarray
    u: np.ndarray
    value: complex
    error_estimate: float
    method: str


# --- membership predicates ------------------------------------------------------

def lie_ball_contains(z):
    """Both strict inequalities |q(z)|^2 < 1 and 2|z|^2 - 1 < |q(z)|^2,
    with q(z) = sum z_j^2."""
    z = np.asarray(z, dtype=complex)
    q = np.sum(z * z)
    qq = abs(q) ** 2
    return bool(qq < 1.0 and 2.0 * np.sum(np.abs(z) ** 2) - 1.0 < qq)


def lie_to_spin(z):
    """Twist Lie-ball coordinates into spin-factor coordinates."""
    z = np.asarray(z, dtype=complex)
    coords = np.concatenate(([z[0]], 1j * z[1:]))
    return jd.Element(jd.spin_factor(z.shape[0]), coords)


def spin_to_lie(w):
    """Inverse twist: spin-factor coordinates to Lie-ball coordinates."""
    coords = w.coords
    return np.concatenate(([coords[0]], -1j * coords[1:]))


# --- the Cayley transform ---------------------------------------------------------

def cayley(w):
    """Phi(w) = i (e + w)(e - w)^(-1) in the Jordan algebra sense."""
    e = jd.identity(w.algebra)
    wc = jd.Element(w.algebra, w.coords.astype(complex))
    return 1j * _guarded_quotient(e + wc, e - wc, wc,
                                  "point is outside Dom Phi (det(e - w) ~ 0)")


def cayley_inverse(z):
    """Phi^(-1)(z) = (z - i e)(z + i e)^(-1); round-trips with ``cayley``."""
    zc = jd.Element(z.algebra, z.coords.astype(complex))
    ie = 1j * jd.identity(z.algebra)
    return _guarded_quotient(zc - ie, zc + ie, zc,
                             "det(z + i e) ~ 0; Cayley inverse singular")


def _guarded_quotient(num, denom, x, message):
    """num * denom^(-1), refused with NearSingularityError(message) when
    |det(denom)| <= DOM_PHI_MARGIN (1 + |x|^rank) for the argument x."""
    det = jd.determinant(denom)
    if abs(det) <= DOM_PHI_MARGIN * (1.0 + jd.norm(x) ** x.algebra.rank):
        raise NearSingularityError(message)
    return jd.jordan_product(num, jd.jordan_inverse(denom))


def lie_ball_to_tube(z):
    """Cayley image of a Lie-ball point as a TubePoint."""
    return TubePoint(cayley(lie_to_spin(z)))


def tube_to_lie_ball(z_elem):
    """Inverse Cayley of a tube point, back in Lie-ball coordinates."""
    return spin_to_lie(cayley_inverse(z_elem))


def sample_lie_ball(n, count, rng, margin=0.0):
    """Rejection-sample Lie-ball points from the complex unit ball."""
    out = []
    while len(out) < count:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z *= rng.uniform() ** (1.0 / (2 * n)) / np.linalg.norm(z)
        q = np.sum(z * z)
        qq = abs(q) ** 2
        if qq < 1.0 - margin and 2 * np.sum(np.abs(z) ** 2) - 1 < qq - margin:
            out.append(z)
    return out


def sample_tube(n, count, rng, x_scale=5.0, margin=1e-6):
    """Tube samples x + iy with y in the cone at a positive margin."""
    out = []
    for _ in range(count):
        yprime = rng.normal(size=n - 1)
        y1 = np.linalg.norm(yprime) + margin + abs(rng.normal()) + 0.05
        x = rng.uniform(-x_scale, x_scale, size=n)
        coords = x + 1j * np.concatenate(([y1], yprime))
        out.append(jd.Element(jd.spin_factor(n), coords))
    return out


def conformal_consistency_check(n, samples, seed):
    """Round-trip membership test of the conformal equivalence.

    Lie-ball samples must map into the tube (imaginary part in the cone) and
    tube samples must pull back into the Lie ball.  Returns a dict with the
    failure count (contract: zero) and the worst cone margin observed.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst_margin = np.inf
    for z in sample_lie_ball(n, samples, rng):
        tube = lie_ball_to_tube(z)
        margin = tube.margin()
        worst_margin = min(worst_margin, margin)
        if not tube.in_tube:
            failures += 1
    for z_elem in sample_tube(n, samples, rng):
        if not lie_ball_contains(tube_to_lie_ball(z_elem)):
            failures += 1
    return {
        "samples": 2 * samples,
        "failures": failures,
        "worst_tube_margin": float(worst_margin),
    }


# --- boundary measure density -------------------------------------------------------

def jacobian_density(x):
    """det(e + x^2)^(-n/r): the unnormalized boundary-measure density."""
    algebra = x.algebra
    e = jd.identity(algebra)
    val = jd.determinant(e + jd.square(x))
    return float(val ** (-algebra.dim / algebra.rank))


def compact_jacobian_bounds(boundary_samples, margin=1e-3):
    """Min and max of the Cayley Jacobian modulus proxy over Shilov samples.

    The density transport gives |J_Phi(w)| proportional to
    det(e + x^2)^(n/r) at x = Phi(w); samples closer than ``margin`` to the
    singular set det(e - w) = 0 are rejected.
    """
    values = []
    for z in boundary_samples:
        w = lie_to_spin(np.asarray(z, dtype=complex))
        e = jd.identity(w.algebra)
        det = jd.determinant(e - w)
        if abs(det) < margin:
            raise ValueError("sample violates the Dom Phi margin")
        image = cayley(w)
        x = jd.Element(w.algebra, image.coords.real)
        residual_imag = float(np.max(np.abs(image.coords.imag)))
        if residual_imag > 1e-8 * (1.0 + np.max(np.abs(image.coords.real))):
            raise ValueError("boundary sample did not map to the real boundary")
        values.append(1.0 / jacobian_density(x))
    return float(min(values)), float(max(values))


def sample_shilov_boundary(n, count, rng, margin=1e-3):
    """Points exp(i theta) x with x on the real unit sphere, avoiding the
    singular set of the Cayley transform by the given margin."""
    out = []
    while len(out) < count:
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        z = np.exp(1j * theta) * x
        w = lie_to_spin(z)
        if abs(jd.determinant(jd.identity(w.algebra) - w)) >= margin:
            out.append(z)
    return out


# --- tube-domain Cauchy-Szego kernel ---------------------------------------------------

# order 8 integrates the exp(-s) and s exp(-s) ray integrands exactly
_S_NODES, _S_WEIGHTS = np.polynomial.laguerre.laggauss(8)
_EPS = np.finfo(float).eps


def szego_kernel_quadrature(z, u, tol=1e-6):
    """Adaptive tensor quadrature of the kernel integral over the light cone.

    ``z`` is a TubePoint (or complex spin element) with Im z in the cone at
    margin >= 1e-3; ``u`` is a real n-vector.  Returns a KernelSample whose
    error estimate is the relative change of the last refinement, as is the
    estimate a BudgetExceededError carries when ``tol`` is not reached, but
    at least 2^-52: converged levels can agree to the last bit.
    """
    z_elem = z.z if isinstance(z, TubePoint) else z
    n = z_elem.algebra.dim
    if z_elem.algebra.kind != "spin" or n != 3:
        raise NotImplementedError(
            "kernel quadrature is implemented for the light cone in R^3"
        )
    u = np.asarray(u, dtype=float)
    w = z_elem.coords - u
    y = w.imag
    margin = y[0] - np.hypot(y[1], y[2])
    if margin < 1e-3:
        raise ValueError("Im z must sit in the cone with margin >= 1e-3")

    prev = None
    err = None
    for n_phi in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        value = _kernel_fixed_order(w, n_phi)
        if prev is not None:
            err = max(abs(value - prev) / max(abs(value), 1e-300), _EPS)
            if err <= tol:
                return KernelSample(
                    z=z_elem.coords.copy(),
                    u=u,
                    value=complex(value),
                    error_estimate=float(err),
                    method="quadrature",
                )
        prev = value
    raise BudgetExceededError(
        "kernel quadrature did not reach the tolerance",
        partial=prev,
        error_estimate=float(err),
    )


def _kernel_fixed_order(w, n_phi):
    """One tensor quadrature pass with ``n_phi`` equispaced angles.

    The t and rho half-line integrals carry the damping exp(-2 pi Im(.))
    with strictly positive rates, so Gauss-Laguerre is applied along the
    rotated rays t = i s / (2 pi w1) and rho = i s / (2 pi g(phi)).  There
    the integrands are exp(-s) and s exp(-s), which the fixed order-8 rule
    integrates exactly, so those factors are its moments Gamma(1) and
    Gamma(2) in quadrature form; only the periodic, analytic angular factor
    is resolved, by the trapezoid rule (Trefethen & Weideman, 2014).
    """
    w1 = w[0]
    t_integral = (1j / (2.0 * np.pi * w1)) * np.sum(_S_WEIGHTS)

    phi = (2.0 * np.pi / n_phi) * np.arange(n_phi)
    g = w1 + w[1] * np.cos(phi) + w[2] * np.sin(phi)

    gamma2 = float(_S_WEIGHTS @ _S_NODES)     # = Gamma(2) = 1, quadrature form
    radial = (1j / (2.0 * np.pi * g)) ** 2 * gamma2
    return t_integral * (2.0 * np.pi / n_phi) * np.sum(radial)


def kernel_power_law_products(samples, tol=1e-6):
    """|kernel| * |det((z - u)/i)|^(n/r) over (z, u) samples.

    The classical closed form predicts this is constant; the constant is
    measured, not asserted.
    """
    products = []
    for z_elem, u in samples:
        sample = szego_kernel_quadrature(TubePoint(z_elem), u, tol=tol)
        w = z_elem.coords - np.asarray(u)
        arg = jd.Element(z_elem.algebra, w / 1j)
        det = jd.determinant(arg)
        exponent = z_elem.algebra.dim / z_elem.algebra.rank
        products.append(abs(sample.value) * abs(det) ** exponent)
    return np.array(products)


# --- kernel relation between the ball and the tube ------------------------------------

FD_STEP = 1e-5


def cayley_jacobian_modulus(z, step=FD_STEP):
    """|J_Phi| at a Lie-ball coordinate point by central finite differences.

    The transform is holomorphic, so the determinant of the underlying real
    2n x 2n differential equals |J_Phi|^2.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]

    def as_real(vec):
        return np.concatenate([vec.real, vec.imag])

    def phi_real(re_im):
        zz = re_im[:n] + 1j * re_im[n:]
        return as_real(cayley(lie_to_spin(zz)).coords)

    base = as_real(z)
    jac = np.empty((2 * n, 2 * n))
    for col in range(2 * n):
        bump = np.zeros(2 * n)
        bump[col] = step
        jac[:, col] = (phi_real(base + bump) - phi_real(base - bump)) / (
            2.0 * step
        )
    det = np.linalg.det(jac)
    return float(np.sqrt(abs(det)))


def closed_form_ball_kernel_modulus(z, zprime):
    """|det(w - w')|^(-n/r) in spin coordinates: the transported modulus of
    the bounded-domain kernel for the light-cone case (constants dropped)."""
    w = lie_to_spin(np.asarray(z, dtype=complex))
    wp = lie_to_spin(np.asarray(zprime, dtype=complex))
    det = jd.determinant(w - wp)
    exponent = w.algebra.dim / w.algebra.rank
    return float(abs(det) ** (-exponent))


def kernel_relation_predicted_modulus(z, zprime, tol=1e-6):
    """|S_T(Phi z, Phi z')| |J(z)|^(1/2) |J(z')|^(1/2), up to the fitted
    constant."""
    tube_z = lie_ball_to_tube(z)
    image_p = cayley(lie_to_spin(np.asarray(zprime, dtype=complex)))
    u = image_p.coords.real
    if np.max(np.abs(image_p.coords.imag)) > 1e-8 * (1 + np.max(np.abs(u))):
        raise ValueError("z' must come from the Shilov boundary")
    kernel = szego_kernel_quadrature(tube_z, u, tol=tol)
    jz = cayley_jacobian_modulus(z)
    jp = cayley_jacobian_modulus(np.asarray(zprime, dtype=complex))
    return abs(kernel.value) * np.sqrt(jz) * np.sqrt(jp)


def fit_kernel_relation_constant(z, zprime, tol=1e-6):
    """|c0| making the transported tube kernel match the closed-form ball
    kernel modulus at one (interior, boundary) pair."""
    return closed_form_ball_kernel_modulus(z, zprime) / (
        kernel_relation_predicted_modulus(z, zprime, tol=tol)
    )


def szego_kernel_relation_residual(z, zprime, c0_modulus, tol=1e-6):
    """Relative defect of |S_D| = |c0| |S_T(Phi., Phi.)| |J|^(1/2) |J'|^(1/2)
    on a held-out pair, with |c0| fitted elsewhere."""
    target = closed_form_ball_kernel_modulus(z, zprime)
    predicted = c0_modulus * kernel_relation_predicted_modulus(z, zprime,
                                                               tol=tol)
    return float(abs(predicted - target) / target)
