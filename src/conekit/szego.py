"""Cayley transform between the Lie ball and the tube over the light cone,
the boundary-measure density, and the tube-domain Cauchy-Szego kernel in
closed form and by quadrature.

Coordinates: Lie-ball points are stored in spin-factor (Jordan)
coordinates w, on which the Cayley transform w -> i(e + w)(e - w)^(-1)
acts and the ball is |det w|^2 < 1, 2|w|^2 - 1 < |det w|^2.  The samplers
draw in the classical chart (the same inequalities with q(z) = sum z_j^2),
the Lie ball in polar form with one candidate per point, and apply the twist
(z_1, z') -> (z_1, i z') once, as they draw; every other function takes
Jordan coordinates, in (m, n) batches.

The tube kernel is the closed form c_n Delta((z - u)/i)^(-n/2) on the
spin factors (Faraut & Koranyi 1994, ch. VII), which the ball/tube kernel
relation reads.  The kernel samples are written by a quadrature over the
light cone of R^3 in (t, rho, phi), xi_1 = rho + t,
xi' = rho (cos phi, sin phi): on rotated rays the t and rho factors are the
exact moments Gamma(1) = Gamma(2) = 1, and only the angle is refined, by
the periodic trapezoid rule.  ``conekit validate`` ties the quadrature to
the closed form, in value and phase.
The Cayley Jacobian is the closed form |J_Phi(w)| = 2^n |det(e - w)|^(-2n/r)
on every Euclidean Jordan algebra of dimension n and rank r (ibid., ch. X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jordan as jd
from .errors import BudgetExceededError, NearSingularityError

DOM_PHI_MARGIN = 1e-12
_BLOCK_ROWS = 4096   # rows per sampler block and consistency-check chunk


# --- domain points ------------------------------------------------------------

@dataclass(frozen=True)
class TubePoint:
    """Point of the tube R^n + i Omega, stored as a complex spin element."""

    z: jd.Element

    @property
    def y(self):
        return jd.Element(self.z.algebra, self.z.coords.imag)

    def margin(self):
        return jd.cone_margin(self.y)


@dataclass(frozen=True)
class KernelSample:
    value: complex
    error_estimate: float
    method: str


# --- membership predicates ------------------------------------------------------

def lie_ball_contains(w, margin=0.0):
    """Both strict inequalities |det w|^2 < 1 - margin and
    2|w|^2 - 1 < |det w|^2 - margin at spin-factor coordinates ``w``, with
    det w = w_1^2 - sum_{j>1} w_j^2, row by row."""
    w = np.asarray(w, dtype=complex)
    sq = w * w
    dd = np.abs(sq[..., 0] - np.sum(sq[..., 1:], axis=-1)) ** 2
    inside = (dd < 1.0 - margin) & (
        2.0 * np.sum(np.abs(w) ** 2, axis=-1) - 1.0 < dd - margin)
    return bool(inside) if inside.ndim == 0 else inside


def _twist(z):
    """(z_1, z') -> (z_1, i z'): a fresh draw in the classical Lie-ball chart
    to spin-factor coordinates, in place."""
    z[..., 1:] *= 1j
    return z


# --- the Cayley transform ---------------------------------------------------------

def cayley(w):
    """Phi(w) = i (e + w)(e - w)^(-1) in the Jordan algebra sense."""
    e = jd.identity(w.algebra)
    wc = jd.Element(w.algebra, w.coords.astype(complex))
    _guarded_det(e - wc, wc)
    return 1j * jd.jordan_product(e + wc, jd.jordan_inverse(e - wc))


def cayley_inverse(z):
    """Phi^(-1)(z) = (z - i e)(z + i e)^(-1); round-trips with ``cayley``."""
    zc = jd.Element(z.algebra, z.coords.astype(complex))
    ie = 1j * jd.identity(z.algebra)
    _guarded_det(zc + ie, zc, "det(z + i e) ~ 0; Cayley inverse singular")
    return jd.jordan_product(zc - ie, jd.jordan_inverse(zc + ie))


def _guarded_det(denom, x,
                 message="point is outside Dom Phi (det(e - w) ~ 0)"):
    """|det(denom)|, refused with NearSingularityError(message) unless above
    DOM_PHI_MARGIN (1 + |x|^rank) on every row of x, a NaN row included."""
    det = np.abs(jd.determinant(denom))
    if not np.all(det > DOM_PHI_MARGIN
                  * (1.0 + jd.norm(x) ** x.algebra.rank)):
        raise NearSingularityError(message)
    return det


def _accepted_rows(count, draw):
    """The first ``count`` accepted rows, in draw order.  ``draw(m)`` makes
    m candidates and returns rows and their acceptance mask; m follows the
    acceptance seen so far and is capped at _BLOCK_ROWS.  A negative
    ``count`` raises ValueError before any draw."""
    if not count >= 0:
        raise ValueError("sample count must be non-negative")
    blocks, have, drawn = [], 0, 0
    while not blocks or have < count:
        need = count - have
        m = min(_BLOCK_ROWS, need * (drawn + 1) // (have + 1) * 11 // 10 + 16)
        rows, keep = draw(m)
        blocks.append(rows[keep])
        have, drawn = have + len(blocks[-1]), drawn + m
    return np.concatenate(blocks)[:count]


def sample_lie_ball(n, count, rng, margin=0.0):
    """``count`` uniform Lie-ball points in spin-factor coordinates, as a
    (count, n) array, with both inequalities held at ``margin``.

    Drawn in polar form z = exp(i theta)(a xi + i b eta), a >= b >= 0, with
    (xi, eta) an orthonormal real 2-frame, then twisted.  In t1 = a + b and
    t2 = a - b the ball is t1 < 1 and Lebesgue measure is
    t1 t2 (t1^2 - t2^2)^(n-2) dt1 dt2 (the SVD Jacobian of the real n x 2
    matrix [Re z, Im z]; Faraut & Koranyi 1994, ch. X), the product of
    t1^(2n-1) and r (1 - r^2)^(n-2) in r = t2 / t1: t1^(2n) is uniform and
    1 - r^2 is Beta(1, n - 1).  The margin region is (t1 t2)^2 < 1 - margin
    and (1 - t1^2)(1 - t2^2) > margin, so frames are built only for pairs
    that pass it; each row is then held to ``lie_ball_contains``."""
    if not 0.0 <= margin < 1.0:
        raise ValueError("Lie-ball margin must lie in [0, 1)")
    jd.spin_factor(n)                   # refuses n < 3 before any draw

    def draw(m):
        t1 = rng.uniform(size=m) ** (1.0 / (2 * n))
        t2 = t1 * np.sqrt(1.0 - rng.uniform(size=m) ** (1.0 / (n - 1)))
        keep = (((t1 * t2) ** 2 < 1.0 - margin)
                & ((1.0 - t1**2) * (1.0 - t2**2) > margin))
        t1, t2 = t1[keep], t2[keep]
        xi, eta = rng.normal(size=(2, len(t1), n))
        xi /= np.linalg.norm(xi, axis=-1)[:, None]
        eta -= np.sum(eta * xi, axis=-1)[:, None] * xi
        eta /= np.linalg.norm(eta, axis=-1)[:, None]
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(t1)))
        z = phase[:, None] * (((t1 + t2) / 2.0)[:, None] * xi
                              + 1j * ((t1 - t2) / 2.0)[:, None] * eta)
        w = _twist(z)
        return w, lie_ball_contains(w, margin)

    return _accepted_rows(count, draw)


def sample_tube(n, count, rng):
    """Tube samples x + iy with x in [-5, 5)^n and y in the cone at margin
    above 0.05, as a batched spin element of shape (count, n)."""
    a = jd.spin_factor(n)               # refuses n < 3 before any draw
    yprime = rng.normal(size=(count, n - 1))
    y1 = (np.linalg.norm(yprime, axis=-1) + 1e-6
          + np.abs(rng.normal(size=count)) + 0.05)
    x = rng.uniform(-5.0, 5.0, size=(count, n))
    coords = x + 1j * np.concatenate((y1[:, None], yprime), axis=-1)
    return jd.Element(a, coords)


def conformal_consistency_check(n, samples, seed):
    """Round-trip membership test of the conformal equivalence.

    Lie-ball samples must map into the tube (imaginary part in the cone) and
    tube samples must pull back into the Lie ball, in chunks of _BLOCK_ROWS
    points.  Returns a dict with the failure count (contract: zero) and the
    worst cone margin observed.  ``samples`` must be a positive int.
    """
    if not (type(samples) is int and samples > 0):
        raise ValueError("samples must be a positive integer")
    a = jd.spin_factor(n)
    rng = np.random.default_rng(seed)
    chunks = [min(_BLOCK_ROWS, samples - start)
              for start in range(0, samples, _BLOCK_ROWS)]
    failures = 0
    worst_margin = np.inf
    for size in chunks:
        tube = TubePoint(cayley(jd.Element(a, sample_lie_ball(n, size, rng))))
        margin = tube.margin()
        worst_margin = min(worst_margin, np.min(margin))
        failures += size - np.count_nonzero(margin > 0.0)
    for size in chunks:
        back = cayley_inverse(sample_tube(n, size, rng)).coords
        failures += size - np.count_nonzero(lie_ball_contains(back))
    return {
        "samples": 2 * samples,
        "failures": int(failures),
        "worst_tube_margin": float(worst_margin),
    }


# --- boundary measure density -------------------------------------------------------

def jacobian_density(x):
    """det(e + x^2)^(-n/r): the unnormalized boundary-measure density."""
    val = jd.determinant(jd.identity(x.algebra) + jd.square(x))
    return val ** (-x.algebra.dim / x.algebra.rank)


def sample_shilov_boundary(n, count, rng, margin=1e-3):
    """Twisted points exp(i theta) x, x on the real unit sphere, as a
    (count, n) array, at least ``margin`` from the singular set of the
    Cayley transform.  |det(e - w)| <= 4 there, so margin lies in [0, 4)."""
    if not 0.0 <= margin < 4.0:
        raise ValueError("Shilov-boundary margin must lie in [0, 4)")
    e = jd.identity(jd.spin_factor(n))

    def draw(m):
        x = rng.normal(size=(m, n))
        x /= np.linalg.norm(x, axis=-1)[:, None]
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))[:, None] * x
        w = jd.Element(e.algebra, _twist(z))
        return w.coords, np.abs(jd.determinant(e - w)) >= margin

    return _accepted_rows(count, draw)


# --- tube-domain Cauchy-Szego kernel ---------------------------------------------------

def szego_kernel(z, u):
    """c_n Delta((z - u)/i)^(-n/2), the tube kernel over the light cone of
    R^n in closed form (Faraut & Koranyi 1994, ch. VII), at a complex spin
    element ``z`` with Im z in the cone and real ``u``, row by row, with
    c_n = Gamma(n/2) 2^(n/2) / (2 pi)^((n+2)/2) its value at (ie, 0).  The
    roots of Delta at (z - u)/i have positive real parts, as Im z is in the
    cone, so the principal branch is the one positive on the cone."""
    a, n = z.algebra, z.algebra.dim
    if a.kind != "spin":
        raise NotImplementedError("the closed-form kernel needs a spin factor")
    d = jd.Element(a, (z.coords - np.asarray(u, dtype=float)) / 1j)
    if not np.all(jd.cone_margin(jd.Element(a, d.coords.real)) > 0.0):
        raise ValueError("Im z must lie in the cone")
    c = math.gamma(n / 2) * 2.0 ** (n / 2) / (2.0 * np.pi) ** (n / 2 + 1)
    return c * np.power(jd.determinant(d), -n / 2)


_EPS = np.finfo(float).eps


def szego_kernel_quadrature(z, u, tol=1e-6):
    """Adaptive tensor quadrature of the kernel integral over the light cone.

    ``z`` is a finite TubePoint (or complex spin element) with Im z in the
    cone at margin >= 1e-3; ``u`` is a finite real n-vector.  Returns a
    KernelSample whose error estimate is the relative change of the last
    refinement, as is the estimate a BudgetExceededError carries when
    ``tol`` is not reached, but at least 2^-52: converged levels can agree
    to the last bit.
    """
    z_elem = z.z if isinstance(z, TubePoint) else z
    n = z_elem.algebra.dim
    if z_elem.algebra.kind != "spin" or n != 3:
        raise NotImplementedError(
            "kernel quadrature is implemented for the light cone in R^3"
        )
    u = np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(z_elem.coords.real)) and np.all(np.isfinite(u))):
        raise ValueError("Re z and u must be finite")
    w = z_elem.coords - u
    margin = jd.cone_margin(jd.Element(z_elem.algebra, w.imag))
    if not 1e-3 <= margin < np.inf:
        raise ValueError("Im z must be finite, in the cone at margin >= 1e-3")

    prev = None
    err = None
    for n_phi in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        value = _kernel_fixed_order(w, n_phi)
        if prev is not None:
            err = max(abs(value - prev) / max(abs(value), 1e-300), _EPS)
            if err <= tol:
                return KernelSample(
                    value=complex(value),
                    error_estimate=float(err),
                    method="quadrature",
                )
        prev = value
    raise BudgetExceededError(
        f"kernel quadrature did not reach tol = {tol:g}",
        partial=prev,
        error_estimate=float(err),
    )


def _kernel_fixed_order(w, n_phi):
    """One periodic trapezoid pass with ``n_phi`` equispaced angles.

    The t and rho half-line integrals carry the damping exp(-2 pi Im(.))
    with strictly positive rates.  Along the rotated rays t = i s / (2 pi w1)
    and rho = i s / (2 pi g(phi)) their integrands are exp(-s) and
    s exp(-s), with integrals Gamma(1) = Gamma(2) = 1, so they contribute
    i / (2 pi w1) and (i / (2 pi g))^2 exactly; only the periodic, analytic
    angular factor is resolved numerically (Trefethen & Weideman, 2014).
    """
    phi = (2.0 * np.pi / n_phi) * np.arange(n_phi)
    g = w[0] + w[1] * np.cos(phi) + w[2] * np.sin(phi)
    radial = (1j / (2.0 * np.pi * g)) ** 2
    return (1j / (2.0 * np.pi * w[0])) * (2.0 * np.pi / n_phi) * np.sum(radial)


# --- kernel relation between the ball and the tube ------------------------------------

RELATION_TOL = 1e-12   # gate on |c0 / fit - 1| and on |c0 c_n - 1|


def cayley_jacobian_modulus(w):
    """|J_Phi(w)| = 2^n |det(e - w)|^(-2n/r), with n and r the dimension
    and rank of the element's algebra (Faraut & Koranyi 1994, ch. X), row
    by row over a batched element; refused where ``cayley`` refuses."""
    a = w.algebra
    det = _guarded_det(jd.identity(a) - w, w)
    # the ufunc, not **: a numpy scalar's ** rounds apart from the array
    # loop, and a batch must equal its per-row calls bit for bit
    return 2.0 ** a.dim * np.power(det, -2 * a.dim / a.rank)


def fit_kernel_relation_constant(w, wprime):
    """|c0| = |det(w - w')|^(-n/r) / (|S_T(Phi w, Phi w')| |J|^(1/2) |J'|^(1/2))
    at (interior, Shilov boundary) pairs, row by row, with S_T the closed
    form ``szego_kernel``: 1 / c_n on every pair.  The 2m rows go through
    ``cayley`` once; one pair returns a float, bit for bit its batch row."""
    a = w.algebra
    rows = np.vstack((w.coords, wprime.coords))
    m = len(rows) // 2
    pairs = jd.Element(a, rows)
    image = cayley(pairs).coords
    u = image[m:].real
    if not np.all(np.max(np.abs(image[m:].imag), axis=-1)
                  <= 1e-8 * (1 + np.max(np.abs(u), axis=-1))):
        raise ValueError("w' must come from the Shilov boundary")
    jac = np.sqrt(cayley_jacobian_modulus(pairs))
    ball = np.abs(jd.determinant(jd.Element(a, rows[:m] - rows[m:])))
    kernel = np.abs(szego_kernel(jd.Element(a, image[:m]), u))
    c0 = np.power(ball, -a.dim / a.rank) / (kernel * jac[:m] * jac[m:])
    return float(c0[0]) if w.coords.ndim == 1 else c0
