"""Euclidean Jordan algebras: spin factors and real symmetric matrices.

Two algebra kinds are supported:

* spin factor of dimension n >= 3: V = R x R^(n-1) with product
  x*y = (x1*y1 + <x', y'>, x1*y' + y1*x'), rank 2, and the Lorentz
  determinant det(x) = x1^2 - |x'|^2.  The positivity cone is the forward
  light cone {x1 > |x'|}.
* Sym(r), r >= 2: real symmetric r x r matrices with product
  x*y = (xy + yx)/2, rank r, the usual matrix determinant, and the cone of
  positive definite matrices.

Elements are stored as flat coordinate vectors (symmetric matrices use the
row-major upper triangle).  The inner product is the trace form tr(xy) for
matrices and the Euclidean dot product for spin factors.

Coordinates may be a batch of shape (..., dim), for both kinds: every
function then returns arrays, and a single element gets Python scalars from
the same code.  Idempotents and frames stay single elements, checked once per
call; ``trace``, ``is_idempotent`` and ``primitive_idempotent_check`` refuse a
batch.

Besides the algebra arithmetic, the module provides cone membership through
principal minors, Peirce decompositions with respect to an idempotent, and
the filling radius in closed form: the smallest R such that xi + R*(e - c1)
lies in the closed cone, +inf where <xi, c1> <= 0 and no R does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DivisionSingularityError

IDEMPOTENT_TOL = 1e-8
FRAME_TOL = 1e-10


@dataclass(frozen=True)
class Algebra:
    """Descriptor of a Euclidean Jordan algebra (spin factor or Sym(r))."""

    kind: str          # "spin" or "sym"
    size: int          # n for the spin factor, r for Sym(r)

    def __post_init__(self):
        if not type(self.size) is int:
            raise ValueError("algebra size must be an int")
        if self.kind == "spin":
            if self.size < 3:
                raise ValueError("spin factor needs dimension >= 3")
        elif self.kind == "sym":
            if self.size < 2:
                raise ValueError("Sym(r) needs rank >= 2")
        else:
            raise ValueError(f"unknown algebra kind {self.kind!r}")

    @property
    def dim(self):
        if self.kind == "spin":
            return self.size
        return self.size * (self.size + 1) // 2

    @property
    def rank(self):
        return 2 if self.kind == "spin" else self.size


def spin_factor(n):
    return Algebra("spin", n)


def sym_matrix(r):
    return Algebra("sym", r)


@dataclass(frozen=True)
class Element:
    """A point of a Jordan algebra, real or complexified.

    ``coords`` has length ``algebra.dim`` on its last axis, after any
    leading batch axes; a complex dtype marks an element of the complexified
    algebra (used by the Cayley-transform machinery).
    """

    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords)
        if coords.shape[-1:] != (self.algebra.dim,):
            raise ValueError(f"coords of shape {coords.shape} do not fit "
                             f"{self.algebra}")
        if not np.iscomplexobj(coords):
            coords = coords.astype(float)
        object.__setattr__(self, "coords", coords)

    @property
    def is_complex(self):
        return np.iscomplexobj(self.coords)

    def __add__(self, other):
        _require_same_algebra(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other):
        _require_same_algebra(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __mul__(self, scalar):
        return Element(self.algebra, self.coords * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Element(self.algebra, -self.coords)


def _require_same_algebra(x, y):
    if x.algebra != y.algebra:
        raise ValueError("elements belong to different algebras")


def _one(*xs):
    """Refuse a batch in a function that takes a single element."""
    if any(x.coords.ndim > 1 for x in xs):
        raise ValueError("this function takes one element, not a batch")


def _out(val, kind):
    """Python ``kind`` for a single element, the array for a batch."""
    return kind(val) if np.ndim(val) == 0 else val


# --- symmetric matrix <-> coordinate vector layout -------------------------

@functools.cache
def _triu(r):
    """Upper-triangle indices of an r x r matrix, shared and read-only."""
    iu = np.triu_indices(r)
    for index in iu:
        index.flags.writeable = False
    return iu


def mat_to_vec(m):
    """Flatten symmetric matrices (..., r, r) to upper-triangle vectors."""
    m = np.asarray(m)
    iu = _triu(m.shape[-1])
    return m[..., iu[0], iu[1]]


def vec_to_mat(v, r):
    """Rebuild full symmetric matrices from upper-triangle vectors."""
    v = np.asarray(v)
    m = np.zeros(v.shape[:-1] + (r, r), dtype=v.dtype)
    iu = _triu(r)
    m[..., iu[0], iu[1]] = v
    m[..., iu[1], iu[0]] = v
    return m


def from_matrix(m):
    """Element of Sym(r) from full symmetric matrices (symmetrized)."""
    m = np.asarray(m)
    ms = (m + np.swapaxes(m, -1, -2)) / 2
    return Element(sym_matrix(m.shape[-1]), mat_to_vec(ms))


def as_matrix(x):
    if x.algebra.kind != "sym":
        raise ValueError("as_matrix requires a Sym(r) element")
    return vec_to_mat(x.coords, x.algebra.size)


def identity(algebra):
    if algebra.kind == "spin":
        coords = np.zeros(algebra.dim)
        coords[0] = 1.0
        return Element(algebra, coords)
    return from_matrix(np.eye(algebra.size))


def zero(algebra):
    return Element(algebra, np.zeros(algebra.dim))


# --- basic arithmetic -------------------------------------------------------

def jordan_product(x, y):
    """The Jordan product x*y; commutative, not associative."""
    _require_same_algebra(x, y)
    a = x.algebra
    if a.kind == "spin":
        x1, xp = x.coords[..., :1], x.coords[..., 1:]
        y1, yp = y.coords[..., :1], y.coords[..., 1:]
        first = x1 * y1 + np.sum(xp * yp, axis=-1, keepdims=True)
        rest = x1 * yp + y1 * xp
        return Element(a, np.concatenate((first, rest), axis=-1))
    xm, ym = as_matrix(x), as_matrix(y)
    return from_matrix((xm @ ym + ym @ xm) / 2)


def square(x):
    return jordan_product(x, x)


def inner(x, y):
    """Trace form tr(xy) for Sym(r); Euclidean dot for spin factors."""
    _require_same_algebra(x, y)
    if x.algebra.kind == "spin":
        val = np.sum(x.coords * y.coords, axis=-1)
    else:
        val = np.trace(as_matrix(x) @ as_matrix(y), axis1=-2, axis2=-1)
    return _out(val, complex if x.is_complex or y.is_complex else float)


def norm(x):
    sq = inner(x, conj(x)) if x.is_complex else inner(x, x)
    return _out(np.sqrt(np.abs(sq)), float)


def conj(x):
    return Element(x.algebra, np.conj(x.coords))


def determinant(x):
    """Jordan determinant: x1^2 - <x', x'> (bilinear) or det of the matrix."""
    if x.algebra.kind == "spin":
        x1, xp = x.coords[..., 0], x.coords[..., 1:]
        val = x1 * x1 - np.sum(xp * xp, axis=-1)
    else:
        val = np.linalg.det(as_matrix(x))
    return _out(val, complex if x.is_complex else float)


def jordan_inverse(x):
    """Jordan inverse; for the spin factor (x1, -x')/det(x)."""
    if x.algebra.kind == "spin":
        d = np.expand_dims(determinant(x), -1)
        if np.any(d == 0):
            raise DivisionSingularityError("spin element has zero determinant")
        coords = np.concatenate((x.coords[..., :1], -x.coords[..., 1:]), -1)
        return Element(x.algebra, coords / d)
    return from_matrix(np.linalg.inv(as_matrix(x)))


def trace(x):
    _one(x)
    if x.algebra.kind == "spin":
        return 2 * x.coords[0]
    return np.trace(as_matrix(x))


# --- idempotents, frames, Peirce decomposition ------------------------------

def is_idempotent(c, tol=FRAME_TOL):
    _one(c)
    return norm(jordan_product(c, c) - c) <= tol * max(1.0, norm(c))


def primitive_idempotent_check(c):
    """True iff c is an idempotent of trace 1, to IDEMPOTENT_TOL relative.

    The trace of an idempotent is the number of orthogonal primitive
    idempotents it splits into (Faraut & Koranyi, 1994), an integer, so
    trace 1 means primitive and the window around 1 can be wide.
    """
    if c.is_complex:
        raise ValueError("primitivity is defined for real elements")
    return is_idempotent(c, IDEMPOTENT_TOL) and abs(trace(c) - 1.0) <= 0.25


def peirce_components(x, c):
    """Eigencomponents of x under L(c) for any idempotent c (values 1, 1/2, 0).

    Uses the spectral projections 2L^2 - L (eigenvalue 1), 4L - 4L^2
    (eigenvalue 1/2) and I - 3L + 2L^2 (eigenvalue 0), which are exact
    polynomial identities for L = L(c) with c idempotent.
    """
    _one(c)
    lx = jordan_product(c, x)
    llx = jordan_product(c, lx)
    x1 = 2 * llx - lx
    xhalf = 4 * lx - 4 * llx
    x0 = x - 3 * lx + 2 * llx
    return x1, xhalf, x0


def peirce_decompose(x, c):
    """(x1, xhalf, x0) with x = x1 + xhalf + x0, c a primitive idempotent."""
    if not primitive_idempotent_check(c):
        raise ValueError("peirce_decompose expects a primitive idempotent")
    return peirce_components(x, c)


@dataclass(frozen=True)
class JordanFrame:
    """Complete system of orthogonal primitive idempotents summing to e,
    validated once when built (an invalid frame raises ValueError)."""

    algebra: Algebra
    idempotents: tuple

    def __post_init__(self):
        if len(self.idempotents) != self.algebra.rank:
            raise ValueError("frame size must equal the algebra rank")
        if not self.validate():
            raise ValueError("incomplete or invalid Jordan frame")

    def validate(self):
        """Primitive idempotents, pairwise orthogonal, summing to e: each
        test to FRAME_TOL."""
        cs = self.idempotents
        for i, c in enumerate(cs):
            if not (is_idempotent(c) and primitive_idempotent_check(c)):
                return False
            for j in range(i):
                if norm(jordan_product(c, cs[j])) > FRAME_TOL:
                    return False
        return norm(sum(cs[1:], cs[0]) - identity(self.algebra)) <= FRAME_TOL


def standard_frame(algebra):
    if algebra.kind == "spin":
        u = np.zeros(algebra.dim - 1)
        u[0] = 1.0
        return spin_frame(u)
    r = algebra.size
    cs = []
    for i in range(r):
        m = np.zeros((r, r))
        m[i, i] = 1.0
        cs.append(from_matrix(m))
    return JordanFrame(algebra, tuple(cs))


def spin_frame(u):
    """Frame {(1, u)/2, (1, -u)/2} of the spin factor from a unit vector u."""
    u = np.asarray(u, dtype=float)
    nrm = np.linalg.norm(u)
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError("spin frame direction must be a unit vector")
    a = spin_factor(u.shape[0] + 1)
    c1 = Element(a, np.concatenate(([1.0], u)) / 2)
    c2 = Element(a, np.concatenate(([1.0], -u)) / 2)
    return JordanFrame(a, (c1, c2))


def frame_vectors(frame):
    """Unit eigenvectors q_i with c_i = q_i q_i^T, for a Sym(r) frame."""
    if frame.algebra.kind != "sym":
        raise ValueError("frame_vectors requires a Sym(r) frame")
    qs = []
    for c in frame.idempotents:
        w, v = np.linalg.eigh(as_matrix(c))
        qs.append(v[:, np.argmax(w)])
    return np.column_stack(qs)


# --- cone membership --------------------------------------------------------

def principal_minors(x, frame):
    """Principal minors along a Jordan frame, on the last axis.

    The l-th entry is the determinant of the projection of x onto the
    subalgebra generated by the first l frame idempotents.  For the spin
    factor this is (<x, c1>/<c1, c1>, det(x)); for Sym(r) the determinant
    of the compression onto the span of the first l frame directions.
    """
    if frame.algebra != x.algebra:
        raise ValueError("frame belongs to a different algebra")
    if x.algebra.kind == "spin":
        minors = (peirce_coefficient(x, frame.idempotents[0]), determinant(x))
    else:
        q = frame_vectors(frame)
        m = as_matrix(x)
        minors = [np.linalg.det(q[:, : l + 1].T @ m @ q[:, : l + 1])
                  for l in range(x.algebra.size)]
    return np.stack(minors, axis=-1)


def cone_contains(x, frame):
    """Membership in the open symmetric cone: all principal minors > 0."""
    return _out(np.all(principal_minors(x, frame) > 0.0, axis=-1), bool)


def in_cone(x):
    """Direct cone test: x1 > |x'| for spin, positive definiteness for Sym."""
    return _out(cone_margin(x) > 0.0, bool)


def cone_margin(x):
    """Smallest eigenvalue: x1 - |x'| for spin, lambda_min for Sym."""
    if x.is_complex:
        raise ValueError("cone membership is defined for real elements")
    if x.algebra.kind == "spin":
        radius = np.linalg.norm(x.coords[..., 1:], axis=-1)
        val = x.coords[..., 0] - radius
    else:
        val = np.linalg.eigvalsh(as_matrix(x))[..., 0]
    return _out(val, float)


# --- Peirce-0 rank reduction and the filling radius --------------------------

def peirce_coefficient(x, c):
    """Coefficient lambda with x_1-component = lambda * c (normalized pairing)."""
    _one(c)
    return _out(inner(x, c) / inner(c, c), float)


def _v0_compression(x, c1):
    """x in the Peirce-0 subalgebra of a primitive idempotent c1: the
    coefficient along e - c1 (spin), or u^T x u for an orthonormal basis u
    of ker(c1) (Sym)."""
    a = c1.algebra
    if a.kind == "spin":
        eprime = identity(a) - c1
        return inner(x, eprime) / inner(eprime, eprime)
    w, v = np.linalg.eigh(as_matrix(c1))
    u = v[:, w < 0.5]
    return u.T @ as_matrix(x) @ u


def _schur_parts(xi, c1, lam):
    """xi_0 and (xi_half^2)_0 / lam: with them, xi + R*(e - c1) has
    determinant lam * det'(xi_0 + R*e' - (xi_half^2)_0 / lam)."""
    _, xihalf, xi0 = peirce_components(xi, c1)
    _, _, half_sq0 = peirce_components(square(xihalf), c1)
    scale = np.expand_dims(1.0 / np.asarray(lam), -1)
    return xi0, Element(xi.algebra, half_sq0.coords * scale)


def filling_radius(xi, c1):
    """Smallest R with xi + R*(e - c1) in the closed cone: a float for one
    element, an array for a batch.

    The radius is +inf, the infimum of the empty set, where <xi, c1> <= 0
    (the first minor can never become positive).  Otherwise, with lam the
    Peirce coefficient and A = xi_0 - (xi_half^2)_0 / lam, xi + R*(e - c1)
    is in the open cone exactly when A + R*e' is (rank reduction, Faraut &
    Koranyi 1994, ch. IV), so R = max(0, -lambda_min(A)).
    """
    if not primitive_idempotent_check(c1):
        raise ValueError("filling_radius expects a primitive idempotent")
    pairing = inner(xi, c1)
    fillable = np.logical_not(pairing <= 0.0)   # NaN pairing, NaN radius
    lam = np.where(fillable, pairing, 1.0) / inner(c1, c1)
    xi0, shift = _schur_parts(xi, c1, lam)
    low = _v0_compression(xi0 - shift, c1)
    if c1.algebra.kind == "sym":
        low = np.linalg.eigvalsh(low)[..., 0]
    return _out(np.where(fillable, np.maximum(0.0, -low), np.inf), float)


def det_identity_residual(xi, r_shift, c1):
    """Defect of the rank-reduction determinant identity.

    Compares det(xi + R*(e - c1)) with
    lam * det'(xi' + R*e' - (xi_half^2)'/lam), where lam is the Peirce
    coefficient of xi along c1, primes denote Peirce-0 projections and
    xi_half^2 is the Jordan square of the half-component.  ``r_shift`` is a
    scalar or one R per row.
    """
    if not primitive_idempotent_check(c1):
        raise ValueError("det_identity_residual expects a primitive idempotent")
    lam = peirce_coefficient(xi, c1)
    if np.any(lam == 0.0):
        raise DivisionSingularityError("Peirce coefficient of xi along c1 is zero")
    xi0, shift = _schur_parts(xi, c1, lam)
    a = xi.algebra
    step = Element(a, np.multiply.outer(r_shift, (identity(a) - c1).coords))
    lhs = determinant(xi + step)
    comp = _v0_compression(xi0 + step - shift, c1)
    rhs = lam * (comp if a.kind == "spin" else np.linalg.det(comp))
    return _out(np.abs(lhs - rhs), float)


# --- rank-2 slice of a higher-rank cone -------------------------------------

def slice_test(xi_tilde, frame):
    """Compare ambient and rank-2 cone membership for an element of the
    upper 2x2 subalgebra.

    Returns (ambient, rank2) where ambient tests xi~ + e' against the full
    cone (e' the identity of the lower block) and rank2 tests xi~ inside the
    rank-2 subalgebra spanned by the first two frame idempotents.  The two
    answers agree.
    """
    a = frame.algebra
    if a.rank < 3:
        raise ValueError("slice_test needs an ambient algebra of rank >= 3")
    eprime = sum(frame.idempotents[2:], zero(a))
    ambient = cone_contains(xi_tilde + eprime, frame)
    q = frame_vectors(frame)[:, :2]
    m2 = q.T @ as_matrix(xi_tilde) @ q
    rank2 = (m2[..., 0, 0] > 0.0) & (np.linalg.det(m2) > 0.0)
    return ambient, _out(rank2, bool)
