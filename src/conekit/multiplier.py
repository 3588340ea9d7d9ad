"""Fourier multiplier operators for the cone, half-spaces and the half-line,
with both an FFT path and closed-form evaluation, plus the square-function
experiment that exhibits the failure of local (p, q) bounds.

The closed-form path follows from the splitting P f = (f + i H f) / 2 of the
positive-frequency projection, with H(1_[a,b])(t) = (1/pi) log|t-a|/|t-b|,
so the image of a box indicator under a half-space projection separates into
a 1D factor along the normal axis times the cross-section indicator.

The left side of the square-function inequality is evaluated as the certified
lower bound  sum_j integral over the translated box of |H_j 1_{F_j}|  (the
translates are pairwise disjoint, so this never overcounts); the right side
uses the stratified Monte-Carlo identity

    integral count^s = sum_j |F_j| * E_{x ~ Unif(F_j)} [count(x)^(s-1)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import besicovitch as bs
from .errors import BudgetExceededError, SingularPointError

BOUNDARY_TOL = 1e-12
# symbol value assigned on frequency-lattice points that fall on the symbol
# boundary; 1/2 is the symmetrized convention
BOUNDARY_VALUE = 0.5


# --- grids -------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Samples of a compactly supported function on [-L, L)^d.

    ``support_radius`` records the sup-norm radius of the support as declared
    by the builder; the multiplier application refuses grids whose support
    exceeds half the extent, since periodization would alias.
    """

    values: np.ndarray
    extent: float
    support_radius: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim not in (1, 3):
            raise ValueError("grids are 1D or 3D")
        if len(set(v.shape)) != 1:
            raise ValueError("grid must have equal samples per axis")
        if v.shape[0] < 1 or v.shape[0] & (v.shape[0] - 1):
            raise ValueError("samples per axis must be a power of two")
        if not 0.0 < self.extent < np.inf:
            raise ValueError("extent must be finite and positive")
        object.__setattr__(self, "values", np.asarray(v, dtype=complex))

    @property
    def dims(self):
        return self.values.ndim

    @property
    def samples_per_axis(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.extent / self.samples_per_axis

    def axis(self):
        m = self.samples_per_axis
        return -self.extent + self.spacing * np.arange(m)

    def freqs(self):
        return np.fft.fftfreq(self.samples_per_axis, d=self.spacing)

    def norm_l2(self):
        return float(
            np.sqrt(self.spacing**self.dims * np.sum(np.abs(self.values) ** 2))
        )

    def with_values(self, values, support_radius=None):
        return GridFunction(values, self.extent, support_radius)


# --- multiplier symbols --------------------------------------------------------

@dataclass(frozen=True)
class HalfSpace:
    """Keeps frequencies with <xi, normal> < 0; in 1D, normal (-1,) keeps
    the positive half-line."""

    normal: tuple


@dataclass(frozen=True)
class Cone:
    """Keeps frequencies inside the forward light cone xi_1 > |xi'|."""


def sample_symbol(symbol, freq_axes, shift=None):
    """Symbol values on the frequency lattice, with the boundary rule.

    ``freq_axes`` is the per-axis frequency array; ``shift`` evaluates the
    predicate at xi + shift (used for the modulated cone experiment).
    """
    if isinstance(symbol, HalfSpace):
        # -<xi + shift, normal> as sum_i (-normal_i) (xi_i - (-shift_i))
        shift = np.zeros(len(freq_axes)) if shift is None else shift
        g = _linear_form(-np.asarray(symbol.normal, dtype=float),
                         -np.asarray(shift, dtype=float), freq_axes)
    elif isinstance(symbol, Cone):
        g = np.subtract(*_cone_terms(freq_axes, shift))
    else:
        raise TypeError(f"unknown symbol {symbol!r}")
    return _boundary_rule(g)


def _cone_terms(freq_axes, shift):
    """xi_1 + s_1 along axis 0 and |xi' + s'| along the others."""
    mesh = np.meshgrid(*freq_axes, indexing="ij", sparse=True)
    shift = np.zeros(len(mesh)) if shift is None else shift
    rest = sum((m + s) ** 2 for m, s in zip(mesh[1:], shift[1:]))
    return mesh[0] + shift[0], np.sqrt(rest)


def _cone_thresholds(freqs, shift):
    """Counts [lo, hi] per column (xi_2, xi_3): in ascending xi_1 order,
    ``sample_symbol(Cone(), [freqs] * 3, shift)`` reads 0 on the first lo,
    BOUNDARY_VALUE up to hi and 1 after, since fl(a - r) is monotone in a.
    Both are bisections of all columns at once through the boundary rule."""
    first, root = _cone_terms([freqs] * 3, shift)
    first, root, m = first.ravel()[np.argsort(freqs)], root[0], len(freqs)
    n = np.zeros((2,) + root.shape, dtype=np.intp)
    level = np.array([BOUNDARY_VALUE, 1.0])[:, None, None]
    for step in m >> np.arange(m.bit_length()):     # m, m / 2, ..., 1
        i = np.minimum(n + step, m)
        n = np.where(_boundary_rule(first[i - 1] - root) < level, i, n)
    return n


def _linear_form(coeffs, offsets, axes, at=None):
    """sum_i coeffs[i] * (x_i - offsets[i]) over the grid spanned by the 1D
    arrays ``axes``, summed in axis order on one sparse mesh; with ``at``,
    index arrays into ``axes`` that broadcast together, only at the grid
    points they name, each with the bits the full grid gives it."""
    mesh = (np.meshgrid(*axes, indexing="ij", sparse=True) if at is None
            else [a[i] for a, i in zip(axes, at)])
    return sum((m - o) * c for m, o, c in zip(mesh, offsets, coeffs))


def _boundary_rule(g):
    """1 where g > 0, 0 where g < 0 and BOUNDARY_VALUE within BOUNDARY_TOL
    of 0; overwrites g, which the callers build fresh."""
    out = np.greater(g, BOUNDARY_TOL).astype(float)
    np.abs(g, out=g)
    out[g <= BOUNDARY_TOL] = BOUNDARY_VALUE
    return out


def _spectrum(f, out=None):
    """DFT of a grid, into ``out`` if given, refused when its support would
    alias under the periodization the DFT implies.  A 3D grid is transformed
    in place along axes 0, 1, 2, the first two only over the index spans that
    hold a nonzero (an all-zero line transforms to exact zeros); only the
    axis order differs from numpy's, which takes the strided axis 0 last."""
    if f.support_radius is not None and f.support_radius > f.extent / 2:
        raise ValueError(
            "grid support exceeds half the extent; pad the grid to control "
            "periodization"
        )
    if f.dims == 1:
        return np.fft.fft(f.values, out=out)
    if out is None:
        out = f.values.copy()
    elif out is not f.values:
        out[...] = f.values
    live = np.zeros(out.shape[1:], dtype=bool)    # columns (i1, i2)
    for plane in out:
        live |= plane != 0
    for i1 in np.flatnonzero(live.any(axis=1)):
        i2 = np.flatnonzero(live[i1])
        span = out[:, i1, i2[0]:i2[-1] + 1]
        np.fft.fft(span, axis=0, out=span)
    i2 = np.flatnonzero(live.any(axis=0))
    if i2.size:
        span = out[:, :, i2[0]:i2[-1] + 1]
        np.fft.fft(span, axis=1, out=span)
    return np.fft.fft(out, axis=2, out=out)


def fft_multiplier_apply(f, symbol, shift=None):
    """Apply a Fourier multiplier on the grid: DFT, symbol, inverse DFT.
    The spectrum is multiplied and inverted in place, so the input, the
    spectrum and the float symbol are the only full grids held at once."""
    fhat = _spectrum(f)
    fhat *= sample_symbol(symbol, [f.freqs()] * f.dims, shift=shift)
    return f.with_values(np.fft.ifftn(fhat, out=fhat))


def indicator_interval(extent, samples, a, b):
    """Grid samples of 1_[a,b] with one-cell box-filter antialiasing."""
    g = GridFunction(np.zeros(samples), extent, support_radius=max(abs(a), abs(b)))
    x = g.axis()
    h = g.spacing
    cov = np.clip((np.minimum(b - x, x - a) / h) + 0.5, 0.0, 1.0)
    return g.with_values(cov.astype(complex), support_radius=max(abs(a), abs(b)))


def indicator_box(box, extent, samples):
    """3D grid samples of a box indicator, antialiased per box axis.  The
    coverage vanishes half a cell outside the box, so it is evaluated only on
    the index block that holds the box dilated by one cell."""
    g = GridFunction(np.zeros(samples), extent)
    h = g.spacing
    x = g.axis()
    reach = np.abs(box.axes).T @ (box.half_extents + h)
    block = tuple(slice(*np.searchsorted(x, [c - r, c + r]))
                  for c, r in zip(box.center, reach))
    cov = 1.0
    for a, e in zip(box.axes, box.half_extents):
        local = _linear_form(a, box.center, [x[b] for b in block])
        cov = cov * np.clip((e - np.abs(local)) / h + 0.5, 0.0, 1.0)
    vals = np.zeros((samples,) * 3, dtype=complex)
    vals[block] = cov
    radius = float(np.max(np.abs(box.vertices()))) + h
    return g.with_values(vals, support_radius=radius)


# --- closed forms --------------------------------------------------------------

def halfline_projection_1d(a, b, t, sign=1):
    """Value at t of the positive-frequency part of 1_[a,b].

    Closed form (1/2) 1_[a,b](t) + sign * (i / 2 pi) log|t-a|/|t-b|; raises
    at the interval endpoints where the logarithm is singular.
    """
    if not a < b:
        raise ValueError("need a < b")
    t = np.asarray(t, dtype=float)
    if np.any(t == a) or np.any(t == b):
        raise SingularPointError("evaluation at an interval endpoint")
    real = 0.5 * ((t > a) & (t < b))
    imag = np.log(np.abs((t - a) / (t - b))) / (2.0 * np.pi)
    out = real + 1j * sign * imag
    return complex(out) if out.ndim == 0 else out


def halfline_projection_periodic(a, b, t, period):
    """Periodized positive-frequency projection of 1_[a,b].

    The DFT path acts on the periodization of the input, so its continuum
    limit is this function, not the line closed form: summing the Hilbert
    kernel over the period lattice turns the log ratio into

        (1/2 pi) log | sin(pi (t-a)/P) / sin(pi (t-b)/P) |.
    """
    if not a < b:
        raise ValueError("need a < b")
    if b - a >= period:
        raise ValueError("interval longer than the period")
    t = np.asarray(t, dtype=float)
    sa = np.sin(np.pi * (t - a) / period)
    sb = np.sin(np.pi * (t - b) / period)
    if np.any(sa == 0.0) or np.any(sb == 0.0):
        raise SingularPointError("evaluation at a periodized endpoint")
    frac = np.mod(t - a, period)
    real = 0.5 * (frac < (b - a))
    imag = np.log(np.abs(sa / sb)) / (2.0 * np.pi)
    out = real + 1j * imag
    return complex(out) if out.ndim == 0 else out


def box_axis_interval(box, n_tilde):
    """Index of the box axis parallel to n_tilde, its halfline sign, and the
    1D interval the box occupies along that axis."""
    unit = np.asarray(n_tilde, dtype=float)
    unit = unit / np.linalg.norm(unit)
    dots = box.axes @ unit
    idx = int(np.argmax(np.abs(dots)))
    if abs(abs(dots[idx]) - 1.0) > 1e-12:
        raise ValueError("n_tilde is not parallel to a box axis")
    # <xi, n_tilde> < 0 keeps sign * xi > 0 along the axis coordinate, with
    # sign = -sign(axis . n_tilde)
    sign = -int(np.sign(dots[idx]))
    c = float(box.center @ box.axes[idx])
    e = float(box.half_extents[idx])
    return idx, sign, c - e, c + e


def box_halfspace_image(box, n_tilde, x):
    """Exact value of the half-space projection of the box indicator at x.

    Separates as the 1D half-line projection along the n_tilde axis times
    the indicator of the cross-section; x may be a single point or an array
    of points with last dimension 3.
    """
    idx, sign, a, b = box_axis_interval(box, n_tilde)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    local = (pts - box.center) @ box.axes.T
    t = pts @ box.axes[idx]
    line = halfline_projection_1d(a, b, t, sign=sign)
    cross = np.ones(pts.shape[0], dtype=bool)
    for other in range(3):
        if other == idx:
            continue
        cross &= np.abs(local[:, other]) <= box.half_extents[other]
    out = np.where(cross, line, 0.0 + 0.0j)
    return complex(out[0]) if np.asarray(x).ndim == 1 else out


def box_image_grid(box, n_tilde, grid):
    """Closed-form image sampled on a 3D grid: ``box_halfspace_image`` runs
    only at the points that pass the two cross-section inequalities with a
    rounding margin, and the image is an exact zero everywhere else.

    Those points lie in the prism of the two cross-section slabs around the
    n_tilde axis.  Each plane x_i = t, on the grid axis i where that axis
    has its largest component, cuts the prism in a parallelogram whose
    centre moves linearly with t.  With A the slab normals' 2 x 2 block on
    the other two grid axes, a point whose exact slab coordinates are
    within e + margin lies within |A^-1| (e + margin) of the centre along
    them.  |det A| is that largest component, at least 1/sqrt(3), so A^-1
    has entries of at most sqrt(3); the test rounds each slab coordinate by
    a few ulps of extent + |center|, and the solve by as little, which
    moves a passing point by far less than the one cell each half-width
    adds.  So the per-plane index blocks hold every passing point.  The
    test runs on the blocks alone, through the same linear form, and the
    passing points reach ``box_halfspace_image`` in C order, as the
    full-grid test would hand them over."""
    idx = box_axis_interval(box, n_tilde)[0]
    x, m = grid.axis(), grid.samples_per_axis
    margin = 1e-9 * (grid.extent + float(np.max(np.abs(box.center))))
    slabs = np.delete(box.axes, idx, axis=0)
    bounds = np.delete(box.half_extents, idx) + margin
    plane = int(np.argmax(np.abs(box.axes[idx])))
    rest = [i for i in range(3) if i != plane]
    inv = np.linalg.inv(slabs[:, rest])
    centres = box.center[rest] - np.outer(x - box.center[plane],
                                          inv @ slabs[:, plane])
    reach = np.abs(inv) @ bounds + grid.spacing
    at = [np.arange(m)[:, None, None]] * 3
    for col, (i, c, r) in enumerate(zip(rest, centres.T, reach), start=1):
        # a block of n indices from the first at or above c - r, moved back
        # inside the grid where it would leave it
        n = min(m, int(np.ceil(2.0 * r / grid.spacing)) + 1)
        first = np.minimum(np.searchsorted(x, c - r), m - n)
        shape = [m, 1, 1]
        shape[col] = n
        at[i] = (first[:, None] + np.arange(n)).reshape(shape)
    near = True
    for a, e in zip(slabs, bounds):
        near = near & (np.abs(_linear_form(a, box.center, [x] * 3, at)) <= e)
    cells = np.unravel_index(
        np.sort(np.ravel_multi_index(at, (m,) * 3)[near]), (m,) * 3)
    vals = np.zeros((m,) * 3, dtype=complex)
    vals[cells] = box_halfspace_image(
        box, n_tilde, np.stack([x[i] for i in cells], axis=-1))
    return grid.with_values(vals)


# --- dilation covariance -------------------------------------------------------

def cone_dilation_symbol_defect(lam):
    """Sup defect of the lattice identity cone(xi) = cone(lam * xi) on the
    64^3 frequency lattice of [-8, 8)^3.

    This is the exact content of the homogeneity of the cone symbol; the
    defect is zero unless a lattice point falls inside the boundary
    tolerance band for one scale but not the other.
    """
    freqs = [GridFunction(np.zeros(64), 8.0).freqs()] * 3
    base = sample_symbol(Cone(), freqs)
    scaled = sample_symbol(Cone(), [lam * f for f in freqs])
    return float(np.max(np.abs(base - scaled)))


# --- the square-function experiment ---------------------------------------------

def translate_image_integral(f_box, ntilde, tol=1e-8):
    """Integral of |H 1_F| over the translated box F + bs.SHIFT * ntilde.

    The translate sits along the half-line axis, so the integral is the
    cross-section area times the 1D integral of |log|(t-a)/(t-b)|| / 2 pi
    over [lo, hi].  The translate misses [a, b], so the log keeps one sign
    there and the line integral is |F(hi) - F(lo)| with the antiderivative
    F(t) = (t-a) log|t-a| - (t-b) log|t-b|.  Each x log|x| term is within
    3 eps |x| (|log|x|| + 1) of its exact value and each of the three sums
    adds eps times its terms, so 8 eps sum |x| (|log|x|| + 1) bounds the
    rounding of F(hi) - F(lo), with 4 eps |F(hi) - F(lo)| more for the
    scalings.  A rounding bound above ``tol`` raises BudgetExceededError.
    """
    idx, sign, a, b = box_axis_interval(f_box, ntilde)
    ntilde = np.asarray(ntilde, dtype=float)
    axis_shift = float(bs.SHIFT * ntilde @ f_box.axes[idx])
    lo, hi = a + axis_shift, b + axis_shift
    if not (hi < a or lo > b):
        raise ValueError("translate overlaps the box along the axis")
    cross_area = 4.0 * float(
        np.prod([f_box.half_extents[i] for i in range(3) if i != idx])
    )
    x = np.array([hi - a, hi - b, lo - a, lo - b])
    logs = np.log(np.abs(x))
    terms = x * logs
    line = abs((terms[0] - terms[1]) - (terms[2] - terms[3]))
    scale = cross_area / (2.0 * np.pi)
    eps = np.finfo(float).eps
    bound = scale * eps * (8.0 * np.sum(np.abs(x) * (np.abs(logs) + 1.0))
                           + 4.0 * line)
    value = float(scale * line)
    if bound > tol:
        raise BudgetExceededError(
            "rounding bound of the closed form exceeds the tolerance",
            partial=value, error_estimate=float(bound),
        )
    return value


def translate_image_minimum(f_box, ntilde):
    """Uniform lower bound of |H 1_F| over the translate F + bs.SHIFT * ntilde.

    The log tail decreases away from the interval, so the minimum sits at the
    translate end farthest from the box, at distance |bs.SHIFT * ntilde|
    along the axis from the near interval endpoint."""
    idx, sign, a, b = box_axis_interval(f_box, ntilde)
    far = abs(float(bs.SHIFT * np.asarray(ntilde) @ f_box.axes[idx]))
    return float(np.log1p((b - a) / far) / (2.0 * np.pi))


def _cover_counts(boxes, pts):
    """How many of ``boxes`` contain each point.  ``Box3.contains`` decides
    only the points within a margin of each box's thinnest slab.  The slab
    coordinate ``pts @ a - center @ a`` and the one ``contains`` computes are
    each within 2 sqrt(3) eps S of the exact value, S = max |pts| +
    max |center|, so the margin 16 eps S drops no point ``contains`` keeps."""
    counts = np.zeros(len(pts), dtype=np.int64)
    reach = np.max(np.abs(pts), initial=0.0)
    for box in boxes:
        thin = np.argmin(box.half_extents)
        a, c = box.axes[thin], box.center
        margin = 16.0 * np.finfo(float).eps * (reach + np.max(np.abs(c)))
        cand = np.flatnonzero(
            np.abs(pts @ a - c @ a) <= box.half_extents[thin] + margin)
        counts[cand] += box.contains(pts[cand])
    return counts


def _pooled(acc, g):
    """The summary (points, mean, sum of squared deviations) ``acc`` pooled
    with the sample ``g`` by the pairwise update of Chan, Golub & LeVeque
    (1979); ``acc`` is None before the first sample, summed up as is."""
    mean = g.mean()
    m2 = np.sum((g - mean) ** 2)
    if acc is None:
        return len(g), mean, m2
    na, ma, sa = acc
    n, delta = na + len(g), mean - ma
    return n, ma + delta * len(g) / n, sa + m2 + delta**2 * na * len(g) / n


def stratified_count_moment(boxes, power, n_samples, seed):
    """Stratified Monte-Carlo estimate of integral count(x)^(power+1) via

        sum_j |F_j| E_{x ~ Unif(F_j)}[count(x)^power],

    returning (estimate, standard error) on the Philox stream of ``seed``.
    ``power`` is a float, or a sequence of them that all read one draw and
    one count and return arrays; each power is taken on its own, so its pair
    is bit-identical to a call with that power alone.  Strata are drawn and
    counted in consecutive groups of at most ``bs._BLOCK_VALUES / 16``
    points (16 values a point hold the points, counts and copies in
    ``contains``), and a larger stratum in consecutive chunks of that size,
    whose statistics are pooled; one that fits keeps the bits of one draw.
    """
    n = boxes.n_boxes
    if n_samples < 2 * n:
        raise ValueError("n_samples must be at least 2 per box")
    powers = [float(s) for s in np.atleast_1d(power)]
    per_box = np.full(n, n_samples // n)
    per_box[: n_samples % n] += 1
    rng = np.random.Generator(np.random.Philox(seed))
    cap = bs._BLOCK_VALUES // 16
    strata = max(1, cap // int(per_box[0]))
    stats = [[None] * n for _ in powers]     # per power and stratum
    for first in range(0, n, strata):
        group = range(first, min(first + strata, n))
        for start in range(0, per_box[first], cap):
            sizes = [min(cap, per_box[j] - start) for j in group]
            pts = np.concatenate([
                f.center + (rng.uniform(-1.0, 1.0, (m, 3)) * f.half_extents)
                @ f.axes for f, m in zip(boxes.boxes_f[first:], sizes)])
            counts = _cover_counts(boxes.boxes_f, pts).astype(float)
            for j, c in zip(group, np.split(counts, np.cumsum(sizes)[:-1])):
                for acc, s in zip(stats, powers):
                    acc[j] = _pooled(acc[j], c**s)
    vols = [f.volume() for f in boxes.boxes_f]
    estimates = np.array([sum(v * mean for v, (_, mean, _) in zip(vols, acc))
                          for acc in stats])
    errors = np.sqrt([sum(v**2 * (m2 / (m - 1)) / m
                          for v, (m, _, m2) in zip(vols, acc))
                      for acc in stats])
    if np.ndim(power) == 0:
        return float(estimates[0]), float(errors[0])
    return estimates, errors


@dataclass(frozen=True)
class ExperimentReport:
    k: int
    N: int
    eps_hat: float
    p: float
    lhs: float
    rhs_exact: float
    rhs_stderr: float
    rhs_holder: float
    ratio: float
    ratio_holder: float
    m_lower: float
    control: bool
    kappa: float


KHINTCHINE_CP = float(np.sqrt(2.0))   # m_lower's divisor: fixed, not derived


def check_cells(p_list, mc_samples):
    """ValueError unless every p lies in [1, 2) or is the p = 2 control, and
    each cell has at least 10^4 Monte-Carlo samples."""
    if not all(1.0 <= p < 2.0 or p == 2.0 for p in p_list):
        raise ValueError("p_list entries must lie in [1, 2) or be the "
                         "p = 2 control")
    if mc_samples < 10_000:
        raise ValueError("mc_samples must be at least 10^4")


def ratio_experiment_level(boxes, p_list, mc_samples, seed):
    """The square-function experiment at one level: one ExperimentReport per
    entry of ``p_list`` on ``boxes``.

    The level's p-independent half is computed once: the certified union
    measure eps_hat (measure plus its rounding bound), the left side lhs
    summed over the disjoint translates and kappa, the least value of
    |H_j 1_{F_j}| on any translate.  The exact right side is the stratified
    Monte-Carlo estimate of (integral count^(p/2))^(1/p); the Holder side
    chains through eps_hat.  For p < 2 the Holder-normalized ratio grows
    like eps_hat^(1/2 - 1/p) as the union shrinks; p = 2 is the control
    run, whose ratio stays bounded.  The level makes one draw, on the
    stream SeedSequence(seed, spawn_key=(k,)), and raises its counts to
    every power p/2 - 1, so a report does not depend on the other entries
    of ``p_list``.
    """
    check_cells(p_list, mc_samples)
    union, union_err = bs.union_measure(boxes, bs.UNION_RESOLUTION)
    eps_hat = float(union + union_err)
    pairs = list(zip(boxes.boxes_f, boxes.normals))
    lhs = float(sum(translate_image_integral(f, n) for f, n in pairs))
    kappa = float(min(translate_image_minimum(f, n) for f, n in pairs))
    moments, moment_errs = stratified_count_moment(
        boxes, [p / 2.0 - 1.0 for p in p_list], mc_samples,
        np.random.SeedSequence(seed, spawn_key=(boxes.k,)))
    total_volume = sum(b.volume() for b in boxes.boxes_f)
    reports = []
    for p, moment, moment_err in zip(p_list, moments, moment_errs):
        rhs_exact = float(moment ** (1.0 / p))
        rhs_stderr = float(
            (1.0 / p) * moment ** (1.0 / p - 1.0) * moment_err
            if moment > 0 else 0.0
        )
        rhs_holder = float(np.sqrt(total_volume) * eps_hat ** (1.0 / p - 0.5))
        reports.append(ExperimentReport(
            k=boxes.k, N=boxes.n_boxes, eps_hat=eps_hat, p=p, lhs=lhs,
            rhs_exact=rhs_exact, rhs_stderr=rhs_stderr,
            rhs_holder=rhs_holder, ratio=lhs / rhs_exact,
            ratio_holder=lhs / rhs_holder,
            m_lower=lhs / rhs_exact / KHINTCHINE_CP, control=p == 2.0,
            kappa=kappa,
        ))
    return reports


# --- modulated cone images ------------------------------------------------------

def _check_resolvable(boxes, grid):
    min_extent = min(float(np.min(b.half_extents)) for b in boxes.boxes_f)
    if 2.0 * min_extent < grid.spacing:
        raise ValueError(
            "boxes are thinner than the grid spacing; use k <= 2 or refine"
        )


def modulation_convergence(boxes, r_list, samples_per_axis=256, extent=24.0):
    """Per-box closed-form distances for a sweep of modulation parameters:
    row i holds, for every box F_j, the relative L2 distance between the
    image g_j with ghat_j = 1_Omega(. + R_i n_j) fhat_j and H_j 1_{F_j}.

    The shifted symbol realizes the modulation exactly on the lattice, with
    no aliasing no matter how large R is.  The distances are taken between
    spectra; by Parseval they equal the relative distances between grids.
    Each box costs two in-place forward transforms, and prefix sums along
    xi_1 of the densities in |m fhat - ohat|^2 = m^2 |fhat|^2 - 2 m Re(fhat
    conj(ohat)) + |ohat|^2; each modulation step reads them at the symbol's
    two thresholds per column (``_cone_thresholds``), in O(M^2).  Memory
    holds one box's grids however many boxes there are.  The translated
    cones grow with the modulation (Omega - R1 n is contained in
    Omega - R2 n for R1 < R2), so the distances decrease monotonically.
    """
    r_list = list(r_list)
    if any(r_mod < 1.0 for r_mod in r_list):
        raise ValueError("modulation parameter must be >= 1")
    grid = GridFunction(np.zeros(samples_per_axis), extent)
    _check_resolvable(boxes, grid)
    if not r_list:
        return []
    freqs = grid.freqs()
    order = np.argsort(freqs)
    rows = [[] for _ in r_list]
    for f_box, ntilde, ray in zip(boxes.boxes_f, boxes.normals,
                                  boxes.light_rays):
        oracle = box_image_grid(f_box, ntilde, grid)
        dens = _spectrum(oracle, out=oracle.values)
        ind = indicator_box(f_box, extent, samples_per_axis)
        fhat = _spectrum(ind, out=ind.values)
        nrm2 = np.vdot(dens, dens).real
        # the oracle's spectrum becomes Re(fhat conj(ohat)) + i |fhat|^2
        np.conjugate(dens, out=dens)
        dens *= fhat
        np.square(np.abs(fhat, out=dens.imag), out=dens.imag)
        for prev, cur in zip(order[:-1], order[1:]):    # prefix sums
            dens[cur] += dens[prev]
        for row, r_mod in zip(rows, r_list):
            n = _cone_thresholds(freqs, r_mod * ray)
            sums = np.take_along_axis(dens, order[n - 1], 0)
            lo, hi = np.where(n > 0, sums, 0.0)
            # m: 0 on a column's first lo, BOUNDARY_VALUE up to hi, 1 after
            above, mid = dens[order[-1]] - hi, hi - lo
            d2 = (np.sum(above.imag + BOUNDARY_VALUE**2 * mid.imag) + nrm2
                  - 2.0 * np.sum(above.real + BOUNDARY_VALUE * mid.real))
            row.append(float(np.sqrt(max(d2, 0.0) / nrm2)))
        del oracle, dens, ind, fhat    # before the next box's grids
    return rows


# --- tensor extension -------------------------------------------------------------

def tensor_extension_check(phi, k, samples_3d=64, normal_last=0.0):
    """Relative L2 defect of the separability identity

        H(1_F ⊗ phi) = H^(3)(1_F) ⊗ phi

    for the half-space with normal (-1, u_1, u_2, normal_last).  With a zero
    last component the symbol ignores the fourth frequency and the identity
    is exact; a nonzero component is the negative control.

    The spectrum of 1_F ⊗ phi is fhat ⊗ phihat, so by Parseval the squared
    defect is  sum_xi4 |phihat(xi4)|^2 |fhat (m4(., xi4) - m3)|^2  over
    |phihat|^2 |fhat m3|^2: one 3D and one 1D transform on [-4, 4), and the
    4D symbol one slice xi4 at a time, with no 4D grid.  A slice with
    xi4 * normal_last == 0 has m4 = m3 bit for bit, so it is skipped.
    """
    if phi.dims != 1:
        raise ValueError("phi must live on a 1D grid")
    boxes = bs.build_boxes(bs.build_perron_rectangles(k))
    grid = GridFunction(np.zeros(samples_3d), 4.0)
    _check_resolvable(boxes, grid)

    power = np.abs(_spectrum(phi)) ** 2
    weight = np.abs(_spectrum(indicator_box(boxes.boxes_f[0], grid.extent,
                                            samples_3d))) ** 2
    g3 = _linear_form(-boxes.normals[0], np.zeros(3), [grid.freqs()] * 3)
    m3 = _boundary_rule(g3.copy())
    defect = sum(
        p * np.vdot(weight, (_boundary_rule(g3 + xi * -normal_last) - m3) ** 2)
        for p, xi in zip(power, phi.freqs()) if xi * normal_last != 0.0
    )
    whole = np.sum(power) * np.vdot(weight, m3**2)
    return float(np.sqrt(defect / max(whole, 1e-300)))
