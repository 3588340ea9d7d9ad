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

    integral count^s = sum_j |F_j| * E_{x ~ Unif(F_j)} [count(x)^(s-1)],

each expectation read off the stratum's integer histogram of cover counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import besicovitch as bs
from .errors import BudgetExceededError, SingularPointError

BOUNDARY_TOL = 1e-12
# symbol value assigned on frequency-lattice points that fall on the symbol
# boundary; 1/2 is the symmetrized convention
BOUNDARY_VALUE = 0.5
# complex values in one tile of the modulation sweep, chosen by measurement
_TILE_VALUES = 2**16


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
        if not (self.support_radius is None
                or 0.0 <= self.support_radius < np.inf):
            raise ValueError("support radius must be finite and non-negative")
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
    BOUNDARY_VALUE up to hi and 1 after."""
    first, root = _cone_terms([freqs] * 3, shift)
    return _rule_counts(first.ravel()[np.argsort(freqs)], root[0])


def _rule_counts(values, offsets):
    """Counts [lo, hi] per entry of ``offsets``: over ascending ``values``,
    ``_boundary_rule(values - offset)`` reads 0 on the first lo,
    BOUNDARY_VALUE up to hi and 1 after, since fl(a - r) is monotone in a.

    lo counts the a with fl(a - r) < -t and hi those with fl(a - r) <= t,
    t = BOUNDARY_TOL.  Two searches for each edge e = r -+ t, widened by
    w = 4 eps (S + t), S = max |a| + max |r|, bracket each count, and the
    bisection through the rule itself runs only inside the bracket, so the
    counts are the rule's.  fl(a - r) is within eps S / 2 of a - r, so an
    a below e - eps S / 2 is counted and one above e + eps S / 2 is not;
    the searched keys e -+ w, rounded twice, are within
    eps (S + t) + eps w / 2 of their exact values, which keeps them
    outside those two bounds."""
    level = np.reshape([BOUNDARY_VALUE, 1.0], (2,) + (1,) * np.ndim(offsets))
    edges = np.add.outer([-BOUNDARY_TOL, BOUNDARY_TOL], offsets)
    w = 4.0 * np.finfo(float).eps * (np.max(np.abs(values), initial=0.0)
                                     + np.max(np.abs(offsets), initial=0.0)
                                     + BOUNDARY_TOL)
    n = np.searchsorted(values, edges - w)
    last = np.searchsorted(values, edges + w, side="right")
    width = int(np.max(last - n, initial=0))
    for step in 1 << np.arange(width.bit_length())[::-1]:   # ..., 4, 2, 1
        i = np.minimum(n + step, last)
        n = np.where(_boundary_rule(values[i - 1] - offsets) < level, i, n)
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


def _spectrum(f):
    """DFT of a grid, refused when its support would alias under the
    periodization the DFT implies.  A 3D grid is copied once and transformed
    in place along axes 0, 1, 2; only the axis order differs from numpy's,
    which takes the strided axis 0 last."""
    if not (f.support_radius is None or f.support_radius <= f.extent / 2):
        raise ValueError(
            "grid support exceeds half the extent; pad the grid to control "
            "periodization"
        )
    if f.dims == 1:
        return np.fft.fft(f.values)
    out = f.values.copy()
    for axis in range(3):
        np.fft.fft(out, axis=axis, out=out)
    return out


def _spectrum_tiles(block, m):
    """DFT of the m^3 grid that holds a builder's ``(index, values)`` block
    and zeros elsewhere, as (columns, tile) pairs, ``tile[c, i0, i1]`` at
    xi_3 index columns.start + c.  The block's (i0, i1) lines, each at its
    offset in a line of length m, take axis 2 once; each tile then takes
    axis 0 on the block's i1 rows and axis 1 on all.  All-zero lines
    transform to exact zeros, so only the axis order differs from
    ``_spectrum``."""
    index, values = block
    lines = np.zeros(values.shape[:2] + (m,), dtype=complex)
    lines[..., index[2]] = values
    np.fft.fft(lines, axis=2, out=lines)
    width = max(1, _TILE_VALUES // m**2)
    for first in range(0, m, width):
        cols = slice(first, min(first + width, m))
        tile = np.zeros((cols.stop - first, m, m), dtype=complex)
        tile[:, index[0], index[1]] = np.moveaxis(lines[..., cols], 2, 0)
        live = tile[..., index[1]]
        np.fft.fft(live, axis=1, out=live)
        yield cols, np.fft.fft(tile, axis=2, out=tile)


def fft_multiplier_apply(f, symbol, shift=None):
    """Apply a Fourier multiplier on the grid: DFT, symbol, inverse DFT.
    The spectrum is multiplied and inverted in place, so the input, the
    spectrum and the float symbol are the only full grids held at once."""
    fhat = _spectrum(f)
    fhat *= sample_symbol(symbol, [f.freqs()] * f.dims, shift=shift)
    return f.with_values(np.fft.ifftn(fhat, out=fhat))


def indicator_interval(extent, samples, a, b):
    """Grid samples of 1_[a,b] with one-cell box-filter antialiasing."""
    if not -np.inf < a < b < np.inf:
        raise ValueError("need finite a < b")
    g = GridFunction(np.zeros(samples), extent, support_radius=max(abs(a), abs(b)))
    x = g.axis()
    h = g.spacing
    cov = np.clip((np.minimum(b - x, x - a) / h) + 0.5, 0.0, 1.0)
    return g.with_values(cov.astype(complex), support_radius=max(abs(a), abs(b)))


def indicator_box(box, extent, samples):
    """3D grid samples of a box indicator, antialiased per box axis, as
    ``(index, values)`` on the index block that holds the box dilated by one
    cell; the coverage vanishes half a cell outside the box."""
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
    return block, cov


# --- closed forms --------------------------------------------------------------

def halfline_projection_1d(a, b, t, sign=1):
    """Value at t of the positive-frequency part of 1_[a,b].

    Closed form (1/2) 1_[a,b](t) + sign * (i / 2 pi) log|t-a|/|t-b|; raises
    at non-finite input and at the interval ends, where the log is singular.
    """
    t = np.asarray(t, dtype=float)
    if not (-np.inf < a < b < np.inf and np.all(np.isfinite(t))):
        raise ValueError("need finite a < b and a finite t")
    if np.any(t == a) or np.any(t == b):
        raise SingularPointError("evaluation at an interval endpoint")
    real = 0.5 * ((t > a) & (t < b))
    imag = np.log(np.abs((t - a) / (t - b))) / (2.0 * np.pi)
    out = real + 1j * sign * imag
    return complex(out) if out.ndim == 0 else out


def halfline_projection_periodic(a, b, t, period):
    """Periodized positive-frequency projection of 1_[a,b], at finite t.

    The DFT path acts on the periodization of the input, so its continuum
    limit is this function, not the line closed form: summing the Hilbert
    kernel over the period lattice turns the log ratio into

        (1/2 pi) log | sin(pi (t-a)/P) / sin(pi (t-b)/P) |.
    """
    t = np.asarray(t, dtype=float)
    if not (0.0 < b - a < period < np.inf and np.all(np.isfinite(t))):
        raise ValueError("need 0 < b - a < period < inf and a finite t")
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
    """Index of the box axis parallel to n_tilde, its halfline sign, the 1D
    interval [a, b] the box occupies along that axis and the axis row, as
    (idx, sign, a, b, row): 0-d arrays for one box or, row by row, arrays
    for a stack of boxes and normals.  The stacked products are one BLAS
    call per row, with the bits of the single-box products."""
    unit = np.asarray(n_tilde, dtype=float)
    unit = unit / np.sqrt(unit[..., None, :] @ unit[..., :, None])[..., 0]
    axes = box.axes
    dots = (axes @ unit[..., :, None])[..., 0]
    idx = np.argmax(np.abs(dots), axis=-1)
    along = np.take_along_axis(dots, idx[..., None], -1)[..., 0]
    if not np.all(np.abs(np.abs(along) - 1.0) <= 1e-12):
        raise ValueError("n_tilde is not parallel to a box axis")
    # <xi, n_tilde> < 0 keeps sign * xi > 0 along the axis coordinate, with
    # sign = -sign(axis . n_tilde)
    sign = -np.sign(along).astype(int)
    row = np.take_along_axis(axes, idx[..., None, None], -2)[..., 0, :]
    c = (box.center[..., None, :] @ row[..., :, None])[..., 0, 0]
    e = np.take_along_axis(box.half_extents, idx[..., None], -1)[..., 0]
    return idx, sign, c - e, c + e, row


def box_halfspace_image(box, n_tilde, x):
    """Exact value of the half-space projection of the box indicator at x.

    Separates as the 1D half-line projection along the n_tilde axis times
    the indicator of the cross-section, which ``_box_contains`` decides on
    the transposed points with that axis left open: an exact 0 off the prism
    the cross-section sweeps, where the logarithm is not evaluated.  x, a
    point (3,) or points in rows (m, 3), must be finite.
    """
    idx, sign, a, b, row = box_axis_interval(box, n_tilde)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("x must be finite")
    half = np.where(np.arange(3) == idx, np.inf, box.half_extents)
    cross = bs._box_contains(box.center, box.axes, half, pts.T)
    t = pts @ row
    out = np.zeros(pts.shape[0], dtype=complex)
    out[cross] = halfline_projection_1d(a, b, t[cross], sign=sign)
    return complex(out[0]) if np.asarray(x).ndim == 1 else out


def box_image_grid(box, n_tilde, grid):
    """Closed-form image sampled on a 3D grid, as ``(index, values)`` on
    the block that bounds the points passing the two cross-section
    inequalities with a rounding margin: ``box_halfspace_image`` runs only
    at those points, and the image is an exact zero everywhere else.

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
    block = tuple(slice(i.min(), i.max() + 1) if i.size else slice(0, 0)
                  for i in cells)
    vals = np.zeros([b.stop - b.start for b in block], dtype=complex)
    vals[tuple(i - b.start for i, b in zip(cells, block))] = (
        box_halfspace_image(box, n_tilde,
                            np.stack([x[i] for i in cells], axis=-1)))
    return block, vals


# --- the square-function experiment ---------------------------------------------

LHS_TOL = 1e-8      # the rounding budget of each translate's closed form


def translate_image_integral(f_box, ntilde, tol=LHS_TOL):
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
    return float(_translate_images(f_box, ntilde, tol)[0])


def _translate_images(box, ntilde, tol):
    """``translate_image_integral`` and the least value of |H 1_F| over the
    translate, for one box or, row by row, for a stack of boxes and
    normals: (integrals, minima).  The log tail decreases away from the
    interval, so the least value sits at the translate end farthest from
    the box, |bs.SHIFT * ntilde| along the axis from the near interval
    endpoint.  The first row that fails a check raises."""
    idx, _, a, b, row = box_axis_interval(box, ntilde)
    shift = bs.SHIFT * np.asarray(ntilde, dtype=float)
    axis_shift = (shift[..., None, :] @ row[..., :, None])[..., 0, 0]
    lo, hi = a + axis_shift, b + axis_shift
    if not np.all((hi < a) | (lo > b)):
        raise ValueError("translate overlaps the box along the axis")
    # the product of the two other half extents, in axis order
    cross_area = 4.0 * np.prod(
        np.where(np.arange(3) == idx[..., None], 1.0, box.half_extents),
        axis=-1)
    x = np.stack([hi - a, hi - b, lo - a, lo - b], axis=-1)
    logs = np.log(np.abs(x))
    terms = x * logs
    line = np.abs((terms[..., 0] - terms[..., 1])
                  - (terms[..., 2] - terms[..., 3]))
    scale = cross_area / (2.0 * np.pi)
    eps = np.finfo(float).eps
    bound = scale * eps * (8.0 * np.sum(np.abs(x) * (np.abs(logs) + 1.0),
                                        axis=-1) + 4.0 * line)
    value = scale * line
    over = np.flatnonzero(~(np.ravel(bound) <= tol))
    if over.size:
        raise BudgetExceededError(
            "rounding bound of the closed form exceeds the tolerance",
            partial=float(np.ravel(value)[over[0]]),
            error_estimate=float(np.ravel(bound)[over[0]]),
        )
    return value, np.log1p((b - a) / np.abs(axis_shift)) / (2.0 * np.pi)


def _cover_counts(stack, pts):
    """How many boxes of the Box3 stack ``stack`` contain each point of
    ``pts`` (m, 3).  The chunk is transposed once into C-contiguous (3, m)
    coordinates, so each slab coordinate is one pass over three rows and
    the candidates are gathered as columns.  ``_box_contains`` decides only
    the points within a margin of each box's thinnest slab.  The slab
    coordinate ``a @ coords - center @ a`` and the one the test computes
    are each within 2 sqrt(3) eps S of the exact value, in any summation
    order of the 3-term dot product, S = max |pts| + max |center|, so the
    margin 16 eps S drops no point the test keeps."""
    coords = np.ascontiguousarray(pts.T)
    m = coords.shape[1]
    counts = np.zeros(m, dtype=np.int64)
    slab, near = np.empty(m), np.empty(m, dtype=bool)
    reach = np.max(np.abs(pts), initial=0.0)
    thin = np.argmin(stack.half_extents, axis=1)
    margins = 16.0 * np.finfo(float).eps * (
        reach + np.max(np.abs(stack.center), axis=1))
    for c, axes, half, t, margin in zip(stack.center, stack.axes,
                                        stack.half_extents, thin, margins):
        a = axes[t]
        np.matmul(a, coords, out=slab)
        slab -= c @ a
        np.abs(slab, out=slab)
        np.less_equal(slab, half[t] + margin, out=near)
        cand = np.flatnonzero(near)
        counts[cand] += bs._box_contains(c, axes, half,
                                         np.take(coords, cand, axis=1))
    return counts


# 8-byte values a point of a chunk may hold at once: about 21 when it is a
# box's candidate (its drawn row, column and gathered copies 15, the counts and
# slab buffers 2, its candidate index and gathered count 2, the last chunk's
# counts and cells 2)
_POINT_VALUES = 24


def stratified_count_moment(boxes, power, n_samples, seed):
    """Stratified Monte-Carlo estimate of integral count(x)^(power+1) via

        sum_j |F_j| E_{x ~ Unif(F_j)}[count(x)^power],

    returning (estimate, standard error) on the Philox stream of ``seed``.
    ``power`` is a float, or a sequence of them that all read one draw and
    one count and return arrays.  The draws run stratum after stratum and
    are taken in chunks of at most ``bs._BLOCK_VALUES // _POINT_VALUES``
    consecutive points, one ``uniform`` call a chunk, each stratum's run of
    the chunk mapped into its box; the chunk's counts are tallied into one
    integer histogram [stratum, count], so no chunk size changes a bit.
    Each power takes its per-stratum mean and two-pass sum of squared
    deviations from the cells some point hit, never forming 0^power at an
    empty one, so its pair is bit-identical to a call with it alone.
    ``n_samples`` must be an integer (TypeError) and every power finite
    (ValueError), checked before any draw.
    """
    n_samples = operator.index(n_samples)
    n = boxes.n_boxes
    if n_samples < 2 * n:
        raise ValueError("n_samples must be at least 2 per box")
    powers = [float(s) for s in np.atleast_1d(power)]
    if not np.all(np.isfinite(powers)):
        raise ValueError("powers must be finite")
    per_box = np.full(n, n_samples // n)
    per_box[: n_samples % n] += 1
    rng = np.random.Generator(np.random.Philox(seed))
    cap = bs._BLOCK_VALUES // _POINT_VALUES
    ends = np.cumsum(per_box)
    hist = np.zeros((n, 1), dtype=np.int64)   # [stratum, count]
    f = boxes.f
    for start in range(0, n_samples, cap):
        pts = rng.uniform(-1.0, 1.0, (min(cap, n_samples - start), 3))
        # each stratum's run [lo, hi) of the chunk, empty where it misses
        lo, hi = np.clip([ends - per_box - start, ends - start], 0, len(pts))
        for j in np.flatnonzero(hi > lo):
            run = pts[lo[j]:hi[j]]
            run[:] = f.center[j] + (run * f.half_extents[j]) @ f.axes[j]
        counts = _cover_counts(f, pts)
        width = max(hist.shape[1], int(counts.max()) + 1)
        if width > hist.shape[1]:
            hist = np.pad(hist, ((0, 0), (0, width - hist.shape[1])))
        cells = np.repeat(np.arange(n), hi - lo) * width + counts
        hist += np.bincount(cells, minlength=n * width).reshape(n, width)
    rows, cols = np.nonzero(hist)
    tally, vols, pairs = hist[rows, cols], f.volume(), []
    for s in powers:
        vals = cols.astype(float) ** s
        mean = np.bincount(rows, tally * vals, n) / per_box
        m2 = np.bincount(rows, tally * (vals - mean[rows]) ** 2, n)
        pairs.append((sum(vols * mean),
                      np.sqrt(sum(vols**2 * (m2 / (per_box - 1)) / per_box))))
    estimates, errors = np.array(pairs).T
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
    if not mc_samples >= 10_000:
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
    union, union_err = bs.union_measure(boxes.family, bs.UNION_RESOLUTION)
    eps_hat = float(union + union_err)
    integrals, minima = _translate_images(boxes.f, boxes.normals, LHS_TOL)
    lhs = float(sum(integrals.tolist()))
    kappa = float(np.min(minima))
    moments, moment_errs = stratified_count_moment(
        boxes, [p / 2.0 - 1.0 for p in p_list], mc_samples,
        np.random.SeedSequence(seed, spawn_key=(boxes.k,)))
    total_volume = sum(boxes.f.volume().tolist())
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

def modulation_convergence(boxes, r_list, samples_per_axis=256, extent=24.0):
    """Per-box closed-form distances for a sweep of modulation parameters:
    row i holds, for every box F_j, the relative L2 distance between the
    image g_j with ghat_j = 1_Omega(. + R_i n_j) fhat_j and H_j 1_{F_j}.

    The shifted symbol realizes the modulation exactly on the lattice, with
    no aliasing no matter how large R is.  The distances are taken between
    spectra; by Parseval they equal the relative distances between grids.
    The builders return support blocks and both spectra come one tile of
    xi_3 columns at a time (``_spectrum_tiles``), so no M^3 array exists.
    Of the densities in
    |m fhat - ohat|^2 = m^2 |fhat|^2 - 2 m Re(fhat conj(ohat)) + |ohat|^2
    the last sums by Parseval to M^3 sum |o|^2 over the oracle's block,
    once per box (``np.einsum``: no BLAS call, no block-sized temporary).
    Per tile, prefix sums along ascending xi_1 of the other two are read in
    one gather at every R's two thresholds per column (``_cone_thresholds``)
    and at its end; these (M, 2 |R| + 1, M) reads are summed once per box,
    so the rows do not depend on the tile width.  Memory holds one box's
    blocks and O(M^2) per R.  The translated cones grow with the
    modulation (Omega - R1 n is in Omega - R2 n for R1 < R2), so the
    distances decrease monotonically.
    """
    r_list = list(r_list)
    if not all(1.0 <= r_mod < np.inf for r_mod in r_list):
        raise ValueError("modulation parameter must be finite and >= 1")
    grid = GridFunction(np.zeros(samples_per_axis), extent)
    if 2.0 * float(np.min(boxes.f.half_extents)) < grid.spacing:
        raise ValueError(
            "boxes are thinner than the grid spacing; use k <= 2 or refine")
    # the indicators' support radius, as _spectrum would refuse it
    if float(np.max(np.abs(boxes.f.vertices()))) + grid.spacing > extent / 2:
        raise ValueError("grid support exceeds half the extent; pad the "
                         "grid to control periodization")
    if not r_list:
        return []
    m = samples_per_axis
    freqs = grid.freqs()
    order = np.argsort(freqs)
    rows = [[] for _ in r_list]
    for f_box, ntilde, ray in zip(boxes.boxes_f, boxes.normals,
                                  boxes.light_rays):
        # [xi_3, :, xi_2]: R_i's lo and hi at 2 i and 2 i + 1, then m
        counts = np.full((m, 2 * len(r_list) + 1, m), m)
        for i, r_mod in enumerate(r_list):
            counts[:, 2 * i:2 * i + 2] = np.moveaxis(
                _cone_thresholds(freqs, r_mod * ray), 2, 0)
        reads = np.empty(counts.shape, dtype=complex)
        oracle = box_image_grid(f_box, ntilde, grid)
        # by Parseval, |ohat|^2 sums to m^3 sum |o|^2
        flat = oracle[1].reshape(-1).view(float)
        nrm2 = m**3 * float(np.einsum("i,i", flat, flat))
        for (cols, fhat), (_, dens) in zip(
                _spectrum_tiles(indicator_box(f_box, extent, m), m),
                _spectrum_tiles(oracle, m)):
            # the oracle's spectrum becomes Re(fhat conj(ohat)) + i |fhat|^2
            np.conjugate(dens, out=dens)
            dens *= fhat
            np.square(np.abs(fhat, out=dens.imag), out=dens.imag)
            sums = np.take(dens, order, axis=1)         # ascending xi_1
            np.cumsum(sums, axis=1, out=sums)
            reads[cols] = np.take_along_axis(sums, counts[cols] - 1, 1)
        del oracle, flat    # before the next box builds its own
        reads[counts == 0] = 0.0    # index -1 read the total; n = 0 sums none
        for i, row in enumerate(rows):
            # m: 0 on a column's first lo, BOUNDARY_VALUE up to hi, 1 after
            above = reads[:, -1] - reads[:, 2 * i + 1]
            mid = reads[:, 2 * i + 1] - reads[:, 2 * i]
            d2 = (np.sum(above.imag + BOUNDARY_VALUE**2 * mid.imag) + nrm2
                  - 2.0 * np.sum(above.real + BOUNDARY_VALUE * mid.real))
            row.append(float(np.sqrt(max(d2, 0.0) / nrm2)))
    return rows
