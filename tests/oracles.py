"""Independent oracles that only the tests use: the Gaussian/Faddeeva probe
of the half-space FFT path, the spatial dilation probe of the cone
multiplier, the tensor check's slice-by-slice sum, the pairwise
separating-axis predicate, row-major box membership, the Monte-Carlo and
the exact rational union measure, the ratio level computed one box at a
time, the Cayley Jacobian bounds on Shilov samples, the full grid of a
grid builder's support block, and the Lie ball by rejection."""

from fractions import Fraction

import numpy as np
from scipy.special import wofz

from conekit import besicovitch as bs
from conekit import jordan as jd
from conekit import multiplier as mp
from conekit import szego as sz

SLAB_ROWS = 32             # first-axis rows per slab of the full probe grid
SHIFT_WEIGHT_FLOOR = 1e-12  # transverse weight below which a copy is dropped


def embed(block, samples, extent):
    """The full 3D grid of a builder's ``(index, values)`` block: the values
    placed at their index slices of a zero grid of ``samples``^3 points on
    [-extent, extent)^3."""
    index, values = block
    grid = np.zeros((samples,) * 3, dtype=complex)
    grid[index] = values
    return mp.GridFunction(grid, extent)


# --- the half-space probe ------------------------------------------------------

def hermite_halfline_image(t, sigma, sign=1):
    """Half-line projection of (t^2 - sigma^2) exp(-t^2 / 2 sigma^2), a
    Gaussian whose spectrum vanishes to second order at frequency zero.

    Differentiating the Gaussian projection twice gives
    (sigma^2 / 4) w''(z) at z = sign t / (sigma sqrt 2), with
    w'' = (4 z^2 - 2) w - 4 i z / sqrt(pi).  The double zero of the
    spectrum at the symbol cut makes this image decay like t^-3, so its
    periodization is dominated by the first few lattice copies.
    """
    z = sign * np.asarray(t) / (sigma * np.sqrt(2.0))
    wpp = (4.0 * z**2 - 2.0) * wofz(z) - 4.0j * z / np.sqrt(np.pi)
    return (sigma**2 / 4.0) * wpp


def _live_image_shifts(box, widths, idx, extent, reach):
    """Box-frame offsets of the periodization images whose transverse
    Gaussian weight exceeds SHIFT_WEIGHT_FLOOR anywhere within ``reach`` of
    the origin.

    The DFT output is the 2*extent-periodization of the continuum image.
    Transverse offsets grow linearly along every lattice direction, so only
    finitely many copies contribute and the image sum converges absolutely
    on the comparison window (the slow 1/t axis tails are tamed by their
    transverse factors).
    """
    period = 2.0 * extent
    shifts = []
    cross_idx = [j for j in range(3) if j != idx]
    for m1 in range(-4, 5):
        for m2 in range(-4, 5):
            for m3 in range(-4, 5):
                off = box.axes @ (period * np.array([m1, m2, m3], dtype=float))
                weight = 1.0
                for j in cross_idx:
                    gap = max(abs(off[j]) - reach, 0.0)
                    weight *= np.exp(-(gap**2) / (2.0 * widths[j] ** 2))
                if weight > SHIFT_WEIGHT_FLOOR:
                    shifts.append(off)
    return shifts


def _box_frame(box, axes):
    """The three box-frame coordinates over the grid spanned by ``axes``."""
    return [mp._linear_form(a, box.center, axes) for a in box.axes]


def _probe_grid(box, x, scale, sigma, idx):
    """(t^2 - sigma^2) exp(-sum_q scale_q u_q^2) over the grid x^3, with u
    the box-frame coordinates and t = u_idx, built in SLAB_ROWS-row slabs
    with one exp per point."""
    vals = np.empty((len(x),) * 3, dtype=complex)
    for i0 in range(0, len(x), SLAB_ROWS):
        local = _box_frame(box, [x[i0:i0 + SLAB_ROWS], x, x])
        quad = sum(c * u**2 for c, u in zip(scale, local))
        vals[i0:i0 + SLAB_ROWS] = (local[idx] ** 2 - sigma**2) * np.exp(-quad)
    return vals


def gaussian_box_probe(box, n_tilde, extent, samples, widths=None,
                       window=None):
    """Relative L2 defect between the FFT path and the closed form for a
    box-frame separable probe pushed through the half-space symbol.

    The probe shares the box's tilted axes, so it exercises exactly the
    geometry used by the indicator images, but being smooth it is free of
    the Gibbs skirts that make pointwise indicator comparisons meaningless
    at feasible grid sizes.  Along the half-line axis the probe is the
    Hermite-windowed Gaussian (t^2 - s^2) exp(-t^2 / 2 s^2), whose image
    decays cubically; the few periodization copies that still matter are
    summed into the closed form, each only where its transverse weight
    exceeds SHIFT_WEIGHT_FLOOR.  The comparison runs on the central window
    |x|_inf <= window.
    """
    template = mp.GridFunction(np.zeros(samples), extent)
    h = template.spacing
    if widths is None:
        widths = np.maximum(box.half_extents, 2.0 * h)
    if window is None:
        window = extent / 2.0
    idx, sign, _, _, _ = mp.box_axis_interval(box, n_tilde)
    reach = np.sqrt(3.0) * window + float(np.linalg.norm(box.center))
    shifts = _live_image_shifts(box, widths, idx, extent, reach)
    x = template.axis()
    scale = 1.0 / (2.0 * widths**2)
    cross_idx = [j for j in range(3) if j != idx]

    probe = template.with_values(_probe_grid(box, x, scale, widths[idx], idx))
    image = mp.fft_multiplier_apply(probe, mp.HalfSpace(tuple(n_tilde)))
    del probe

    sel = np.abs(x) <= window
    local = _box_frame(box, [x[sel]] * 3)
    exact = np.zeros(local[0].shape, dtype=complex)
    for off in shifts:
        cross = np.exp(-sum(scale[j] * (local[j] + off[j]) ** 2
                            for j in cross_idx))
        live = cross > SHIFT_WEIGHT_FLOOR
        exact[live] += hermite_halfline_image(
            local[idx][live] + off[idx], widths[idx], sign) * cross[live]
    got = image.values[np.ix_(sel, sel, sel)]
    return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))


# --- dilation covariance -------------------------------------------------------

def cone_dilation_probe(lam, samples=128, extent=8.0, order=3,
                        spectral_width=0.8, window=4.0):
    """Spatial dilation covariance of the cone multiplier.

    Applies the cone to a frequency-built probe (spectrum vanishing on the
    cone surface to the given order, so its image decays fast) and to its
    lam-compression, and compares values on the wrap-free central window
    |lam x|_inf <= window.  Periodization wraps of the uncompressed image
    bound what any finite grid can achieve here; the window keeps them
    subdominant.
    """
    freqs = mp.GridFunction(np.zeros(samples), extent).freqs()
    mesh = np.meshgrid(freqs, freqs, freqs, indexing="ij", sparse=True)

    def spectrum(scale):
        x1, x2, x3 = (m * scale for m in mesh)
        delta = x1**2 - x2**2 - x3**2
        radius = np.sqrt(x1**2 + x2**2 + x3**2)
        # shell keeps probe mass at |xi| ~ 1 for every scaling tested
        return delta**order * np.exp(
            -np.pi * (radius - 1.0) ** 2 / spectral_width**2
        )

    symbol = mp.sample_symbol(mp.Cone(), [freqs] * 3)
    compressed = np.fft.ifftn(symbol * spectrum(1.0 / lam) / lam**3)
    base = np.fft.ifftn(symbol * spectrum(1.0))
    x = np.fft.fftfreq(samples, d=1.0 / (2.0 * extent))
    n = np.where(np.abs(lam * x) <= window)[0]
    j = (lam * n) % samples
    sub = np.ix_(n, n, n)
    tgt = np.ix_(j, j, j)
    return float(
        np.linalg.norm(compressed[sub] - base[tgt])
        / np.linalg.norm(base[tgt])
    )


# --- intersection and union measure --------------------------------------------

def boxes_intersect(r1, r2):
    """True iff the interiors of two Rect2 overlap (separating-axis test)."""
    return bool(bs._sat_overlap(*bs._frames((r1, r2)), [0], [1])[0])


def box_contains_row_major(box, points, slack=0.0):
    """``Box3.contains`` in the row-major layout: box-frame coordinates as
    an (m, 3) array, reduced over its short inner axis."""
    local = (np.atleast_2d(points) - box.center) @ box.axes.T
    return np.all(np.abs(local) <= box.half_extents + slack, axis=1)


def _rect_list(shapes):
    """The Rect2 of a RectangleFamily, or of a sequence of them."""
    return list(getattr(shapes, "rects", shapes))


def mc_union_measure(shapes, n_samples, seed):
    """Monte-Carlo estimate of the union measure over the bounding box, with
    its standard error."""
    rects = _rect_list(shapes)
    verts = np.concatenate([rect_vertices(r) for r in rects])
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    covered = np.zeros(n_samples, dtype=bool)
    for center, axes, half in zip(*bs._frames(rects)):
        covered |= np.all(np.abs((pts - center) @ axes.T) <= half, axis=1)
    area_box = float(np.prod(hi - lo))
    p = covered.mean()
    est = area_box * p
    stderr = area_box * np.sqrt(max(p * (1 - p), 0.0) / n_samples)
    return float(est), float(stderr)


def exact_union_measure(rects):
    """Exact measure, as a Fraction, of the union of rectangles whose float
    fields are taken as exact rationals (the direction need not be a unit
    vector then; its square norm scales both slab half-widths).

    Every edge P + t d, t in [0, 1], is clipped against the open interior of
    every other rectangle, with no tie tolerance, and the union's area is
    -1/2 sum cross(P, d) times the uncovered parameter length (edges run
    clockwise).  An edge that lies on another rectangle's side line raises
    ValueError: the tie rule of ``union_measure`` is not modelled."""
    frames = []
    for r in _rect_list(rects):
        c = [Fraction(float(x)) for x in r.center]
        u = [Fraction(float(x)) for x in r.direction]
        n = [-u[1], u[0]]
        hl, hw = Fraction(float(r.length)) / 2, Fraction(float(r.width)) / 2
        norm2 = u[0] ** 2 + u[1] ** 2
        verts = [[c[i] + a * hl * u[i] + b * hw * n[i] for i in range(2)]
                 for a, b in ((1, 1), (1, -1), (-1, -1), (-1, 1))]
        frames.append((c, ((u, hl * norm2), (n, hw * norm2)), verts))
    area = Fraction(0)
    for owner, (_, _, verts) in enumerate(frames):
        for q in range(4):
            p0, p1 = verts[q], verts[(q + 1) % 4]
            d = [p1[0] - p0[0], p1[1] - p0[1]]
            spans = []
            for j, (c, slabs, _) in enumerate(frames):
                if j == owner:
                    continue
                lo, hi = Fraction(0), Fraction(1)
                for a, half in slabs:
                    s0 = (p0[0] - c[0]) * a[0] + (p0[1] - c[1]) * a[1]
                    s1 = d[0] * a[0] + d[1] * a[1]
                    if s1 == 0:
                        if abs(s0) == half:
                            raise ValueError(
                                "an edge lies on another rectangle's side line")
                        if abs(s0) > half:
                            lo, hi = Fraction(1), Fraction(0)
                        continue
                    t1, t2 = (-half - s0) / s1, (half - s0) / s1
                    lo, hi = max(lo, min(t1, t2)), min(hi, max(t1, t2))
                if lo < hi:
                    spans.append((lo, hi))
            covered, reach = Fraction(0), Fraction(0)
            for lo, hi in sorted(spans):
                covered += max(hi, reach) - max(lo, reach)
                reach = max(reach, hi)
            cross = p0[0] * d[1] - p0[1] * d[0]
            area -= cross * (1 - covered) / 2
    return area


# --- the level, one box at a time ---------------------------------------------

def rect_vertices(rect):
    """The four vertices of a Rect2, clockwise, by the per-rectangle formula
    the stacked frames replaced."""
    hl = 0.5 * rect.length * rect.direction
    hw = 0.5 * rect.width * rect.normal
    c = rect.center
    return np.array([c + hl + hw, c + hl - hw, c - hl - hw, c - hl + hw])


def lift_per_box(family):
    """The boxes E_j, F_j and F_j + 5 ntilde_j as tuples of Box3, lifted one
    rectangle at a time, and the normals ntilde_j: the lift before the boxes
    were stacked."""
    width, sqrt2 = 1.0 / family.n_rects, np.sqrt(2.0)
    boxes_e, boxes_f, boxes_f_shifted = [], [], []
    for rect in family.rects:
        (u0, u1), (p0, p1) = rect.direction, rect.normal
        center = [0.5, *rect.center]
        boxes_e.append(bs.Box3(center, [[1.0, 0.0, 0.0], [0.0, u0, u1],
                                        [0.0, p0, p1]], [0.5, 0.5, width / 2]))
        f = bs.Box3(center, [np.array([1.0, -u0, -u1]) / sqrt2,
                             np.array([1.0, u0, u1]) / sqrt2, [0.0, p0, p1]],
                    [sqrt2 / 4, sqrt2 / 4, width / 2])
        boxes_f.append(f)
        ntilde = np.array([-1.0, u0, u1])
        boxes_f_shifted.append(bs.Box3(f.center + family.shift * ntilde,
                                       f.axes, f.half_extents))
    normals = np.column_stack([np.ones(family.n_rects),
                               [r.direction for r in family.rects]])
    normals *= [-1.0, 1.0, 1.0]
    return tuple(boxes_e), tuple(boxes_f), tuple(boxes_f_shifted), normals


def translate_image_per_box(f_box, ntilde):
    """The integral and the least value of |H 1_F| over the translate
    F + 5 ntilde, by the scalar formulas of one box at a time."""
    unit = ntilde / np.linalg.norm(ntilde)
    dots = f_box.axes @ unit
    idx = int(np.argmax(np.abs(dots)))
    c = float(f_box.center @ f_box.axes[idx])
    a, b = c - f_box.half_extents[idx], c + f_box.half_extents[idx]
    axis_shift = float(bs.SHIFT * ntilde @ f_box.axes[idx])
    lo, hi = a + axis_shift, b + axis_shift
    cross_area = 4.0 * float(
        np.prod([f_box.half_extents[i] for i in range(3) if i != idx]))
    x = np.array([hi - a, hi - b, lo - a, lo - b])
    terms = x * np.log(np.abs(x))
    line = abs((terms[0] - terms[1]) - (terms[2] - terms[3]))
    integral = float(cross_area / (2.0 * np.pi) * line)
    minimum = float(np.log1p((b - a) / abs(axis_shift)) / (2.0 * np.pi))
    return integral, minimum


def pair_loop_moment(boxes_f, powers, n_samples, seed, histogram=True):
    """The count moment as first written, one ``box_contains_row_major`` call
    per pair of stratum and box in the sequence of Box3 ``boxes_f``, so no
    verdict comes from the kernel's ``_box_contains``; one (estimate,
    stderr) per power, from one draw.  A stratum's mean and sum of squared
    deviations are sum_v h_v v^s / m and sum_v h_v (v^s - mean)^2 over the
    counts v its histogram h holds, added in ascending v; with
    ``histogram=False``, ``g.mean()`` and ``g.var(ddof=1)`` of the
    per-point values g = count^s."""
    n = len(boxes_f)
    per_box = np.full(n, n_samples // n)
    per_box[: n_samples % n] += 1
    rng = np.random.Generator(np.random.Philox(seed))
    sums = [[0.0, 0.0] for _ in powers]
    for j, f_box in enumerate(boxes_f):
        m = int(per_box[j])
        local = rng.uniform(-1.0, 1.0, size=(m, 3)) * f_box.half_extents
        pts = f_box.center + local @ f_box.axes
        counts = np.zeros(m, dtype=np.int64)
        for other in boxes_f:
            counts += box_contains_row_major(other, pts)
        hist = np.bincount(counts)
        hit = np.flatnonzero(hist)
        vol = f_box.volume()
        for acc, power in zip(sums, powers):
            if histogram:
                vals = hit.astype(float) ** power
                mean = m2 = 0.0
                for h, v in zip(hist[hit], vals):
                    mean += h * v
                mean /= m
                for h, v in zip(hist[hit], vals):
                    m2 += h * ((v - mean) * (v - mean))
                var = m2 / (m - 1)
            else:
                g = counts.astype(float) ** power
                mean, var = g.mean(), g.var(ddof=1)
            acc[0] += vol * mean
            acc[1] += vol**2 * var / m
    return [(total, float(np.sqrt(var))) for total, var in sums]


# --- Cayley Jacobian ---------------------------------------------------------

def compact_jacobian_bounds(boundary_samples, margin=1e-3):
    """Min and max of det(e + x^2)^(n/r) at x = Phi(w) over Shilov samples
    in spin-factor coordinates.

    On the Shilov boundary (|det w| = |w|^2 = 1) this is
    2^n cayley_jacobian_modulus; samples closer than ``margin`` to the
    singular set det(e - w) = 0, or off the boundary by more than 1e-8, are
    rejected.
    """
    coords = np.asarray(boundary_samples, dtype=complex)
    w = jd.Element(jd.spin_factor(coords.shape[-1]), coords)
    if np.any(np.abs(jd.determinant(jd.identity(w.algebra) - w)) < margin):
        raise ValueError("sample violates the Dom Phi margin")
    if (np.any(np.abs(np.abs(jd.determinant(w)) - 1.0) > 1e-8)
            or np.any(np.abs(jd.norm(w) ** 2 - 1.0) > 1e-8)):
        raise ValueError("sample is not on the Shilov boundary")
    values = 2.0 ** w.algebra.dim * sz.cayley_jacobian_modulus(w)
    return float(np.min(values)), float(np.max(values))


# --- Lie ball ------------------------------------------------------------------

def classical_lie_ball_contains(z, margin=0.0):
    """Lie-ball membership in the classical chart, row by row: both strict
    inequalities |q(z)|^2 < 1 - margin and 2|z|^2 - 1 < |q(z)|^2 - margin,
    with q(z) = sum z_j^2."""
    z = np.asarray(z, dtype=complex)
    qq = np.abs(np.sum(z * z, axis=-1)) ** 2
    return (qq < 1.0 - margin) & (
        2.0 * np.sum(np.abs(z) ** 2, axis=-1) - 1.0 < qq - margin)


def rejection_lie_ball(n, count, rng, margin=0.0):
    """``count`` uniform Lie-ball points in spin-factor coordinates by
    rejection from the complex unit ball, which keeps about 2^(1-n) of its
    draws: the reference for the polar sampler ``sz.sample_lie_ball``."""
    def draw(m):
        z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        radius = rng.uniform(size=m) ** (1.0 / (2 * n))
        w = sz._twist(z * (radius / np.linalg.norm(z, axis=-1))[:, None])
        return w, sz.lie_ball_contains(w, margin)

    return sz._accepted_rows(count, draw)
