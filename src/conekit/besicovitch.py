"""Families of overlapping rotated rectangles with disjoint translates, and
the 3D boxes built on top of them.

``build_perron_rectangles`` produces N = 2^k unit x (1/N) rectangles whose
directions fan over a fixed sector of width 1/3 radian.  Base anchors are
slid by a bisection scheme: at every dyadic level the right half of each
cluster is translated so that its pencil of center lines crosses the left
half's pencil at a prescribed height inside the rectangles.  Crossing
heights are staggered across clusters, so different height bands absorb the
overlap of different dyadic scales and the measure of the union keeps
shrinking as k grows, while the translated copies R_j + 5 u_j stay pairwise
disjoint (their center lines would only meet far below the translated band).
Disjointness and the ball bound are verified once per build: a sweep over
the translates' x-extents keeps the pairs that may meet, about 9% of them,
and exact separating-axis tests rule on those.

``build_boxes`` lifts a family to the 3D boxes: E_j = [0,1] x R_j and the
rotated box F_j spanned by (1,-u_j), (1,u_j), (0,u_j-perp) with side 1/sqrt2
along the light-ray direction, plus the translates F_j + 5*(-1, u_j).  A
family and its boxes are stacked arrays, built and checked once: each of
a BoxFamily's three stacks is one Box3, whose one-box rows are built only
when they are read.

``union_measure`` is exact: a closed-form boundary integral over the parts
of the edges no other rectangle covers; its bound covers only rounding.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailedError

SHIFT = 5.0                 # translation multiple along u_j, the tested default
SECTOR = 1.0 / 3.0          # angular spread of the direction fan, radians
BALL_RADIUS_2D = 10.0
BALL_RADIUS_3D = 20.0


@dataclass(frozen=True)
class Rect2:
    """Rotated rectangle: unit long axis u, width = 1/N of its family."""

    center: np.ndarray
    direction: np.ndarray
    length: float
    width: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if not np.all(np.isfinite(center)):
            raise ValueError("rectangle center must be finite")
        object.__setattr__(self, "center", center)
        u = np.asarray(self.direction, dtype=float)
        if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
            raise ValueError("rectangle direction must be a unit vector")
        object.__setattr__(self, "direction", u)
        if not (0.0 < self.length < np.inf and 0.0 < self.width < np.inf):
            raise ValueError(
                "rectangle length and width must be positive and finite")

    @property
    def normal(self):
        u = self.direction
        return np.array([-u[1], u[0]])

    def translated(self, shift):
        return Rect2(self.center + shift, self.direction, self.length, self.width)


@dataclass(frozen=True)
class RectangleFamily:
    """N rectangles R_j and their translates R_j + shift u_j.  The frames
    are stacked once, when the family is built: ``centers`` (N, 2), the axis
    rows u_j and n_j in ``axes`` (N, 2, 2) and the half sides ``halves``
    (N, 2); every computation on the family reads them."""

    k: int
    rects: tuple
    shift: float = SHIFT

    def __post_init__(self):
        # the closed-form integrals and the geometry check use SHIFT
        if self.shift != SHIFT:
            raise ValueError(f"rectangle families are shifted by {SHIFT}")
        for name, value in zip(("centers", "axes", "halves"),
                               _frames(self.rects)):
            object.__setattr__(self, name, value)

    @property
    def n_rects(self):
        return len(self.rects)

    def translate_centers(self):
        return self.centers + self.shift * self.axes[:, 0]

    def translates(self):
        return tuple(
            r.translated(self.shift * r.direction) for r in self.rects
        )

    def vertices(self):
        """Clockwise vertices (2, N, 4, 2) of the rectangles, then of their
        translates."""
        return _corners(np.stack([self.centers, self.translate_centers()]),
                        self.axes, self.halves)

    def total_area(self):
        return float(sum(r.length * r.width for r in self.rects))


def _corners(centers, axes, halves):
    """Clockwise vertices (..., 4, 2) of rectangles with centers (..., 2),
    axis rows u, n (..., 2, 2) and half sides (..., 2)."""
    hl = halves[..., 0, None] * axes[..., 0, :]
    hw = halves[..., 1, None] * axes[..., 1, :]
    return np.stack([centers + hl + hw, centers + hl - hw,
                     centers - hl - hw, centers - hl + hw], axis=-2)


# the 8 sign patterns of a box's vertices, in Box3.vertices's order
_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                   for sz in (-1, 1)], dtype=float)


def _box_contains(center, axes, half_extents, coords, slack=0.0):
    """True where a point lies within the extents of its box: one box and
    coordinates (3, m), or a stack of boxes and coordinates (N, 3, m) each,
    one row per world axis.

    The box-frame coordinates ``axes @ (coords - center)`` form a (..., 3, m)
    array, one contiguous row per box axis, so each axis is compared as one
    row; every entry is the same length-3 dot product as in the row-major
    ``(points - center) @ axes.T``."""
    local = axes @ (coords - center[..., :, None])
    np.abs(local, out=local)
    bound = half_extents[..., None] + slack
    inside = local[..., 0, :] <= bound[..., 0, :]
    inside &= local[..., 1, :] <= bound[..., 1, :]
    inside &= local[..., 2, :] <= bound[..., 2, :]
    return inside


@dataclass(frozen=True)
class Box3:
    """One box, or a stack of boxes along a leading axis: center (..., 3),
    orthonormal axis rows (..., 3, 3) and half extents (..., 3), float
    arrays checked once, when the box or the stack is built."""

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        for name in ("center", "axes", "half_extents"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if not np.all(np.isfinite(self.center)):
            raise ValueError("box center must be finite")
        gram = self.axes @ np.swapaxes(self.axes, -1, -2)
        if not np.max(np.abs(gram - np.eye(3))) <= 1e-12:
            raise ValueError("box axes must be orthonormal")
        if not np.all((self.half_extents > 0) & (self.half_extents < np.inf)):
            raise ValueError("half extents must be positive and finite")

    @functools.cached_property
    def boxes(self):
        """A stack's rows as one-box Box3s, built on first access."""
        return tuple(map(Box3, self.center, self.axes, self.half_extents))

    def volume(self):
        return 8.0 * np.prod(self.half_extents, axis=-1)

    def vertices(self):
        """The 8 vertices (..., 8, 3)."""
        return (self.center[..., None, :]
                + (_SIGNS * self.half_extents[..., None, :]) @ self.axes)

    def contains(self, points, slack=0.0):
        """True where a point lies within the extents: points in rows, (m, 3)
        for one box, (N, m, 3) for a stack of N, handed to ``_box_contains``
        as a transposed view."""
        return _box_contains(self.center, self.axes, self.half_extents,
                             np.atleast_2d(points).swapaxes(-1, -2), slack)


@dataclass(frozen=True)
class BoxFamily:
    family: RectangleFamily       # the R_j that the E_j = [0,1] x R_j lift
    e: Box3                       # stack of E_j = [0,1] x R_j
    f: Box3                       # stack of the rotated inner boxes F_j
    f_shifted: Box3               # their translates F_j + SHIFT * ntilde_j
    light_rays: np.ndarray        # rows n_j = (1, u_j)
    normals: np.ndarray           # rows ntilde_j = (-1, u_j)

    @property
    def k(self):
        return self.family.k

    @property
    def n_boxes(self):
        return len(self.f.center)

    @property
    def boxes_e(self):
        return self.e.boxes

    @property
    def boxes_f(self):
        return self.f.boxes


# --- construction ------------------------------------------------------------

MERGE_RATIO = 0.9           # per-level shrink ratio of the bisection scheme


def _perron_anchors(k, dtheta):
    """Base offsets of the bisection scheme.

    At level i the right half of every cluster slides left so that the two
    half-pencils cross at height MERGE_RATIO^(i+1): finest pairs branch near
    the top, the coarsest merge forms the trunk near the base, exactly as in
    the triangle sprouting construction.
    """
    n = 2**k
    anchors = np.zeros(n)
    for level in range(k):
        size = 2**level
        gap = size * dtheta
        height = MERGE_RATIO ** (level + 1)
        for start in range(0, n, 2 * size):
            anchors[start + size : start + 2 * size] -= gap * height
    return anchors


def check_level(k):
    """ValueError unless k is a construction level: an int, not a bool, in
    1..12."""
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= 12:
        raise ValueError("construction level k must be an integer in 1..12")


def build_perron_rectangles(k):
    """Deterministic bisection-scheme family of N = 2^k rectangles.

    The translated copies R_j + 5 u_j are verified pairwise disjoint with
    exact separating-axis tests, and every vertex within BALL_RADIUS_2D;
    ConstructionFailedError if either check fails.
    """
    check_level(k)
    n = 2**k
    width = 1.0 / n
    dtheta = SECTOR / n
    thetas = (np.arange(n) - (n - 1) / 2.0) * dtheta
    directions = np.column_stack([np.sin(thetas), np.cos(thetas)])
    anchors = _perron_anchors(k, dtheta)
    anchors -= anchors.mean()
    family = RectangleFamily(k=k, rects=tuple(
        Rect2(
            center=np.array([anchors[j], 0.0]) + 0.5 * directions[j],
            direction=directions[j],
            length=1.0,
            width=width,
        )
        for j in range(n)
    ))
    if not (translates_disjoint(family) and np.max(np.linalg.norm(
            family.vertices().reshape(-1, 2), axis=1)) <= BALL_RADIUS_2D):
        raise ConstructionFailedError(
            f"the bisection placement for k={k} failed its verification")
    return family


# --- exact intersection predicates -------------------------------------------

# values live at once in one block of pair work: memory stays flat in k
_BLOCK_VALUES = 2**22
_EPS = np.finfo(float).eps


def translates_disjoint(family):
    """Exact pairwise disjointness of a RectangleFamily's translates: a
    sweep over their x-extents, widened by a rounding margin, keeps the
    pairs that may meet (3,008 of 32,640 at k = 8), and the separating-axis
    test rules on those, so rectangles that only touch count as disjoint."""
    frames = family.translate_centers(), family.axes, family.halves
    # any() stops at the first block holding an overlapping pair
    return not any(_sat_overlap(*frames, i, j).any()
                   for i, j in _sat_candidates(*frames))


def _frames(rects):
    """Centers (n, 2), axis rows u, n (n, 2, 2) and half extents (n, 2) of a
    sequence of Rect2."""
    return (np.reshape([r.center for r in rects], (-1, 2)),
            np.reshape([[r.direction, r.normal] for r in rects], (-1, 2, 2)),
            0.5 * np.reshape([[r.length, r.width] for r in rects], (-1, 2)))


def _sat_candidates(centers, axes, halves):
    """Blocks (i, j), i < j, of the pairs of rectangles whose x-extents
    c_x +- sum_q half_q |axes_q[0]| meet, at most _BLOCK_VALUES live values
    of ``_sat_overlap`` a block.

    Sorted by low end, an extent meets the ones after it whose low end is
    at most its high end, so extents that touch are kept.  Each is widened
    by m = 32 eps S, S = max |c| + max sum_q half_q: its ends round by at
    most 4 eps S and ``_sat_overlap``'s verdict by 21 eps S.  A pruned
    pair's x-extents are then over 2m - 8 eps S = 56 eps S apart, and as
    the Minkowski difference of two rectangles turns by at most 90 degrees
    at a vertex, over 39 eps S apart along one of its own axes: the pair
    reads disjoint exactly and rounded."""
    reach = np.sum(halves * np.abs(axes[..., 0]), axis=1)
    margin = 32.0 * _EPS * (np.abs(centers).max(initial=0.0)
                            + halves.sum(axis=1).max(initial=0.0))
    lo, hi = centers[:, 0] - reach - margin, centers[:, 0] + reach + margin
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    # sorted extent a meets the extents a + 1 .. a + counts[a]
    counts = np.searchsorted(lo, hi, side="right") - np.arange(1, len(lo) + 1)
    starts, total = np.cumsum(counts) - counts, int(counts.sum())
    # per pair, all live values stay below 3x the 4 x 4 product of own rows
    pairs = max(1, _BLOCK_VALUES // (3 * 4 * 4))
    for first in range(0, total, pairs):
        flat = np.arange(first, min(first + pairs, total))
        a = np.searchsorted(starts, flat, side="right") - 1
        i, j = order[a], order[a + 1 + flat - starts[a]]
        yield np.minimum(i, j), np.maximum(i, j)


def _sat_overlap(centers, axes, halves, i, j):
    """True where the interiors of the rectangle pairs (i, j), index arrays,
    overlap.  A rectangle's radius along a unit axis x is sum_q half_q
    |axes_q . x|; the candidate axes are both rectangles' own rows.  A pair
    is separated when |x . (c_j - c_i)| >= r_i + r_j on some candidate, so
    rectangles that only touch count as disjoint."""
    own = np.concatenate([axes[i], axes[j]], axis=1)
    dist = np.abs(own @ (centers[j] - centers[i])[:, :, None])
    # r_i + r_j in one product: all four own rows against both extents
    proj = own @ own.transpose(0, 2, 1)
    radii = (np.abs(proj, out=proj)
             @ np.hstack([halves[i], halves[j]])[:, :, None])
    return ~(dist >= radii).any(axis=(1, 2))


# --- union measure -----------------------------------------------------------

# union_measure is exact: the resolution it requires changes nothing, and
# UNION_RESOLUTION is still passed only because perfbench/ passes one
UNION_RESOLUTION = 2.0**-14
_UNION_VALUES = 2**18


def union_measure(shapes, resolution):
    """Exact measure of a union of rectangles and a bound on its rounding.

    Integrates 1/2 cross(x, dx) over the parts of the edges P + t d, t in
    [0, 1], that no other rectangle's open interior covers; each rectangle
    covers one t-interval, cut out by two slab inequalities.  Coincident
    pieces with the same outward normal belong to the lower index; pieces
    with opposite normals both stay and cancel.  Returns (measure, bound);
    the bound covers rounding, including the 1/|s1| growth of clip
    endpoints on near-parallel edges.  ``resolution`` must be positive but
    has no effect.  Accepts a RectangleFamily, a BoxFamily (the family its
    E_j lift) or a sequence of Rect2; an empty union measures (0.0, 0.0).
    Edges go in blocks of max(1, _UNION_VALUES // (64 N)) whole rectangles,
    about _UNION_VALUES live values, sized for a core's L2 cache; with four
    edges or more, no block's product takes BLAS's matrix-vector path, which
    rounds differently, so the result does not depend on the block.
    """
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    if isinstance(shapes, BoxFamily):
        shapes = shapes.family
    centers, axes, halves = (
        (shapes.centers, shapes.axes, shapes.halves)
        if isinstance(shapes, RectangleFamily) else _frames(list(shapes)))
    if not len(centers):
        return 0.0, 0.0
    verts = _corners(centers, axes, halves)                  # clockwise
    # slab k of rectangle j is |axes[k, j] . x - offsets[k, j]| < halves[k, j],
    # in the coordinates of the vertices, which carry |u|^2
    axes = axes.transpose(1, 0, 2)
    offsets = np.sum(centers * axes, 2)
    halves = halves.T * np.vecdot(axes[0], axes[0])
    starts = verts.reshape(-1, 2)
    vectors = (np.roll(verts, -1, axis=1) - verts).reshape(-1, 2)
    # bounds the rounding of every vertex, edge and slab coordinate
    err = 16.0 * _EPS * float(np.abs(verts).max())
    block = 4 * max(1, _UNION_VALUES // (64 * len(centers)))
    covered, frac_err, bands = np.concatenate([
        _edge_coverage(axes, offsets, halves, starts[e0:e0 + block],
                       vectors[e0:e0 + block], e0, err)
        for e0 in range(0, len(starts), block)], axis=1)
    cross = starts[:, 0] * vectors[:, 1] - starts[:, 1] * vectors[:, 0]
    terms = 0.5 * cross * (covered - 1.0)    # clockwise: area = -1/2 sum
    lengths = np.hypot(*vectors.T)
    cross_err = err * (np.hypot(*starts.T) + 2.0 * lengths)
    bound = (0.5 * np.abs(cross) @ np.minimum(frac_err, 1.0)
             + 0.5 * cross_err @ (1.0 - covered) + 3.0 * err * lengths @ bands
             + (len(terms) + 2) * _EPS * np.abs(terms).sum())
    # eps_hat = measure + bound must not round below the true sum: step the
    # sum up until the difference (exact if bound <= measure) holds the bound
    measure = float(terms.sum())
    total = measure + bound
    while total - measure < bound:
        total = np.nextafter(total, np.inf)
    return measure, float(total - measure)


def _edge_coverage(axes, offsets, halves, starts, vectors, first, err):
    """For the edges first, first + 1, ...: the fraction covered by the other
    rectangles, a first-order bound on its rounding, and the number of
    slab-boundary bands met.  Works in place on six (edges, 2, rects) arrays
    and a mask, indexed [edge, k, j]; its sweep adds five (edges, rects)."""
    n, rows = axes.shape[1], np.arange(len(starts))
    owner = (first + rows) // 4
    s0, s1, t1, t2, dt, near = scratch = np.empty((6, len(starts), 2, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        # edge point t lies inside slab k of rectangle j if |s0 + t s1| <
        # half: between t1 = (-half - s0) / s1 and t2 = (half - s0) / s1
        np.matmul([starts, vectors], axes.reshape(-1, 2).T,
                  out=scratch[:2].reshape(2, -1, 2 * n))
        s0 -= offsets
        np.subtract([[-halves], [halves]], s0, out=scratch[2:4])
        scratch[2:4] /= s1
        # an edge parallel to the slab up to rounding is inside it for all t
        # or for none; within 3 err of the slab boundary (a band, whose
        # sliver of area 3 err |d| enters the bound) the tie rule compares
        # the side with the outward normal (-d_y, d_x)
        i, k, j = np.nonzero(np.abs(s1, out=s1) <= err)
        side, half = s0[i, k, j], halves[k, j]
        band = np.abs(np.abs(side) - half) <= 3.0 * err
        normal = vectors[i, 0] * axes[k, j, 1] - vectors[i, 1] * axes[k, j, 0]
        inside = np.where(band, (owner[i] > j)
                          & (np.sign(side) == np.sign(normal)),
                          np.abs(side) < half)
        t1[i, k, j], t2[i, k, j] = np.where(inside, -np.inf, np.inf), np.inf
        t1[rows, :, owner] = t2[rows, :, owner] = np.inf   # not by itself
        # an endpoint that may land in [0, 1] is off by up to
        # dt = (err / |s1| + 2 eps)(1 + |t|); the sweep adds n eps
        scale = np.add(np.divide(err, s1, out=s1), 2.0 * _EPS, out=s1)
        frac_err = n * _EPS
        for t in (t1, t2):
            np.abs(t, out=dt)
            dt += 1.0
            dt *= scale
            np.abs(np.subtract(t, 0.5, out=near), out=near)
            np.copyto(dt, 0.0, where=~(near < np.add(dt, 0.5, out=s0)))
            frac_err = frac_err + dt.sum(axis=(1, 2))
        lo = np.clip(np.minimum(t1, t2, out=near).max(axis=1), 0.0, 1.0)
        hi = np.clip(np.maximum(t1, t2, out=near).min(axis=1), lo, 1.0)

    # measure of the union of the intervals: sort, then a running maximum;
    # covered = (last run - first lo) - gaps between run_(k-1) and lo_k
    order = np.argsort(lo, axis=1) + n * rows[:, None]
    lo, run = lo.take(order), hi.take(order)
    np.maximum.accumulate(run, axis=1, out=run)
    gaps = np.clip(lo[:, 1:] - run[:, :-1], 0.0, None).sum(axis=1)
    bands = np.bincount(i[band], minlength=len(starts))
    return np.array([run[:, -1] - lo[:, 0] - gaps, frac_err, bands])


# --- 3D boxes ----------------------------------------------------------------

def build_boxes(family):
    """The boxes E_j = [0,1] x R_j, the rotated inner boxes F_j and the
    translates F_j + 5*(-1, u_j), lifted from the family's frames in one
    pass; each stack is checked once.  The boxes have the sides of a family
    of N rectangles of length 1 and width 1/N; an empty family or any other
    family raises ValueError, naming its first rectangle of other sides."""
    n = family.n_rects
    if not n:
        raise ValueError("the rectangle family is empty; there are no boxes "
                         "to lift")
    width, sqrt2 = 1.0 / n, np.sqrt(2.0)
    misfits = np.flatnonzero(~np.all(
        np.abs(2.0 * family.halves - [1.0, width]) <= 1e-12, axis=1))
    if misfits.size:
        j = int(misfits[0])
        rect = family.rects[j]
        raise ValueError(
            f"rectangle {j} is {rect.length!r} x {rect.width!r}; boxes "
            f"lift rectangles of length 1 and width 1/{n}")
    light_rays = np.column_stack([np.ones(n), family.axes[:, 0]])
    normals = light_rays * [-1.0, 1.0, 1.0]
    centers = np.insert(family.centers, 0, 0.5, axis=1)
    axes_e = np.zeros((n, 3, 3))
    axes_e[:, 0, 0] = 1.0
    axes_e[:, 1:, 1:] = family.axes
    # rows (1, -u_j) / sqrt2, (1, u_j) / sqrt2 and (0, u_j-perp)
    axes_f = np.stack([-normals / sqrt2, light_rays / sqrt2, axes_e[:, 2]],
                      axis=1)
    halves_f = np.tile([sqrt2 / 4, sqrt2 / 4, width / 2], (n, 1))
    return BoxFamily(
        family=family,
        e=Box3(centers, axes_e, np.tile([0.5, 0.5, width / 2], (n, 1))),
        f=Box3(centers, axes_f, halves_f),
        f_shifted=Box3(centers + family.shift * normals, axes_f, halves_f),
        light_rays=light_rays,
        normals=normals,
    )


def box_geometry_check(boxes):
    """Verify the box-family invariants; returns a dict of named booleans."""
    n = boxes.n_boxes
    shifts = boxes.f_shifted.center - boxes.f.center
    are_shifts = bool(np.max(np.abs(shifts - SHIFT * boxes.normals)) <= 1e-12)
    lifted = _projections_match(boxes)
    report = {}
    vol_f = boxes.f.volume()
    report["volumes_f"] = bool(np.max(np.abs(vol_f - 1.0 / (2 * n))) <= 1e-12)
    vol_ft = boxes.f_shifted.volume()
    report["total_translate_volume"] = bool(abs(vol_ft.sum() - 0.5) <= 1e-12)
    verts_f = boxes.f.vertices()
    report["f_inside_e"] = bool(np.all(boxes.e.contains(verts_f,
                                                        slack=1e-12)))
    # F_j + 5 ntilde_j lies in E_j + 5 ntilde_j = [-5,-4] x (R_j + 5 u_j), so
    # the box translates are disjoint where the family's translates are
    report["translates_disjoint"] = (report["f_inside_e"] and are_shifts
                                     and lifted
                                     and translates_disjoint(boxes.family))
    report["normals_have_sqrt2_length"] = bool(
        np.max(np.abs(np.linalg.norm(boxes.normals, axis=1) - np.sqrt(2.0)))
        <= 1e-12
    )
    report["translates_are_shifts"] = are_shifts
    all_verts = np.concatenate([verts_f,
                                boxes.f_shifted.vertices()]).reshape(-1, 3)
    max_norm = float(np.max(np.linalg.norm(all_verts, axis=1)))
    report["max_vertex_norm"] = max_norm
    report["inside_ball"] = bool(max_norm <= BALL_RADIUS_3D)
    report["projections_match"] = lifted
    report["all_passed"] = all(
        v for key, v in report.items() if isinstance(v, bool)
    )
    return report


def _projections_match(boxes):
    """Each E_j is [0,1] x R_j, the lift of its family's rectangle, and each
    ntilde_j is (-1, u_j)."""
    family, e = boxes.family, boxes.e
    gaps = (e.center - np.insert(family.centers, 0, 0.5, axis=1),
            e.axes - np.diag([1.0, 0, 0])
            - np.pad(family.axes, ((0, 0), (1, 0), (1, 0))),
            e.half_extents - np.insert(family.halves, 0, 0.5, axis=1),
            boxes.normals - np.insert(family.axes[:, 0], 0, -1.0, axis=1))
    return all(np.max(np.abs(gap)) <= 1e-12 for gap in gaps)


# --- serialization -----------------------------------------------------------

SCHEMA_VERSION = 1


def family_to_json(family):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "rectangle_family",
        "k": family.k,
        "n_rects": family.n_rects,
        "shift": family.shift,
        "rects": [
            {
                "center": center,
                "direction": direction,
                "length": rect.length,
                "width": rect.width,
            }
            for center, direction, rect in zip(family.centers.tolist(),
                                               family.axes[:, 0].tolist(),
                                               family.rects)
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def family_to_svg(family):
    """SVG rendering of the rectangles and their translates, with a margin
    of 0.5 around them."""
    verts = family.vertices()
    lo = verts.reshape(-1, 2).min(axis=0) - 0.5
    hi = verts.reshape(-1, 2).max(axis=0) + 0.5
    span = hi - lo
    scale = 800.0 / span.max()
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{span[0] * scale:.0f}" height="{span[1] * scale:.0f}" '
        f'viewBox="0 0 {span[0] * scale:.2f} {span[1] * scale:.2f}">'
    ]
    for color, group in zip(("#1f77b4", "#d62728"), verts):
        for rect in group:
            pts = " ".join(
                f"{(v[0] - lo[0]) * scale:.3f},{(hi[1] - v[1]) * scale:.3f}"
                for v in rect
            )
            parts.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.35" '
                f'stroke="{color}" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
