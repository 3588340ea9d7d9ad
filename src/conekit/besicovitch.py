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
Disjointness (by exact separating-axis tests) and the ball bound are
verified once per build.

``build_boxes`` lifts a family to the 3D boxes: E_j = [0,1] x R_j and the
rotated box F_j spanned by (1,-u_j), (1,u_j), (0,u_j-perp) with side 1/sqrt2
along the light-ray direction, plus the translates F_j + 5*(-1, u_j).

``union_measure`` is exact: a closed-form boundary integral over the parts
of the edges no other rectangle covers; its bound covers only rounding.
"""

from __future__ import annotations

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
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        u = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ValueError("rectangle direction must be a unit vector")
        object.__setattr__(self, "direction", u)

    @property
    def normal(self):
        u = self.direction
        return np.array([-u[1], u[0]])

    def vertices(self):
        hl = 0.5 * self.length * self.direction
        hw = 0.5 * self.width * self.normal
        c = self.center
        return np.array([c + hl + hw, c + hl - hw, c - hl - hw, c - hl + hw])

    def translated(self, shift):
        return Rect2(self.center + shift, self.direction, self.length, self.width)


@dataclass(frozen=True)
class RectangleFamily:
    k: int
    rects: tuple
    shift: float = SHIFT

    def __post_init__(self):
        # the closed-form integrals and the geometry check use SHIFT
        if self.shift != SHIFT:
            raise ValueError(f"rectangle families are shifted by {SHIFT}")

    @property
    def n_rects(self):
        return len(self.rects)

    def translates(self):
        return tuple(
            r.translated(self.shift * r.direction) for r in self.rects
        )

    def total_area(self):
        return float(sum(r.length * r.width for r in self.rects))


@dataclass(frozen=True)
class Box3:
    """Box given by center, orthonormal axis rows and half extents."""

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        axes = np.asarray(self.axes, dtype=float)
        if np.max(np.abs(axes @ axes.T - np.eye(3))) > 1e-12:
            raise ValueError("box axes must be orthonormal")
        object.__setattr__(self, "axes", axes)
        he = np.asarray(self.half_extents, dtype=float)
        if np.any(he <= 0):
            raise ValueError("half extents must be positive")
        object.__setattr__(self, "half_extents", he)

    def volume(self):
        return float(8.0 * np.prod(self.half_extents))

    def vertices(self):
        signs = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        return self.center + (signs * self.half_extents) @ self.axes

    def contains(self, points, slack=0.0):
        """True where all box-frame coordinates are within the extents."""
        local = (np.atleast_2d(points) - self.center) @ self.axes.T
        return np.all(np.abs(local) <= self.half_extents + slack, axis=1)

    def translated(self, shift):
        return Box3(self.center + np.asarray(shift), self.axes, self.half_extents)


@dataclass(frozen=True)
class BoxFamily:
    family: RectangleFamily       # the R_j that the E_j = [0,1] x R_j lift
    boxes_e: tuple
    boxes_f: tuple
    boxes_f_shifted: tuple
    light_rays: np.ndarray        # rows n_j = (1, u_j)
    normals: np.ndarray           # rows ntilde_j = (-1, u_j)

    @property
    def k(self):
        return self.family.k

    @property
    def n_boxes(self):
        return len(self.boxes_f)


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
    """ValueError unless k is a construction level, an integer in 1..12."""
    if not 1 <= k <= 12:
        raise ValueError("construction level k must be in 1..12")


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
    if not (translates_disjoint(family) and _family_in_ball(family)):
        raise ConstructionFailedError(
            f"the bisection placement for k={k} failed its verification")
    return family


def _family_in_ball(family, radius=BALL_RADIUS_2D):
    verts = np.concatenate(
        [r.vertices() for r in family.rects]
        + [r.vertices() for r in family.translates()]
    )
    return bool(np.max(np.linalg.norm(verts, axis=1)) <= radius)


# --- exact intersection predicates -------------------------------------------

# values live at once in one block of pair work or of edge work: memory stays
# flat in k
_BLOCK_VALUES = 2**22


def translates_disjoint(family):
    """Exact pairwise disjointness of a RectangleFamily's translates."""
    # any() stops at the first block holding an overlapping pair
    return not any(overlap.any() for _, _, overlap
                   in _sat_blocks(*_frames(family.translates())))


def _frames(rects):
    """Centers (n, 2), axis rows u, n (n, 2, 2) and half extents (n, 2) of a
    sequence of Rect2."""
    return (np.array([r.center for r in rects]),
            np.array([[r.direction, r.normal] for r in rects]),
            0.5 * np.array([[r.length, r.width] for r in rects]))


def _sat_blocks(centers, axes, halves):
    """Separating-axis verdicts for every pair i < j of n rectangles, one
    block of rows i at a time: yields (i, j, overlap).

    A rectangle's radius along a unit axis x is sum_q half_q |axes_q . x|.
    The candidate axes are both rectangles' own rows.  A pair is separated
    when |x . (c_j - c_i)| >= r_i + r_j on some candidate, so rectangles
    that only touch count as disjoint.
    """
    n = len(centers)
    # per pair, all live values stay below 3x the 4 x 4 product of own rows
    rows = max(1, _BLOCK_VALUES // (n * 3 * 4 * 4))
    index = np.arange(n)
    for first in range(0, n - 1, rows):
        i, j = np.nonzero(index[first:first + rows, None] < index)
        i += first
        own = np.concatenate([axes[i], axes[j]], axis=1)
        dist = np.abs(own @ (centers[j] - centers[i])[:, :, None])
        # r_i + r_j in one product: all four own rows against both extents
        proj = own @ own.transpose(0, 2, 1)
        radii = (np.abs(proj, out=proj)
                 @ np.hstack([halves[i], halves[j]])[:, :, None])
        yield i, j, ~(dist >= radii).any(axis=(1, 2))


# --- union measure -----------------------------------------------------------

_EPS = np.finfo(float).eps
# union_measure is exact: the resolution it requires changes nothing (stats.csv
# keeps the column at the old default)
UNION_RESOLUTION = 2.0**-14


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
    E_j lift) or a sequence of Rect2.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    rects = _as_rect_list(shapes)
    centers, axes, halves = _frames(rects)
    # slab k of rectangle j is |axes[k, j] . x - offsets[k, j]| < halves[k, j],
    # in the coordinates of the vertices, which carry |u|^2
    axes = axes.transpose(1, 0, 2)
    offsets = np.sum(centers * axes, 2)
    halves = halves.T * np.vecdot(axes[0], axes[0])
    verts = np.array([r.vertices() for r in rects])        # clockwise
    starts = verts.reshape(-1, 2)
    vectors = (np.roll(verts, -1, axis=1) - verts).reshape(-1, 2)
    # bounds the rounding of every vertex, edge and slab coordinate
    err = 16.0 * _EPS * float(np.abs(verts).max())
    # _edge_coverage holds up to nine (edges, 2, rects) arrays at once
    block = max(1, _BLOCK_VALUES // (9 * 2 * len(rects)))
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
    slab-boundary bands met."""
    n, rows = axes.shape[1], np.arange(len(starts))
    owner = (first + rows) // 4
    with np.errstate(divide="ignore", invalid="ignore"):
        # edge point t lies inside slab k of rectangle j if |s0 + t s1| <
        # half; arrays are indexed [edge, k, j]
        flat = axes.reshape(-1, 2).T
        s0 = (starts @ flat).reshape(-1, 2, n) - offsets
        s1 = (vectors @ flat).reshape(-1, 2, n)
        t1, t2 = (-halves - s0) / s1, (halves - s0) / s1
        # an edge parallel to the slab up to rounding is inside it for all t
        # or for none; within 3 err of the slab boundary (a band, whose
        # sliver of area 3 err |d| enters the bound) the tie rule compares
        # the side with the outward normal (-d_y, d_x)
        i, k, j = np.nonzero(np.abs(s1) <= err)
        side, half = s0[i, k, j], halves[k, j]
        band = np.abs(np.abs(side) - half) <= 3.0 * err
        normal = vectors[i, 0] * axes[k, j, 1] - vectors[i, 1] * axes[k, j, 0]
        inside = np.where(band, (owner[i] > j)
                          & (np.sign(side) == np.sign(normal)),
                          np.abs(side) < half)
        t1[i, k, j], t2[i, k, j] = np.where(inside, -np.inf, np.inf), np.inf
        t1[rows, :, owner] = t2[rows, :, owner] = np.inf   # not by itself
        # an endpoint that may land in [0, 1] is off by up to
        # (err / |s1| + 2 eps)(1 + |t|); the sweep adds n eps
        scale = err / np.abs(s1) + 2.0 * _EPS
        frac_err = n * _EPS
        for t in (t1, t2):
            dt = scale * (1.0 + np.abs(t))
            frac_err = frac_err + np.where(
                np.abs(t - 0.5) < 0.5 + dt, dt, 0.0).sum(axis=(1, 2))
        lo = np.clip(np.minimum(t1, t2).max(axis=1), 0.0, 1.0)
        hi = np.clip(np.maximum(t1, t2).min(axis=1), lo, 1.0)

    # measure of the union of the intervals: sort, then a running maximum;
    # covered = (last run - first lo) - gaps between run_(k-1) and lo_k
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    run = np.maximum.accumulate(np.take_along_axis(hi, order, axis=1), axis=1)
    gaps = np.clip(lo[:, 1:] - run[:, :-1], 0.0, None).sum(axis=1)
    bands = np.bincount(i[band], minlength=len(starts))
    return np.array([run[:, -1] - lo[:, 0] - gaps, frac_err, bands])


def _as_rect_list(shapes):
    if isinstance(shapes, BoxFamily):
        shapes = shapes.family
    return list(shapes.rects if isinstance(shapes, RectangleFamily) else shapes)


# --- 3D boxes ----------------------------------------------------------------

def build_boxes(family):
    """The boxes E_j = [0,1] x R_j, the rotated inner boxes F_j and the
    translates F_j + 5*(-1, u_j).  The boxes have the sides of a family of
    N rectangles of length 1 and width 1/N; any other family raises
    ValueError, naming its first rectangle of other sides."""
    width, sqrt2 = 1.0 / family.n_rects, np.sqrt(2.0)
    for j, rect in enumerate(family.rects):
        if abs(rect.length - 1.0) > 1e-12 or abs(rect.width - width) > 1e-12:
            raise ValueError(
                f"rectangle {j} is {rect.length!r} x {rect.width!r}; boxes "
                f"lift rectangles of length 1 and width 1/{family.n_rects}")
    boxes_e, boxes_f = [], []
    for rect in family.rects:
        (u0, u1), (p0, p1) = rect.direction, rect.normal
        center = [0.5, *rect.center]
        boxes_e.append(Box3(center, [[1.0, 0.0, 0.0], [0.0, u0, u1],
                                     [0.0, p0, p1]], [0.5, 0.5, width / 2]))
        boxes_f.append(Box3(
            center, [np.array([1.0, -u0, -u1]) / sqrt2,
                     np.array([1.0, u0, u1]) / sqrt2, [0.0, p0, p1]],
            [sqrt2 / 4, sqrt2 / 4, width / 2]))
    directions = np.array([r.direction for r in family.rects])
    light_rays = np.column_stack([np.ones(len(directions)), directions])
    normals = light_rays * [-1.0, 1.0, 1.0]
    return BoxFamily(
        family=family,
        boxes_e=tuple(boxes_e),
        boxes_f=tuple(boxes_f),
        boxes_f_shifted=tuple(f.translated(family.shift * ntilde)
                              for f, ntilde in zip(boxes_f, normals)),
        light_rays=light_rays,
        normals=normals,
    )


def box_geometry_check(boxes):
    """Verify the box-family invariants; returns a dict of named booleans."""
    n = boxes.n_boxes
    shifts = (np.array([b.center for b in boxes.boxes_f_shifted])
              - np.array([b.center for b in boxes.boxes_f]))
    are_shifts = bool(np.max(np.abs(shifts - SHIFT * boxes.normals)) <= 1e-12)
    lifted = _projections_match(boxes)
    report = {}
    vol_f = np.array([b.volume() for b in boxes.boxes_f])
    report["volumes_f"] = bool(np.max(np.abs(vol_f - 1.0 / (2 * n))) <= 1e-12)
    vol_ft = np.array([b.volume() for b in boxes.boxes_f_shifted])
    report["total_translate_volume"] = bool(abs(vol_ft.sum() - 0.5) <= 1e-12)
    report["f_inside_e"] = all(
        bool(np.all(e.contains(f.vertices(), slack=1e-12)))
        for e, f in zip(boxes.boxes_e, boxes.boxes_f)
    )
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
    all_verts = np.concatenate(
        [b.vertices() for b in boxes.boxes_f]
        + [b.vertices() for b in boxes.boxes_f_shifted]
    )
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
    centers, axes, halves = _frames(boxes.family.rects)
    gaps = (np.array([b.center for b in boxes.boxes_e])
            - np.insert(centers, 0, 0.5, axis=1),
            np.array([b.axes for b in boxes.boxes_e]) - np.diag([1.0, 0, 0])
            - np.pad(axes, ((0, 0), (1, 0), (1, 0))),
            np.array([b.half_extents for b in boxes.boxes_e])
            - np.insert(halves, 0, 0.5, axis=1),
            boxes.normals - np.insert(axes[:, 0], 0, -1.0, axis=1))
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
                "center": rect.center.tolist(),
                "direction": rect.direction.tolist(),
                "length": rect.length,
                "width": rect.width,
            }
            for rect in family.rects
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def family_to_svg(family):
    """SVG rendering of the rectangles and their translates, with a margin
    of 0.5 around them."""
    groups = [
        ("#1f77b4", family.rects),
        ("#d62728", family.translates()),
    ]
    verts = np.concatenate([r.vertices() for _, rs in groups for r in rs])
    lo, hi = verts.min(axis=0) - 0.5, verts.max(axis=0) + 0.5
    span = hi - lo
    scale = 800.0 / span.max()
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{span[0] * scale:.0f}" height="{span[1] * scale:.0f}" '
        f'viewBox="0 0 {span[0] * scale:.2f} {span[1] * scale:.2f}">'
    ]
    for color, rs in groups:
        for rect in rs:
            pts = " ".join(
                f"{(v[0] - lo[0]) * scale:.3f},{(hi[1] - v[1]) * scale:.3f}"
                for v in rect.vertices()
            )
            parts.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.35" '
                f'stroke="{color}" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
