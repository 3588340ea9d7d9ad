"""Tests for the rectangle families, 3D boxes and measure estimators."""

import dataclasses
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from conekit import besicovitch as bs
from conekit.errors import ConstructionFailedError
from oracles import boxes_intersect, exact_union_measure, mc_union_measure


class TestRectangleFamilies:
    def test_k1_two_rectangles(self):
        fam = bs.build_perron_rectangles(1)
        assert fam.n_rects == 2
        assert bs.translates_disjoint(fam)
        assert fam.total_area() == 1.0

    def test_total_area_is_exactly_one(self):
        for k in range(1, 7):
            fam = bs.build_perron_rectangles(k)
            assert fam.total_area() == 1.0
            translates = fam.translates()
            assert sum(r.length * r.width for r in translates) == 1.0

    def test_directions_distinct_and_unit(self):
        fam = bs.build_perron_rectangles(5)
        dirs = np.array([r.direction for r in fam.rects])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        angles = np.arctan2(dirs[:, 0], dirs[:, 1])
        assert np.all(np.diff(np.sort(angles)) > 0)

    def test_family_inside_ball(self):
        fam = bs.build_perron_rectangles(6)
        verts = np.concatenate(
            [r.vertices() for r in fam.rects]
            + [r.vertices() for r in fam.translates()]
        )
        assert np.max(np.linalg.norm(verts, axis=1)) <= 10.0

    def test_union_shrinks_from_k3_to_k6(self):
        m3, e3 = bs.union_measure(bs.build_perron_rectangles(3), 2**-12)
        m6, e6 = bs.union_measure(bs.build_perron_rectangles(6), 2**-12)
        assert m6 + e6 < m3 - e3

    def test_deterministic_construction(self):
        a = bs.build_perron_rectangles(4)
        b = bs.build_perron_rectangles(4)
        for ra, rb in zip(a.rects, b.rects):
            assert np.array_equal(ra.center, rb.center)
            assert np.array_equal(ra.direction, rb.direction)

    def test_failed_verification_raises(self, monkeypatch):
        monkeypatch.setattr(bs, "translates_disjoint", lambda family: False)
        with pytest.raises(ConstructionFailedError, match="k=3"):
            bs.build_perron_rectangles(3)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            bs.build_perron_rectangles(0)
        with pytest.raises(ValueError):
            bs.build_perron_rectangles(13)

    def test_only_the_tested_shift_accepted(self):
        rects = bs.build_perron_rectangles(3).rects
        with pytest.raises(ValueError, match="shifted by"):
            bs.RectangleFamily(k=3, rects=rects, shift=3.0)
        family = bs.RectangleFamily(k=3, rects=rects, shift=bs.SHIFT)
        assert bs.box_geometry_check(bs.build_boxes(family))["all_passed"]


class TestIntersectionPredicates:
    def test_identical_rectangles_overlap(self):
        r = bs.Rect2(center=[0.0, 0.0], direction=[0.0, 1.0], length=1.0, width=0.25)
        assert boxes_intersect(r, r)

    def test_separated_rectangles_do_not(self):
        r1 = bs.Rect2(center=[0.0, 0.0], direction=[0.0, 1.0], length=1.0, width=0.25)
        r2 = bs.Rect2(center=[1.0, 0.0], direction=[0.0, 1.0], length=1.0, width=0.25)
        assert not boxes_intersect(r1, r2)

    def test_touching_edges_count_as_disjoint_interiors(self):
        r1 = bs.Rect2(center=[0.0, 0.0], direction=[0.0, 1.0], length=1.0, width=0.5)
        r2 = bs.Rect2(center=[0.5, 0.0], direction=[0.0, 1.0], length=1.0, width=0.5)
        assert not boxes_intersect(r1, r2)

    def test_rotated_pair_against_area_oracle(self):
        # Monte-Carlo area of the intersection as an independent oracle.
        rng = np.random.default_rng(61)
        for _ in range(40):
            c1, c2 = rng.uniform(-0.5, 0.5, size=(2, 2))
            t1, t2 = rng.uniform(0, np.pi, size=2)
            r1 = bs.Rect2(center=c1, direction=[np.sin(t1), np.cos(t1)],
                          length=1.0, width=0.3)
            r2 = bs.Rect2(center=c2, direction=[np.sin(t2), np.cos(t2)],
                          length=1.0, width=0.3)
            pts = rng.uniform(-1.5, 1.5, size=(4000, 2))
            in1 = r1.contains(pts) if hasattr(r1, "contains") else None
            d1 = pts - r1.center
            in1 = (np.abs(d1 @ r1.direction) < r1.length / 2) & (
                np.abs(d1 @ r1.normal) < r1.width / 2
            )
            d2 = pts - r2.center
            in2 = (np.abs(d2 @ r2.direction) < r2.length / 2) & (
                np.abs(d2 @ r2.normal) < r2.width / 2
            )
            frac = np.mean(in1 & in2)
            if frac > 0.002:
                assert boxes_intersect(r1, r2)
            if not boxes_intersect(r1, r2):
                assert frac == 0.0

    def test_k8_translates_disjoint(self):
        fam = bs.build_perron_rectangles(8)
        assert bs.translates_disjoint(fam)

    def test_random_pairs_against_lp_margin(self):
        rng = np.random.default_rng(83)
        verdicts = []
        for _ in range(150):
            r1, r2 = (bs.Rect2(center=rng.uniform(-1.0, 1.0, 2),
                               direction=[np.sin(t), np.cos(t)],
                               length=rng.uniform(0.2, 1.5),
                               width=rng.uniform(0.05, 0.6))
                      for t in rng.uniform(0.0, np.pi, 2))
            verdicts.append((boxes_intersect(r1, r2), _lp_margin(r1, r2)))
        checked = [(got, s > 0) for got, s in verdicts if abs(s) >= 1e-9]
        assert all(got == expected for got, expected in checked)
        assert {expected for _, expected in checked} == {True, False}

    def test_nested_rectangles_overlap(self):
        big = bs.Rect2(center=[0.0, 0.0], direction=[0.0, 1.0],
                       length=2.0, width=1.0)
        small = bs.Rect2(center=[0.1, 0.2], direction=[0.6, 0.8],
                         length=0.5, width=0.2)
        assert boxes_intersect(big, small)
        assert boxes_intersect(small, big)

    @pytest.mark.parametrize("lift", [False, True])
    def test_overlap_found_in_every_block(self, monkeypatch, lift):
        # small blocks, so a k = 8 family spans many of them; lifted, the
        # box check must read the same verdict
        monkeypatch.setattr(bs, "_BLOCK_VALUES", 2**16)
        family = bs.build_perron_rectangles(8)
        n = family.n_rects
        blocks = list(bs._sat_blocks(*bs._frames(family.translates())))
        assert len(blocks) > 2
        pairs = [np.concatenate(p) for p in zip(*(b[:2] for b in blocks))]
        np.testing.assert_array_equal(pairs, np.triu_indices(n, 1))
        boundary = blocks[1][0][0]           # first row of the second block
        for i, j in ((boundary - 1, boundary), (boundary, boundary + 1),
                     (n - 2, n - 1)):
            # rectangle j becomes a copy of rectangle i: the only overlapping
            # pair
            rects = list(family.rects)
            rects[j] = rects[i]
            planted = dataclasses.replace(family, rects=tuple(rects))
            if lift:
                report = bs.box_geometry_check(bs.build_boxes(planted))
                assert not report["translates_disjoint"], (i, j)
            else:
                assert not bs.translates_disjoint(planted), (i, j)
        assert bs.translates_disjoint(family)

    def test_batched_verdicts_match_pairwise(self):
        outcomes = set()
        for k in range(1, 7):
            rects = bs.build_perron_rectangles(k).rects
            batched = np.concatenate(
                [b[2] for b in bs._sat_blocks(*bs._frames(rects))])
            expected = [boxes_intersect(a, b)
                        for a, b in itertools.combinations(rects, 2)]
            assert batched.tolist() == expected
            outcomes.update(expected)
        assert outcomes == {True, False}


def _lp_margin(shape1, shape2):
    """Largest s such that some x has |A (x - c)| <= h - s row-wise for both
    shapes (center c, axis rows A, half extents h): the shapes' interiors
    overlap iff s > 0.  An independent oracle for the separating-axis test."""
    rows, bounds = [], []
    for shape in (shape1, shape2):
        if isinstance(shape, bs.Rect2):
            axes = np.array([shape.direction, shape.normal])
            half = 0.5 * np.array([shape.length, shape.width])
        else:
            axes, half = shape.axes, shape.half_extents
        for sign in (1.0, -1.0):
            rows.append(np.column_stack([sign * axes, np.ones(len(axes))]))
            bounds.append(half + sign * axes @ shape.center)
    d = len(shape1.center)
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.vstack(rows),
                  b_ub=np.concatenate(bounds), bounds=[(None, None)] * (d + 1))
    assert res.status == 0
    return -res.fun


def _square(cx, cy, direction=(0.0, 1.0), length=1.0, width=1.0):
    return bs.Rect2(center=[cx, cy], direction=list(direction),
                    length=length, width=width)


class TestUnionMeasure:
    def test_unit_square(self):
        sq = [bs.Rect2(center=[0.5, 0.5], direction=[0.0, 1.0],
                       length=1.0, width=1.0)]
        m, err = bs.union_measure(sq, 2**-10)
        assert err <= 1e-12
        assert abs(m - 1.0) <= err

    def test_disjoint_translates_measure_one(self):
        fam = bs.build_perron_rectangles(2)
        m, err = bs.union_measure(list(fam.translates()), 2**-12)
        assert abs(m - 1.0) <= err

    def test_k8_union_small(self):
        fam = bs.build_perron_rectangles(8)
        m, err = bs.union_measure(fam, 2**-17)
        assert m + err < 0.35

    def test_monte_carlo_cross_check(self):
        for k in (3, 6):
            fam = bs.build_perron_rectangles(k)
            m, err = bs.union_measure(fam, 2**-13)
            est, stderr = mc_union_measure(fam, 200_000, seed=k)
            assert abs(m - est) <= err + 3 * stderr

    def test_two_overlapping_squares_oracle(self):
        # two unit squares overlapping in a 0.5 x 1 strip: union = 1.5
        a = bs.Rect2(center=[0.5, 0.5], direction=[0.0, 1.0], length=1.0, width=1.0)
        b = bs.Rect2(center=[1.0, 0.5], direction=[0.0, 1.0], length=1.0, width=1.0)
        m, err = bs.union_measure([a, b], 2**-11)
        assert abs(m - 1.5) <= err

    @pytest.mark.parametrize("rects, expected", [
        # identical squares: the copy's edges belong to the lower index,
        # also when rotated, where coincidence holds only up to rounding
        ([_square(0.5, 0.5), _square(0.5, 0.5)], 1.0),
        ([_square(0.1, 0.2, (np.cos(1.0), np.sin(1.0)))] * 3, 1.0),
        # edge-adjacent squares: the shared edge has opposite normals
        ([_square(0.5, 0.5), _square(1.5, 0.5)], 2.0),
        # a square and its 45 degree rotation about the common center
        ([_square(0.0, 0.0), _square(0.0, 0.0, np.sqrt([0.5, 0.5]))],
         4.0 - 2.0 * np.sqrt(2.0)),
        # nested, strictly inside and sharing three edges, in both orders
        ([_square(0.5, 0.5), _square(0.5, 0.5, length=0.5, width=0.5)], 1.0),
        ([_square(0.5, 0.5, length=0.5, width=0.5), _square(0.5, 0.5)], 1.0),
        ([_square(0.5, 0.5), _square(0.25, 0.5, width=0.5)], 1.0),
        ([_square(0.25, 0.5, width=0.5), _square(0.5, 0.5)], 1.0),
        # a direction 1e-13 off unit length, which Rect2 accepts: the sides
        # of the drawn square are |u| long
        ([_square(0.0, 0.0, (1.0 + 1e-13, 0.0))] * 2, (1.0 + 1e-13)**2),
    ])
    def test_closed_form_oracles(self, rects, expected):
        m, err = bs.union_measure(rects, 1.0)
        assert err <= 1e-12
        assert abs(m - expected) <= err

    def test_random_rotated_families_against_monte_carlo(self):
        rng = np.random.default_rng(20240)
        for seed in range(6):
            n = int(rng.integers(2, 12))
            angles = rng.uniform(0.0, np.pi, n)
            rects = [
                bs.Rect2(center=rng.uniform(-1.0, 1.0, 2),
                         direction=[np.cos(a), np.sin(a)],
                         length=rng.uniform(0.2, 1.5),
                         width=rng.uniform(0.05, 1.0))
                for a in angles
            ]
            m, err = bs.union_measure(rects, 1.0)
            est, stderr = mc_union_measure(rects, 200_000, seed=seed)
            assert abs(m - est) <= err + 4 * stderr

    @pytest.mark.parametrize("k", range(1, 9))
    def test_invariant_under_permutation_reflection_translation(self, k):
        rects = list(bs.build_perron_rectangles(k).rects)
        m, err = bs.union_measure(rects, 1.0)
        order = np.random.default_rng(k).permutation(len(rects))
        swap = np.array([1, 0])
        variants = [
            [rects[i] for i in order],
            [bs.Rect2(r.center[swap], r.direction[swap], r.length, r.width)
             for r in rects],
            [r.translated(np.array([2.0, -0.75])) for r in rects],
        ]
        for variant in variants:
            m2, err2 = bs.union_measure(variant, 1.0)
            assert abs(m2 - m) <= err + err2

    def test_k8_bound_is_tiny(self):
        m, err = bs.union_measure(bs.build_perron_rectangles(8), 2**-14)
        assert err <= 1e-9
        assert (m + err) - m == err      # eps_hat = m + err is exact

    def test_edge_blocks_bound_memory(self):
        # a block holds about _BLOCK_VALUES live values in all, so the peak
        # stays near 32 MB however many edges there are
        fam = bs.build_perron_rectangles(9)
        tracemalloc.start()
        try:
            bs.union_measure(fam, bs.UNION_RESOLUTION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * bs._BLOCK_VALUES * 8

    def test_eps_hat_exact_across_a_power_of_two(self):
        # measure just below 1, measure + bound above it
        rects = [_square(0.5, 0.5, (np.cos(0.35), np.sin(0.35)),
                         length=1.25, width=0.8)] * 2
        m, err = bs.union_measure(rects, 1.0)
        assert m < 1.0 < m + err
        assert Fraction(m + err) - Fraction(m) == Fraction(err)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_bound_holds_against_exact_rationals(self, k):
        fam = bs.build_perron_rectangles(k)
        m, err = bs.union_measure(fam, bs.UNION_RESOLUTION)
        assert abs(Fraction(m) - exact_union_measure(fam)) <= Fraction(err)

    def test_exact_oracle_closed_forms(self):
        # a 45 degree rotation holds no exact rational unit direction, so the
        # oracle's square has sides |u| long
        u = np.sqrt([0.5, 0.5])
        assert exact_union_measure([_square(0.0, 0.0, u)]) == (
            Fraction(u[0]) ** 2 + Fraction(u[1]) ** 2)
        # a square strictly inside another, then two overlapping in a corner
        assert exact_union_measure([
            _square(0.5, 0.5, length=0.5, width=0.5), _square(0.5, 0.5)]) == 1
        assert exact_union_measure([_square(0.5, 0.5),
                                    _square(1.0, 1.0)]) == Fraction(7, 4)
        # a copy lies on its original's side lines: the tie rule is not
        # modelled
        with pytest.raises(ValueError):
            exact_union_measure([_square(0.5, 0.5)] * 2)

    def test_invalid_resolution(self):
        fam = bs.build_perron_rectangles(1)
        with pytest.raises(ValueError):
            bs.union_measure(fam, 0.0)


@pytest.fixture(scope="module")
def boxes_k3():
    return bs.build_boxes(bs.build_perron_rectangles(3))


class TestBoxFamilies:

    def test_volumes(self, boxes_k3):
        n = boxes_k3.n_boxes
        for e_box, f_box in zip(boxes_k3.boxes_e, boxes_k3.boxes_f):
            assert e_box.volume() == pytest.approx(1.0 / n, abs=1e-15)
            assert f_box.volume() == pytest.approx(1.0 / (2 * n), abs=1e-15)
        total = sum(b.volume() for b in boxes_k3.boxes_f_shifted)
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_axes_orthonormal(self, boxes_k3):
        for f_box in boxes_k3.boxes_f:
            gram = f_box.axes @ f_box.axes.T
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12

    def test_f_side_along_light_ray(self, boxes_k3):
        for f_box, ntilde in zip(boxes_k3.boxes_f, boxes_k3.normals):
            unit = ntilde / np.sqrt(2.0)
            assert abs(abs(f_box.axes[0] @ unit) - 1.0) <= 1e-12

    def test_f_inside_e(self, boxes_k3):
        for e_box, f_box in zip(boxes_k3.boxes_e, boxes_k3.boxes_f):
            assert np.all(e_box.contains(f_box.vertices(), slack=1e-12))

    def test_geometry_check_passes(self, boxes_k3):
        report = bs.box_geometry_check(boxes_k3)
        assert report["all_passed"], report

    def test_geometry_check_k1_and_k8(self):
        for k in (1, 8):
            boxes = bs.build_boxes(bs.build_perron_rectangles(k))
            report = bs.box_geometry_check(boxes)
            assert report["all_passed"], (k, report)
            assert report["max_vertex_norm"] <= 20.0

    def test_geometry_check_k10(self):
        boxes = bs.build_boxes(bs.build_perron_rectangles(10))
        report = bs.box_geometry_check(boxes)
        assert report["all_passed"], report

    def test_box_family_keeps_its_rectangle_family(self):
        family = bs.build_perron_rectangles(3)
        boxes = bs.build_boxes(family)
        assert boxes.family is family and boxes.k == family.k == 3

    def test_rectangles_of_other_sides_are_refused(self):
        # translates_disjoint passes these, but boxes of width 1/N would not
        # be E_j = [0,1] x R_j
        family = bs.build_perron_rectangles(3)
        rects = list(family.rects)
        for j, side in ((0, {"width": 0.1}), (5, {"length": 0.9})):
            rects[j] = dataclasses.replace(rects[j], **side)
        planted = dataclasses.replace(family, rects=tuple(rects))
        assert bs.translates_disjoint(planted)
        with pytest.raises(ValueError, match="rectangle 0 is 1.0 x 0.1;"):
            bs.build_boxes(planted)
        rects[0] = family.rects[0]
        with pytest.raises(ValueError, match="rectangle 5 is 0.9 x 0.125;"):
            bs.build_boxes(dataclasses.replace(family, rects=tuple(rects)))

    @pytest.mark.parametrize("plant", ["copied_rectangle", "displaced_translate"])
    def test_translate_overlap_is_caught(self, plant):
        # F_j + 5 ntilde_j lies in E_j + 5 ntilde_j = [-5,-4] x (R_j + 5 u_j):
        # the box check reads the family's verdict, so an overlap planted in
        # the family or among the box translates must still turn it False
        family = bs.build_perron_rectangles(3)
        if plant == "copied_rectangle":
            rects = list(family.rects)
            rects[5] = rects[2]
            boxes = bs.build_boxes(
                dataclasses.replace(family, rects=tuple(rects)))
        else:
            boxes = bs.build_boxes(family)
            shifted = list(boxes.boxes_f_shifted)
            # translate 5 moved onto the center of translate 2
            shifted[5] = shifted[5].translated(
                shifted[2].center - shifted[5].center)
            boxes = dataclasses.replace(boxes, boxes_f_shifted=tuple(shifted))
        # the LP oracle sees two box translates overlapping
        assert _lp_margin(boxes.boxes_f_shifted[2],
                          boxes.boxes_f_shifted[5]) > 1e-3
        report = bs.box_geometry_check(boxes)
        assert not report["translates_disjoint"]
        assert not report["all_passed"]


class TestSerialization:
    def test_json_round_trip(self):
        fam = bs.build_perron_rectangles(3)
        doc = json.loads(bs.family_to_json(fam))
        assert doc["schema_version"] == bs.SCHEMA_VERSION
        assert doc["k"] == fam.k and doc["n_rects"] == fam.n_rects
        assert len(doc["rects"]) == fam.n_rects
        for rect, written in zip(fam.rects, doc["rects"]):
            assert np.array_equal(rect.center, written["center"])
            assert np.array_equal(rect.direction, written["direction"])

    def test_json_is_deterministic(self):
        fam = bs.build_perron_rectangles(2)
        assert bs.family_to_json(fam) == bs.family_to_json(fam)

    def test_svg_smoke(self):
        fam = bs.build_perron_rectangles(2)
        svg = bs.family_to_svg(fam)
        assert svg.startswith("<svg") and svg.count("<polygon") == 8


class TestBoxSerialization:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_union_of_boxes_is_union_of_their_family(self, k):
        family = bs.build_perron_rectangles(k)
        boxes = bs.build_boxes(family)
        assert (bs.union_measure(boxes, bs.UNION_RESOLUTION)
                == bs.union_measure(family, bs.UNION_RESOLUTION))

    def test_union_measure_accepts_box_family(self):
        family = bs.build_perron_rectangles(3)
        boxes = bs.build_boxes(family)
        m_rects, err_rects = bs.union_measure(family, 2**-12)
        m_boxes, err_boxes = bs.union_measure(boxes, 2**-12)
        assert m_boxes == pytest.approx(m_rects, abs=err_rects + err_boxes)
