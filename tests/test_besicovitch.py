"""Tests for the rectangle families, 3D boxes and measure estimators."""

import dataclasses
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conekit import besicovitch as bs
from conekit.errors import ConstructionFailedError
from oracles import (boxes_intersect, exact_union_measure, lift_per_box,
                     mc_union_measure, rect_vertices)


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

    def test_nan_direction_is_refused(self):
        with pytest.raises(ValueError, match="unit vector"):
            bs.Rect2(center=[0.0, 0.0], direction=[np.nan, 1.0], length=1.0,
                     width=0.25)

    def test_directions_distinct_and_unit(self):
        fam = bs.build_perron_rectangles(5)
        dirs = np.array([r.direction for r in fam.rects])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        angles = np.arctan2(dirs[:, 0], dirs[:, 1])
        assert np.all(np.diff(np.sort(angles)) > 0)

    def test_family_inside_ball(self):
        fam = bs.build_perron_rectangles(6)
        verts = np.concatenate(
            [rect_vertices(r) for r in fam.rects]
            + [rect_vertices(r) for r in fam.translates()]
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

    @pytest.mark.parametrize("k", [2.5, 3.0, True, False, "3", None,
                                   np.int64(3)])
    def test_level_of_other_type_is_refused(self, k):
        # 2.5 used to fail inside numpy, and True built a 2-rectangle family
        # whose k was True
        with pytest.raises(ValueError, match="integer in 1..12"):
            bs.build_perron_rectangles(k)

    @pytest.mark.parametrize("center, length, width, message", [
        ([np.nan, 0.0], 1.0, 0.25, "center must be finite"),
        ([0.0, np.inf], 1.0, 0.25, "center must be finite"),
        ([0.0, 0.0], 1.0, -0.5, "positive and finite"),
        ([0.0, 0.0], 0.0, 0.25, "positive and finite"),
        ([0.0, 0.0], np.inf, 0.25, "positive and finite"),
        ([0.0, 0.0], 1.0, np.nan, "positive and finite"),
    ])
    def test_rectangle_of_bad_fields_is_refused(self, center, length, width,
                                                message):
        # a width of -0.5 used to be accepted, and its union measured -0.5
        with pytest.raises(ValueError, match=message):
            bs.Rect2(center=center, direction=[0.0, 1.0], length=length,
                     width=width)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_frames_and_vertices_match_each_rectangle(self, k):
        family = bs.build_perron_rectangles(k)
        rects, translates = family.rects, family.translates()
        assert np.array_equal(family.centers, [r.center for r in rects])
        assert np.array_equal(family.axes,
                              [[r.direction, r.normal] for r in rects])
        assert np.array_equal(family.halves,
                              [[r.length / 2, r.width / 2] for r in rects])
        assert np.array_equal(family.translate_centers(),
                              [r.center for r in translates])
        verts = family.vertices()
        assert np.array_equal(verts[0], [rect_vertices(r) for r in rects])
        assert np.array_equal(verts[1],
                              [rect_vertices(r) for r in translates])

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
        # small blocks, so the k = 8 candidate pairs span several of them;
        # lifted, the box check must read the same verdict
        monkeypatch.setattr(bs, "_BLOCK_VALUES", 2**16)
        family = bs.build_perron_rectangles(8)
        blocks = list(bs._sat_candidates(*_translate_frames(family)))
        assert len(blocks) > 2
        for i, j in ((block[0][p], block[1][p]) for block in blocks
                     for p in (0, -1)):
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
            batched = bs._sat_overlap(*bs._frames(rects),
                                      *np.triu_indices(len(rects), 1))
            expected = [boxes_intersect(a, b)
                        for a, b in itertools.combinations(rects, 2)]
            assert batched.tolist() == expected
            outcomes.update(expected)
        assert outcomes == {True, False}


def _translate_frames(family):
    return family.translate_centers(), family.axes, family.halves


def _all_pairs_overlap(family):
    """The separating-axis kernel on every pair i < j of the family's
    translates, in triu order, 2^16 pairs at a time."""
    i, j = np.triu_indices(family.n_rects, 1)
    frames = _translate_frames(family)
    return np.concatenate([
        bs._sat_overlap(*frames, i[s:s + 2**16], j[s:s + 2**16])
        for s in range(0, len(i), 2**16)])


def _pruned_matches_all_pairs(family):
    """Assert that the sweep keeps every pair the all-pairs kernel calls
    overlapping, each as (i, j) with i < j, and that translates_disjoint
    reads the all-pairs verdict; returns the all-pairs verdicts."""
    overlap = _all_pairs_overlap(family)
    blocks = list(bs._sat_candidates(*_translate_frames(family)))
    candidates = {pair for i, j in blocks for pair in zip(i.tolist(),
                                                          j.tolist())}
    assert all(i < j for i, j in candidates)
    assert sum(len(i) for i, _ in blocks) == len(candidates)
    i, j = np.triu_indices(family.n_rects, 1)
    assert set(zip(i[overlap].tolist(), j[overlap].tolist())) <= candidates
    assert bs.translates_disjoint(family) == (not overlap.any())
    return overlap


@st.composite
def _borderline_families(draw):
    """2..6 rectangles of any orientation, with dyadic centers and sides,
    and maybe a neighbour of one of them: a copy, or a copy moved by one of
    its sides along that side's axis, so that it touches (exactly when the
    rectangle is axis-parallel, whose x-extents then touch) or overlaps by
    one ulp of the center.  Returns the planted kind, the index of the
    rectangle it neighbours and the family."""
    rects = []
    for _ in range(draw(st.integers(2, 6))):
        direction = draw(st.one_of(
            st.sampled_from([(0.0, 1.0), (1.0, 0.0)]),
            st.floats(0.0, 2 * np.pi).map(lambda t: (np.sin(t), np.cos(t)))))
        rects.append(bs.Rect2(
            center=[draw(st.integers(-32, 32)) / 64 for _ in range(2)],
            direction=direction, length=draw(st.integers(8, 64)) / 32,
            width=draw(st.integers(1, 32)) / 32))
    plant = draw(st.sampled_from(["touch", "ulp", "copy", None]))
    source = draw(st.integers(0, len(rects) - 1))
    if plant:
        r = rects[source]
        axis, side = draw(st.sampled_from([(r.direction, r.length),
                                           (r.normal, r.width)]))
        center = r.center + (plant != "copy") * side * axis
        if plant == "ulp":
            center = np.nextafter(center, r.center)
        rects.append(dataclasses.replace(r, center=center))
    return plant, source, bs.RectangleFamily(k=1, rects=tuple(rects))


class TestSweepAndPrune:
    """translates_disjoint tests only the pairs whose x-extents meet; its
    verdict must be the all-pairs verdict of the same kernel."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_perron_families_match_all_pairs(self, k):
        family = bs.build_perron_rectangles(k)
        assert not _pruned_matches_all_pairs(family).any()

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_borderline_families())
    def test_drawn_families_match_all_pairs(self, drawn):
        plant, source, family = drawn
        overlap = _pruned_matches_all_pairs(family)
        if plant is None:
            return
        # the borderline draws against the independent LP oracle: verdicts
        # clear of the border agree, and the planted pair is on the border
        # unless it is a copy
        translates, last = family.translates(), family.n_rects - 1
        for i, j, got in zip(*np.triu_indices(family.n_rects, 1), overlap):
            margin = _lp_margin(translates[i], translates[j])
            if abs(margin) >= 1e-9:
                assert got == (margin > 0), (i, j, margin)
            if (i, j) == (source, last):
                assert margin > 1e-3 if plant == "copy" else (
                    abs(margin) <= 1e-9), (plant, margin)

    @pytest.mark.parametrize("ends", [(0, 1), (-2, -1), (0, -1)])
    def test_planted_overlap_at_the_ends_of_the_sweep(self, ends):
        # the translate first, last or both in the sweep's order is copied
        family = bs.build_perron_rectangles(8)
        reach = np.sum(family.halves * np.abs(family.axes[..., 0]), axis=1)
        order = np.argsort(family.translate_centers()[:, 0] - reach,
                           kind="stable")
        i, j = order[list(ends)]
        rects = list(family.rects)
        rects[j] = rects[i]
        planted = dataclasses.replace(family, rects=tuple(rects))
        assert _pruned_matches_all_pairs(planted).sum() == 1
        assert not bs.translates_disjoint(planted)

    @pytest.mark.parametrize("nudge, disjoint", [(0, True), (-1, False)])
    def test_translates_whose_x_extents_touch(self, nudge, disjoint):
        # axis-parallel neighbours a width apart touch, in x and in the
        # plane; one ulp closer they overlap
        left = _square(0.25, 0.5, width=0.125)
        x = 0.375 if nudge == 0 else np.nextafter(0.375, 0.0)
        family = bs.RectangleFamily(k=1, rects=(
            left, dataclasses.replace(left, center=np.array([x, 0.5]))))
        assert bs.translates_disjoint(family) is disjoint
        assert _pruned_matches_all_pairs(family).tolist() == [not disjoint]

    def test_margin_keeps_a_pair_one_ulp_apart_in_x(self):
        # mirror images meeting at a vertex: their x-extents round one ulp
        # apart, yet the kernel, within its own rounding, reads an overlap;
        # pruned without the margin, the pair would read disjoint
        u = np.array([0.06395631828030929, 0.99795269895523])
        a = bs.Rect2(center=[0.0, 0.0], direction=u, length=1.0, width=0.5)
        b = bs.Rect2(center=[1.2024958505610173, 0.0], direction=u * [-1, 1],
                     length=1.0, width=0.5)
        family = bs.RectangleFamily(k=1, rects=(a, b))
        centers, axes, halves = _translate_frames(family)
        reach = np.sum(halves * np.abs(axes[..., 0]), axis=1)
        assert centers[1, 0] - reach[1] == np.nextafter(
            centers[0, 0] + reach[0], np.inf)
        assert _pruned_matches_all_pairs(family).tolist() == [True]

    def test_k8_tests_a_tenth_of_the_pairs(self, monkeypatch):
        # a silent fallback to all pairs would hand the kernel 32,640
        family = bs.build_perron_rectangles(8)
        kernel, tested = bs._sat_overlap, []

        def counted(centers, axes, halves, i, j):
            tested.append(len(i))
            return kernel(centers, axes, halves, i, j)

        monkeypatch.setattr(bs, "_sat_overlap", counted)
        assert bs.translates_disjoint(family)
        n = family.n_rects
        assert 0 < sum(tested) <= 0.1 * n * (n - 1) // 2

    @pytest.mark.parametrize("block_values", [None, 2**18])
    def test_pair_blocks_bound_memory(self, monkeypatch, block_values):
        # a block holds at most _BLOCK_VALUES live values, so the peak stays
        # near 2 _BLOCK_VALUES doubles however many candidates there are
        if block_values:
            monkeypatch.setattr(bs, "_BLOCK_VALUES", block_values)
        family = bs.build_perron_rectangles(10)
        tracemalloc.start()
        try:
            assert bs.translates_disjoint(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * bs._BLOCK_VALUES * 8


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


# float.hex of union_measure's (measure, bound) on build_perron_rectangles(k)
UNION_HEX = {
    1: ("0x1.2574eb60abff0p-1", "0x1.3fc0000000000p-43"),
    2: ("0x1.5f31b2c8ac9e0p-2", "0x1.2430000000000p-41"),
    3: ("0x1.c702c909a4af2p-3", "0x1.023e000000000p-39"),
    4: ("0x1.41072adb717c6p-3", "0x1.7f92800000000p-38"),
    5: ("0x1.f0eac15f5bffdp-4", "0x1.1af5400000000p-36"),
    6: ("0x1.9ec9da3c19337p-4", "0x1.7994000000000p-35"),
    7: ("0x1.685424c46f12cp-4", "0x1.5589740000000p-33"),
    8: ("0x1.412e3c867db9cp-4", "0x1.56f99b8000000p-31"),
    9: ("0x1.239e57d8d1c3ep-4", "0x1.5ff9ae4000000p-29"),
    10: ("0x1.0c9dde36a893ap-4", "0x1.5fe49fc000000p-27"),
}


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
        # a block holds about _UNION_VALUES live values in all, so the peak
        # stays near 2 MB however many edges there are
        fam = bs.build_perron_rectangles(9)
        tracemalloc.start()
        try:
            bs.union_measure(fam, bs.UNION_RESOLUTION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * bs._UNION_VALUES * 8

    @pytest.mark.parametrize("k", range(1, 11))
    def test_union_bits_are_pinned(self, k):
        m, err = bs.union_measure(bs.build_perron_rectangles(k),
                                  bs.UNION_RESOLUTION)
        assert (m.hex(), err.hex()) == UNION_HEX[k]

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_union_bits_do_not_depend_on_the_block(self, monkeypatch, k):
        # a block is r whole rectangles, 4r edges: every r at k = 6, and at
        # k = 7, 8 the one-rectangle block, odd blocks with a remainder, the
        # default block and one block of every edge
        fam = bs.build_perron_rectangles(k)
        n = fam.n_rects
        default = bs._UNION_VALUES // (64 * n)
        expected = bs.union_measure(fam, bs.UNION_RESOLUTION)
        sizes = set()
        coverage = bs._edge_coverage

        def recording(axes, offsets, halves, starts, *rest):
            sizes.add(len(starts))
            return coverage(axes, offsets, halves, starts, *rest)

        monkeypatch.setattr(bs, "_edge_coverage", recording)
        for r in (range(1, n + 1) if k == 6
                  else (1, 3, 5, default, n - 1, n)):
            monkeypatch.setattr(bs, "_UNION_VALUES", 64 * n * r)
            assert bs.union_measure(fam, bs.UNION_RESOLUTION) == expected, r
        # every block size the kernel can produce is a multiple of 4
        assert sizes <= set(range(4, 4 * n + 1, 4))
        if k == 6:
            assert sizes == set(range(4, 4 * n + 1, 4))

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
        # NaN used to pass the guard
        with pytest.raises(ValueError, match="resolution must be positive"):
            bs.union_measure(fam, np.nan)

    def test_empty_union_measures_zero(self):
        # used to raise numpy's "axes don't match array"
        empty = bs.RectangleFamily(k=0, rects=())
        for shapes in ([], (), empty):
            assert bs.union_measure(shapes, 1.0) == (0.0, 0.0)


@pytest.fixture(scope="module")
def boxes_k3():
    return bs.build_boxes(bs.build_perron_rectangles(3))


class TestBoxFamilies:

    def test_volumes(self, boxes_k3):
        n = boxes_k3.n_boxes
        for e_box, f_box in zip(boxes_k3.boxes_e, boxes_k3.boxes_f):
            assert e_box.volume() == pytest.approx(1.0 / n, abs=1e-15)
            assert f_box.volume() == pytest.approx(1.0 / (2 * n), abs=1e-15)
        total = sum(b.volume() for b in boxes_k3.f_shifted.boxes)
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

    def test_empty_family_is_refused(self):
        with pytest.raises(ValueError, match="family is empty"):
            bs.build_boxes(bs.RectangleFamily(k=0, rects=()))

    @pytest.mark.parametrize("k", [*range(1, 9), "shuffled 7"])
    def test_stacks_match_per_box_lift(self, k):
        if k == "shuffled 7":
            # the box check's input in the geometry benchmark
            family = bs.build_perron_rectangles(7)
            order = list(range(family.n_rects))
            random.Random(0).shuffle(order)
            family = dataclasses.replace(
                family, rects=tuple(family.rects[i] for i in order))
        else:
            family = bs.build_perron_rectangles(k)
        boxes = bs.build_boxes(family)
        *lifted, normals = lift_per_box(family)
        for stack, per_box in zip((boxes.e, boxes.f, boxes.f_shifted),
                                  lifted):
            for name in ("center", "axes", "half_extents"):
                assert np.array_equal(getattr(stack, name),
                                      [getattr(b, name) for b in per_box])
            assert np.array_equal(stack.volume(),
                                  [b.volume() for b in per_box])
            assert np.array_equal(stack.vertices(),
                                  [b.vertices() for b in per_box])
        assert np.array_equal(boxes.normals, normals)
        assert np.array_equal(boxes.light_rays, normals * [-1.0, 1.0, 1.0])
        # the Box3 tuples, built on first access, are the same boxes
        for built, per_box in zip((boxes.boxes_e, boxes.boxes_f,
                                   boxes.f_shifted.boxes), lifted):
            assert all(np.array_equal(a.center, b.center)
                       and np.array_equal(a.axes, b.axes)
                       and np.array_equal(a.half_extents, b.half_extents)
                       for a, b in zip(built, per_box, strict=True))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_stack_rows_match_their_boxes(self, k):
        # a stack and its one-box rows run the same methods to the same bits
        boxes = bs.build_boxes(bs.build_perron_rectangles(k))
        for stack, rows in zip((boxes.e, boxes.f, boxes.f_shifted),
                               (boxes.boxes_e, boxes.boxes_f,
                                boxes.f_shifted.boxes)):
            verts = stack.vertices()
            # every vertex, one ulp inside and one ulp outside its box
            centers = stack.center[:, None, :]
            pts = np.concatenate([verts, np.nextafter(verts, centers),
                                  np.nextafter(verts, 2.0 * verts - centers),
                                  centers], axis=1).reshape(-1, 3)
            stacked = np.broadcast_to(pts, (len(rows), *pts.shape))
            inside = {slack: stack.contains(stacked, slack)
                      for slack in (0.0, 1e-12)}
            assert inside[0.0].any() and not inside[0.0].all()
            for j, box in enumerate(rows):
                assert stack.volume()[j] == box.volume()
                assert np.array_equal(verts[j], box.vertices())
                for slack, verdict in inside.items():
                    assert np.array_equal(verdict[j],
                                          box.contains(pts, slack))

    @pytest.mark.parametrize("field, j, change, message", [
        ("center", 5, lambda row: row * np.nan, "center must be finite"),
        ("axes", 3, lambda row: row * 1.001, "orthonormal"),
        ("axes", 7, lambda row: row[[1, 1, 2]], "orthonormal"),
        ("half_extents", 2, lambda row: row * 0.0, "positive"),
        ("half_extents", 0, lambda row: row * np.inf, "finite"),
    ])
    def test_stack_with_one_bad_box_is_refused(self, boxes_k3, field, j,
                                               change, message):
        # the stack is checked once, as a whole, with Box3's invariants
        stack = boxes_k3.f
        values = getattr(stack, field).copy()
        values[j] = change(values[j])
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(stack, **{field: values})

    def test_rectangle_of_nan_length_is_refused(self):
        # Rect2 itself refuses the length, before any family or box is built
        family = bs.build_perron_rectangles(3)
        with pytest.raises(ValueError, match="positive and finite"):
            rects = (dataclasses.replace(family.rects[0], length=np.nan),
                     *family.rects[1:])
            bs.build_boxes(dataclasses.replace(family, rects=rects))

    @pytest.mark.parametrize("axes, half_extents, message", [
        ([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         [0.5, 0.5, 0.5], "orthonormal"),
        (np.eye(3), [0.5, np.nan, 0.5], "positive"),
        (np.eye(3), [0.5, np.inf, 0.5], "finite"),
        (np.eye(3), [np.inf, np.inf, np.inf], "finite"),
    ])
    def test_nan_box_is_refused(self, axes, half_extents, message):
        with pytest.raises(ValueError, match=message):
            bs.Box3(np.zeros(3), axes, half_extents)

    @pytest.mark.parametrize("center", [
        [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
    def test_nonfinite_center_is_refused(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            bs.Box3(center, np.eye(3), [0.5, 0.5, 0.5])

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
            centers = boxes.f_shifted.center.copy()
            # translate 5 moved onto the center of translate 2
            centers[5] = centers[2]
            boxes = dataclasses.replace(boxes, f_shifted=dataclasses.replace(
                boxes.f_shifted, center=centers))
        # the LP oracle sees two box translates overlapping
        assert _lp_margin(boxes.f_shifted.boxes[2],
                          boxes.f_shifted.boxes[5]) > 1e-3
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
