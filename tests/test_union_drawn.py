"""Drawn rectangle families against the exact rational union measure."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conekit import besicovitch as bs
from oracles import exact_union_measure

# Pythagorean triples (a, b, c): the direction (a, b) / c is unit up to
# rounding.  Those near 45 degrees, and the steep ones near the axis
# direction (0, 1), give edges parallel to within 1e-4 to 1e-6 rad.
TRIPLES = [(0, 1, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29),
           (119, 120, 169), (696, 697, 985), (4059, 4060, 5741),
           (23660, 23661, 33461), (137903, 137904, 195025),
           (199, 19800, 19801), (2000001, 2000002000000, 2000002000001)]


@st.composite
def rectangles(draw):
    a, b, c = draw(st.sampled_from(TRIPLES))
    # the triple's four quarter turns and their mirror images
    x, y = draw(st.sampled_from([(a, b), (b, a), (-a, b), (-b, a),
                                 (a, -b), (b, -a), (-a, -b), (-b, -a)]))
    # dyadic centers and sides, exact in floats
    center = [draw(st.integers(-32, 32)) / 64 for _ in range(2)]
    return bs.Rect2(center=center, direction=[x / c, y / c],
                    length=draw(st.integers(8, 64)) / 32,
                    width=draw(st.integers(1, 32)) / 32)


def measure_and_exact(rects):
    """union_measure's (measure, bound) and the exact rational measure, or
    None where the oracle refuses an edge on another rectangle's side
    line."""
    try:
        exact = exact_union_measure(rects)
    except ValueError:
        return None
    return (*bs.union_measure(rects, bs.UNION_RESOLUTION), exact)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(rectangles(), min_size=2, max_size=6))
def test_drawn_families_within_bound_of_exact(rects):
    result = measure_and_exact(rects)
    assume(result is not None)
    measure, bound, exact = result
    assert np.isfinite(measure) and bound > 0
    assert abs(Fraction(measure) - exact) <= Fraction(bound)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(rectangles(), min_size=2, max_size=6))
def test_drawn_families_do_not_depend_on_the_block(rects):
    # a block is r whole rectangles, from one rectangle to all of them
    expected = bs.union_measure(rects, bs.UNION_RESOLUTION)
    with pytest.MonkeyPatch.context() as patch:
        for r in range(1, len(rects) + 1):
            patch.setattr(bs, "_UNION_VALUES", 64 * len(rects) * r)
            assert bs.union_measure(rects, bs.UNION_RESOLUTION) == expected
