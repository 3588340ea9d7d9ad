"""Tests for the multiplier engine: closed forms, the FFT path, and the
square-function experiment."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from conekit import besicovitch as bs
from conekit import multiplier as mp
from conekit.errors import BudgetExceededError, SingularPointError
from oracles import (box_contains_row_major, cone_dilation_probe, embed,
                     gaussian_box_probe, lift_per_box, pair_loop_moment,
                     translate_image_per_box)


@pytest.fixture(scope="module")
def boxes_k1():
    return bs.build_boxes(bs.build_perron_rectangles(1))


@pytest.fixture(scope="module")
def boxes_k3():
    return bs.build_boxes(bs.build_perron_rectangles(3))


def _reference_symbol(symbol, freq_axes, shift):
    """The boundary rule as two passes over a dense frequency mesh."""
    mesh = np.meshgrid(*freq_axes, indexing="ij")
    shift = np.zeros(len(mesh)) if shift is None else shift
    if isinstance(symbol, mp.HalfSpace):
        g = sum(-(m + s) * c for m, s, c in zip(mesh, shift, symbol.normal))
    else:
        rest = sum((m + s) ** 2 for m, s in zip(mesh[1:], shift[1:]))
        g = mesh[0] + shift[0] - np.sqrt(rest)
    out = np.where(g > mp.BOUNDARY_TOL, 1.0, 0.0)
    return np.where(np.abs(g) <= mp.BOUNDARY_TOL, mp.BOUNDARY_VALUE, out)


def _full_grid(grid, value):
    """``value(points)`` at every grid point, one plane of the first axis at
    a time: the full-grid evaluation the support-restricted builders skip."""
    x = grid.axis()
    m = x.shape[0]
    planes = []
    for x0 in x:
        mesh = np.stack(np.meshgrid([x0], x, x, indexing="ij"), axis=-1)
        planes.append(np.reshape(value(mesh.reshape(-1, 3)), (m, m)))
    return np.stack(planes)


class TestHalflineClosedForm:
    def test_reference_value(self):
        v = mp.halfline_projection_1d(-0.5, 0.5, 1.0)
        assert abs(v) == pytest.approx(np.log(3.0) / (2 * np.pi), rel=1e-12)

    def test_midpoint_value_is_half(self):
        assert mp.halfline_projection_1d(-0.5, 0.5, 0.0) == pytest.approx(0.5)

    def test_decay_at_infinity(self):
        far = abs(mp.halfline_projection_1d(-0.5, 0.5, 1e8))
        assert far < 1e-8

    def test_lower_bound_scan(self):
        # |P(1_[-1/2,1/2])(t)| >= c/|t| with c = (b-a)/(4 pi), |t| >= 0.501
        t = np.linspace(0.501, 100.0, 50_000)
        vals = np.abs(mp.halfline_projection_1d(-0.5, 0.5, t))
        c = 1.0 / (4.0 * np.pi)
        assert np.all(vals >= c / t)

    def test_endpoint_is_singular(self):
        with pytest.raises(SingularPointError):
            mp.halfline_projection_1d(-0.5, 0.5, 0.5)

    def test_periodic_form_matches_line_form_for_large_period(self):
        t = np.linspace(0.6, 3.0, 200)
        line = mp.halfline_projection_1d(-0.5, 0.5, t)
        per = mp.halfline_projection_periodic(-0.5, 0.5, t, 1e6)
        assert np.max(np.abs(line - per)) < 1e-5

    @pytest.mark.parametrize("a, b, period", [
        (-0.5, 0.5, np.nan), (-0.5, 0.5, np.inf), (-0.5, 0.5, 1.0),
        (0.5, -0.5, 64.0), (np.nan, 0.5, 64.0)])
    def test_periodic_form_refuses_bad_interval_or_period(self, a, b, period):
        # a NaN period used to return NaN samples, an infinite one to raise
        # SingularPointError
        with pytest.raises(ValueError, match="period < inf"):
            mp.halfline_projection_periodic(a, b, np.array([1.0, 2.0]),
                                            period)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_refused(self, bad):
        # the logarithm of a non-finite t is NaN or inf; only the guard
        # refuses it
        for t in (bad, np.array([1.0, bad, 2.0])):
            with pytest.raises(ValueError, match="finite t"):
                mp.halfline_projection_1d(-0.5, 0.5, t)
            with pytest.raises(ValueError, match="finite t"):
                mp.halfline_projection_periodic(-0.5, 0.5, t, 64.0)

    @pytest.mark.parametrize("a, b", [(-np.inf, 0.5), (-0.5, np.inf),
                                      (np.nan, 0.5), (0.5, -0.5)])
    def test_infinite_or_reversed_interval_refused(self, a, b):
        # at an infinite end the imaginary part is inf, and 1j * inf has
        # the real part 0 * inf = NaN
        with pytest.raises(ValueError, match="finite a < b"):
            mp.halfline_projection_1d(a, b, 1.0)


class TestFFTPath:
    def test_identity_symbol(self):
        g = mp.indicator_interval(32.0, 2**14, -0.5, 0.5)
        plus = mp.fft_multiplier_apply(g, mp.HalfSpace((-1.0,)))
        minus = mp.fft_multiplier_apply(g, mp.HalfSpace((1.0,)))
        assert np.max(np.abs(plus.values + minus.values - g.values)) < 1e-12

    def test_idempotence_on_mean_zero_data(self):
        # the 1/2 boundary rule is not a projection on the DC mode, so the
        # idempotence identity is exact on data with no boundary-lattice mass
        g = mp.GridFunction(np.zeros(2**14), 32.0)
        x = g.axis()
        f = g.with_values((np.exp(-(x**2)) * np.exp(4j * np.pi * x)))
        once = mp.fft_multiplier_apply(f, mp.HalfSpace((-1.0,)))
        twice = mp.fft_multiplier_apply(once, mp.HalfSpace((-1.0,)))
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_parseval_contraction(self):
        rng = np.random.default_rng(71)
        g = mp.GridFunction(np.zeros(2**12), 16.0)
        f = g.with_values(rng.normal(size=2**12) + 1j * rng.normal(size=2**12))
        for symbol in (mp.HalfSpace((-1.0,)), mp.HalfSpace((0.3,))):
            out = mp.fft_multiplier_apply(f, symbol)
            assert out.norm_l2() <= f.norm_l2() * (1 + 1e-12)

    def test_peak_memory_is_spectrum_and_symbol(self, boxes_k1):
        # beside the input, the complex spectrum and the float symbol: 2.06
        # grids measured at 64^3, with the product and inverse in place
        f = embed(mp.indicator_box(boxes_k1.boxes_f[0], 12.0, 64), 64, 12.0)
        tracemalloc.start()
        try:
            mp.fft_multiplier_apply(f, mp.HalfSpace(tuple(boxes_k1.normals[0])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 64**3 * 16

    def test_support_violation_rejected(self):
        g = mp.indicator_interval(1.0, 2**10, -0.9, 0.9)
        with pytest.raises(ValueError):
            mp.fft_multiplier_apply(g, mp.HalfSpace((-1.0,)))

    def test_halfline_oracle_error_and_decay(self):
        errs = {}
        for exp in (15, 16):
            g = mp.indicator_interval(32.0, 2**exp, -0.5, 0.5)
            h = mp.fft_multiplier_apply(g, mp.HalfSpace((-1.0,)))
            x = g.axis()
            mask = (np.abs(x) >= 0.6) & (np.abs(x) <= 3.0)
            oracle = mp.halfline_projection_periodic(-0.5, 0.5, x[mask], 64.0)
            errs[exp] = np.linalg.norm(h.values[mask] - oracle) / np.linalg.norm(
                oracle
            )
        assert errs[16] < 1e-3
        assert errs[16] <= 0.55 * errs[15]

    def test_boundary_rule_is_half(self):
        m = mp.sample_symbol(mp.HalfSpace((-1.0,)),
                             [np.array([-1.0, 0.0, 1.0])])
        assert np.allclose(m, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("symbol, dims", [
        (mp.HalfSpace((1.0,)), 1),
        (mp.HalfSpace((-1.0, 0.6, 0.8)), 3),
        (mp.Cone(), 3),
    ])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_symbol_matches_two_pass_rule(self, symbol, dims, shifted):
        # the fftfreq lattice puts points exactly on every boundary here
        freqs = [mp.GridFunction(np.zeros(32), 2.0).freqs()] * dims
        shift = np.array([0.5, -0.25, 0.75])[:dims] if shifted else None
        got = mp.sample_symbol(symbol, freqs, shift=shift)
        want = _reference_symbol(symbol, freqs, shift)
        assert np.count_nonzero(want == mp.BOUNDARY_VALUE) > 0
        assert np.array_equal(got, want)

    def test_symbol_holds_one_float_temporary(self):
        freqs = [mp.GridFunction(np.zeros(64), 6.0).freqs()] * 3
        tracemalloc.start()
        try:
            out = mp.sample_symbol(mp.Cone(), freqs, shift=np.ones(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one float grid and two boolean masks: 2.25 x output;
        # three float temporaries (3.1 x) would not fit
        assert peak <= 2.5 * out.nbytes

    def test_complex_values_not_copied(self):
        a = np.zeros(8, dtype=complex)
        assert mp.GridFunction(a, 1.0).values is a
        b = np.arange(8.0)
        g = mp.GridFunction(b, 1.0)
        assert g.values.dtype == complex
        assert np.array_equal(g.values, b)

    def test_zero_samples_rejected(self, boxes_k3):
        # a bit test alone passes 0 (0 & -1 == 0), and spacing divides by it
        with pytest.raises(ValueError, match="power of two"):
            mp.GridFunction(np.zeros(0), 1.0)
        with pytest.raises(ValueError, match="power of two"):
            mp.modulation_convergence(boxes_k3, [1.0], samples_per_axis=0,
                                      extent=4.0)

    def test_negative_extent_rejected(self):
        # the spacing would be -0.25 and the axis descending
        with pytest.raises(ValueError, match="extent"):
            mp.GridFunction(np.zeros(8), -1.0)

    @pytest.mark.parametrize("extent", [np.nan, np.inf])
    def test_nonfinite_extent_rejected(self, extent):
        with pytest.raises(ValueError, match="extent"):
            mp.GridFunction(np.zeros(8), extent)

    @pytest.mark.parametrize("radius", [np.nan, -1.0, np.inf])
    def test_meaningless_support_radius_rejected(self, radius):
        # NaN passed the aliasing guard, which only refused radius > L / 2
        with pytest.raises(ValueError, match="support radius"):
            mp.GridFunction(np.zeros(8), 1.0, support_radius=radius)

    @pytest.mark.parametrize("a, b", [(np.nan, 0.5), (-0.5, np.nan),
                                      (0.5, -0.5), (0.5, 0.5),
                                      (-np.inf, 0.5)])
    def test_interval_needs_finite_ordered_endpoints(self, a, b):
        # a NaN endpoint gave NaN samples and a NaN support radius
        with pytest.raises(ValueError, match="finite a < b"):
            mp.indicator_interval(32.0, 16, a, b)

    def test_zero_extent_sweep_rejected(self, boxes_k1):
        # a zero spacing would divide the resolvability check by zero
        with pytest.raises(ValueError, match="extent"):
            mp.modulation_convergence(boxes_k1, [1.0], 8, 0.0)


def _box_grids(samples, extent=6.0):
    """The k = 1 indicators and closed-form oracles of both boxes."""
    boxes = bs.build_boxes(bs.build_perron_rectangles(1))
    grid = mp.GridFunction(np.zeros(samples), extent)
    return [embed(b, samples, extent)
            for f_box, ntilde in zip(boxes.boxes_f, boxes.normals)
            for b in (mp.indicator_box(f_box, extent, samples),
                      mp.box_image_grid(f_box, ntilde, grid))]


def _sparse_block(points):
    """The bounding block of the index triples ``points``, with value
    1 + index sum at each and zeros elsewhere in it."""
    first = np.min(points, axis=0)
    index = tuple(slice(lo, hi + 1)
                  for lo, hi in zip(first, np.max(points, axis=0)))
    values = np.zeros([i.stop - i.start for i in index], dtype=complex)
    for p in points:
        values[tuple(np.subtract(p, first))] = 1.0 + sum(p)
    return index, values


def _tiled_spectrum(block, samples):
    """The full spectrum assembled from ``_spectrum_tiles``' tiles."""
    out = np.full((samples,) * 3, np.nan, dtype=complex)
    for cols, tile in mp._spectrum_tiles(block, samples):
        out[..., cols] = np.moveaxis(tile, 0, 2)
    return out


class TestSpectrum:
    """``_spectrum`` and the sweep's tiles transform in another axis order
    than ``np.fft.fftn``; each line keeps its arithmetic, so they agree
    with it to rounding.  The tiles transform only the lines of a block,
    each at its index offsets."""

    @staticmethod
    def _assert_near(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def _assert_tiles_match_fftn(self, block, samples, monkeypatch):
        # tiles of 1, 3 (the last one narrower) and all columns
        ref = np.fft.fftn(embed(block, samples, 1.0).values)
        for width in (1, 3, samples):
            monkeypatch.setattr(mp, "_TILE_VALUES", width * samples**2)
            self._assert_near(_tiled_spectrum(block, samples), ref)

    @pytest.mark.parametrize("samples", [32, 64])
    def test_box_grids(self, samples):
        # 4.2e-16 max|fhat| measured on these grids at 64^3 and 128^3
        boxes = bs.build_boxes(bs.build_perron_rectangles(1))
        grid = mp.GridFunction(np.zeros(samples), 6.0)
        for f_box, ntilde in zip(boxes.boxes_f, boxes.normals):
            for block in (mp.indicator_box(f_box, 6.0, samples),
                          mp.box_image_grid(f_box, ntilde, grid)):
                f = embed(block, samples, 6.0)
                ref = np.fft.fftn(f.values)
                self._assert_near(mp._spectrum(f), ref)
                self._assert_near(_tiled_spectrum(block, samples), ref)

    @pytest.mark.parametrize("point", [(15, 15, 15), (0, 0, 15), (0, 15, 0),
                                       (15, 0, 0), (7, 15, 3)])
    def test_one_voxel_at_the_last_index(self, point, monkeypatch):
        self._assert_tiles_match_fftn(_sparse_block([point]), 16,
                                      monkeypatch)

    def test_row_live_at_both_ends(self, monkeypatch):
        # the block spans the whole i2 axis, but one of its rows is live
        # only at both ends and another at a single column
        self._assert_tiles_match_fftn(
            _sparse_block([(2, 5, 0), (9, 5, 15), (4, 11, 8)]), 16,
            monkeypatch)

    def test_dense_gaussian(self):
        x = mp.GridFunction(np.zeros(32), 4.0).axis()
        r2 = sum(np.meshgrid(x**2, (x - 0.3)**2, (x + 0.7)**2,
                             indexing="ij", sparse=True))
        f = mp.GridFunction(np.exp(-r2), 4.0)
        self._assert_near(mp._spectrum(f), np.fft.fftn(f.values))
        # the same values as one block spanning the whole grid
        block = ((slice(0, 32),) * 3, f.values)
        self._assert_near(_tiled_spectrum(block, 32), np.fft.fftn(f.values))

    def test_zero_grid_is_exactly_zero(self):
        # an all-zero block, off the grid's origin, and an all-zero grid
        block = ((slice(3, 7), slice(9, 10), slice(14, 16)),
                 np.zeros((4, 1, 2), dtype=complex))
        assert not np.any(_tiled_spectrum(block, 16))
        assert not np.any(mp._spectrum(embed(block, 16, 1.0)))

    def test_1d_is_numpy_fft(self):
        g = mp.indicator_interval(8.0, 256, -0.5, 1.5)
        assert np.array_equal(mp._spectrum(g), np.fft.fft(g.values))

    def test_in_place_memory(self):
        # one copy of the input, transformed in place: 1.00 grid measured at
        # 64^3; a second full-size buffer would not fit
        f = _box_grids(64)[1]
        tracemalloc.start()
        try:
            mp._spectrum(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * f.values.nbytes


class TestBoxImage:
    def test_center_value(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        v = mp.box_halfspace_image(fb, nt, fb.center)
        assert v == pytest.approx(0.5 + 0.0j)

    def test_translate_lower_bound(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        ft = boxes_k1.f_shifted.boxes[0]
        kappa = mp._translate_images(fb, nt, mp.LHS_TOL)[1]
        rng = np.random.default_rng(73)
        local = rng.uniform(-1, 1, size=(500, 3)) * ft.half_extents
        pts = ft.center + local @ ft.axes
        vals = np.abs(mp.box_halfspace_image(fb, nt, pts))
        assert np.all(vals >= kappa * (1 - 1e-12))

    def test_zero_outside_cross_section(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        outside = fb.center + 2.0 * fb.axes[1]
        assert mp.box_halfspace_image(fb, nt, outside) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_non_finite_point_refused(self, boxes_k1, bad, axis):
        # a non-finite coordinate fails every cross-section test, so only
        # the guard keeps such a point from reading an exact 0
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        point = fb.center.copy()
        point[axis] = bad
        with pytest.raises(ValueError, match="finite"):
            mp.box_halfspace_image(fb, nt, point)
        with pytest.raises(ValueError, match="finite"):
            mp.box_halfspace_image(fb, nt, np.vstack([fb.center, point]))

    def test_non_axis_normal_rejected(self, boxes_k1):
        fb = boxes_k1.boxes_f[0]
        with pytest.raises(ValueError):
            mp.box_halfspace_image(fb, np.array([0.0, 0.3, 1.0]), fb.center)

    def test_end_planes_off_the_prism_read_zero(self):
        # the unit cube with ntilde along x_0: t = a or b at every point
        # below, in exact arithmetic; only the prism points are singular
        cube = bs.Box3(np.zeros(3), np.eye(3), np.full(3, 0.5))
        ntilde = np.array([1.0, 0.0, 0.0])
        off = np.array([[-0.5, 5.0, 0.0], [0.5, 0.0, -0.7],
                        [-0.5, np.nextafter(0.5, 1.0), 0.5]])
        assert not np.any(mp.box_halfspace_image(cube, ntilde, off))
        for point in off:
            assert mp.box_halfspace_image(cube, ntilde, point) == 0.0
        for point in ([-0.5, 0.0, 0.0], [0.5, 0.5, -0.5]):
            with pytest.raises(SingularPointError):
                mp.box_halfspace_image(cube, ntilde, np.array(point))
            with pytest.raises(SingularPointError):
                mp.box_halfspace_image(cube, ntilde, np.vstack([off, point]))

    def test_end_planes_off_the_prism_read_zero_perron_box(self, boxes_k1):
        # points around the tilted box's end planes, a few ulps apart; those
        # whose t, computed as the image computes it, is exactly a or b
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        idx, _, a, b, row = mp.box_axis_interval(fb, nt)
        rest = [i for i in range(3) if i != idx]
        end_points = []
        for end in (-1.0, 1.0):
            for u in (0.0, 0.5, 1.0, 3.0):
                local = np.zeros(3)
                local[idx], local[rest[0]], local[rest[1]] = end, u, -0.4 * u
                point = fb.center + (local * fb.half_extents) @ fb.axes
                for step in range(-8, 9):
                    moved = point + step * np.spacing(point)
                    if (np.atleast_2d(moved) @ row)[0] in (a, b):
                        end_points.append(moved)
        prism = box_contains_row_major(
            fb, end_points, np.where(np.arange(3) == idx, np.inf, 0.0))
        assert 0 < np.count_nonzero(prism) < len(end_points)
        for point, on_prism in zip(end_points, prism):
            if on_prism:
                with pytest.raises(SingularPointError):
                    mp.box_halfspace_image(fb, nt, point)
            else:
                assert mp.box_halfspace_image(fb, nt, point) == 0.0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_nonzero_set_is_row_major_cross_section(self, monkeypatch, k):
        # every box's image on the face points of all the level's boxes: the
        # closed form runs on the points of the row-major cross-section
        # test with the ntilde axis left open and on no other point, and is
        # nonzero there; a prism point on an end face reads 1 instead of
        # raising, so that one batch holds all the points
        closed_form, seen = mp.halfline_projection_1d, []

        def guarded(a, b, t, sign=1):
            seen.append(t)
            end = (t == a) | (t == b)
            out = np.ones(t.shape, dtype=complex)
            out[~end] = closed_form(a, b, t[~end], sign)
            return out

        monkeypatch.setattr(mp, "halfline_projection_1d", guarded)
        boxes = _family(k)
        pts = _face_points(boxes.boxes_f)
        for box, nt in zip(boxes.boxes_f, boxes.normals):
            idx, _, _, _, row = mp.box_axis_interval(box, nt)
            slack = np.where(np.arange(3) == idx, np.inf, 0.0)
            cross = box_contains_row_major(box, pts, slack)
            seen.clear()
            image = mp.box_halfspace_image(box, nt, pts)
            assert np.array_equal(image != 0.0, cross)
            assert len(seen) == 1 and np.array_equal(seen[0],
                                                     (pts @ row)[cross])

    def test_translate_integral_matches_antiderivative(self):
        # independent oracle: adaptive Gauss-Kronrod on the line integrand,
        # for every box at k = 1..8
        for k in range(1, 9):
            boxes = bs.build_boxes(bs.build_perron_rectangles(k))
            for fb, nt in zip(boxes.boxes_f, boxes.normals):
                idx, _, a, b, _ = mp.box_axis_interval(fb, nt)
                shift = bs.SHIFT * float(nt @ fb.axes[idx])
                line, _ = quad(
                    lambda t: abs(np.log(abs((t - a) / (t - b)))),
                    a + shift, b + shift, epsabs=0, epsrel=1e-13,
                )
                cross = 4.0 * np.prod(np.delete(fb.half_extents, idx))
                got = mp.translate_image_integral(fb, nt)
                assert got == pytest.approx(cross * line / (2.0 * np.pi),
                                            rel=1e-12)

    def test_translate_integral_tolerance_below_rounding_bound(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        value = mp.translate_image_integral(fb, nt)
        with pytest.raises(BudgetExceededError) as err:
            mp.translate_image_integral(fb, nt, tol=1e-20)
        assert err.value.partial == value
        assert 1e-20 < err.value.error_estimate <= 1e-11 * value

    @pytest.mark.parametrize("k, samples", [(1, 32), (2, 64), (3, 128)])
    @pytest.mark.parametrize("extent", [1.0, 4.0])
    def test_builders_match_full_grid(self, k, samples, extent):
        # extent 1.0 puts the far box faces at the grid edge x = L; every
        # box of k = 1 and 2, the first and last of k = 3
        boxes = bs.build_boxes(bs.build_perron_rectangles(k))
        grid = mp.GridFunction(np.zeros(samples), extent)
        h = grid.spacing
        for j in range(boxes.n_boxes) if k < 3 else (0, -1):
            box, ntilde = boxes.boxes_f[j], boxes.normals[j]

            def coverage(pts):
                # box-frame coordinate q as sum_i a_qi (p_i - c_i), summed
                # in the order of the builders' linear form
                local = sum((pts[:, [i]] - box.center[i]) * box.axes[:, i]
                            for i in range(3))
                cov = np.clip((box.half_extents - np.abs(local)) / h + 0.5,
                              0.0, 1.0)
                return np.prod(cov, axis=-1)

            ind = embed(mp.indicator_box(box, extent, samples), samples,
                        extent).values
            assert np.array_equal(ind, _full_grid(grid, coverage))
            img = embed(mp.box_image_grid(box, ntilde, grid), samples,
                        extent).values
            want = _full_grid(
                grid, lambda pts: mp.box_halfspace_image(box, ntilde, pts))
            assert np.array_equal(img, want)
            assert np.count_nonzero(ind) > 0 and np.count_nonzero(img) > 0

    def test_image_matches_full_grid_at_benchmark_size(self, boxes_k1):
        # modulation-128's grid: k = 1, 128^3, extent 12
        grid = mp.GridFunction(np.zeros(128), 12.0)
        for box, ntilde in zip(boxes_k1.boxes_f, boxes_k1.normals):
            img = embed(mp.box_image_grid(box, ntilde, grid), 128, 12.0).values
            want = _full_grid(
                grid, lambda pts: mp.box_halfspace_image(box, ntilde, pts))
            assert np.array_equal(img, want) and np.count_nonzero(img) > 0

    @pytest.mark.parametrize("axes", [
        # the ntilde axis (first row) has no x_0 component and its largest
        # on x_1, so the builder cuts the prism with the planes x_1 = t
        [[0.0, 0.8, -0.6], [0.6, -0.48, -0.64], [-0.8, -0.36, -0.48]],
        # the ntilde axis along x_2 and the slabs along the other grid axes
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ])
    def test_image_matches_full_grid_off_the_x0_planes(self, axes):
        box = bs.Box3([0.3, -0.2, 0.45], axes, [0.4, 0.3, 0.25])
        ntilde = 2.0 * box.axes[0]
        grid = mp.GridFunction(np.zeros(64), 2.0)
        img = embed(mp.box_image_grid(box, ntilde, grid), 64, 2.0).values
        want = _full_grid(
            grid, lambda pts: mp.box_halfspace_image(box, ntilde, pts))
        assert np.array_equal(img, want) and np.count_nonzero(img) > 0

    def test_image_of_a_prism_off_the_grid_is_an_empty_block(self):
        # the prism around the x_0 axis passes x_1 = x_2 = 5, outside
        # [-2, 2)^3: no point passes, and the block is empty
        box = bs.Box3([0.0, 5.0, 5.0], np.eye(3), [0.3, 0.2, 0.2])
        grid = mp.GridFunction(np.zeros(16), 2.0)
        block = mp.box_image_grid(box, 2.0 * box.axes[0], grid)
        assert block[1].size == 0
        assert not np.any(embed(block, 16, 2.0).values)
        assert all(not np.any(tile)
                   for _, tile in mp._spectrum_tiles(block, 16))

    def test_image_allocates_no_full_size_temporary(self, boxes_k1):
        # the output block (0.11 grid) and the per-plane blocks around the
        # prism: 1.31 blocks measured at 64^3; a full-grid float form or
        # boolean mask would not fit
        grid = mp.GridFunction(np.zeros(64), 6.0)
        tracemalloc.start()
        try:
            _, values = mp.box_image_grid(boxes_k1.boxes_f[0],
                                          boxes_k1.normals[0], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.nbytes <= 0.15 * 64**3 * 16
        assert peak <= 1.5 * values.nbytes

    @pytest.mark.parametrize("k", [1, 3])
    def test_indicator_near_matmul_frame(self, k):
        # the builder's broadcast linear form rounds apart from the matrix
        # product (mesh - c) @ axes.T it replaced, by at most an ulp or two
        boxes = bs.build_boxes(bs.build_perron_rectangles(k))
        grid = mp.GridFunction(np.zeros(128), 4.0)
        h = grid.spacing
        for box in (boxes.boxes_f[0], boxes.boxes_f[-1]):

            def coverage(pts):
                local = (pts - box.center) @ box.axes.T
                cov = np.clip((box.half_extents - np.abs(local)) / h + 0.5,
                              0.0, 1.0)
                return np.prod(cov, axis=-1)

            ind = embed(mp.indicator_box(box, 4.0, 128), 128, 4.0).values
            assert np.max(np.abs(ind - _full_grid(grid, coverage))) <= 2e-15

    def test_linear_form_order(self):
        axes = [np.array([0.1, -2.0]), np.array([3.0]), np.array([0.5, 7.0])]
        coeffs, offsets = [0.3, -1.7, 2.9], [0.25, -0.5, 1.0]
        got = mp._linear_form(coeffs, offsets, axes)
        assert got.shape == (2, 1, 2)
        for i, j, m in np.ndindex(got.shape):
            p = (axes[0][i], axes[1][j], axes[2][m])
            want = ((p[0] - offsets[0]) * coeffs[0]
                    + (p[1] - offsets[1]) * coeffs[1]
                    + (p[2] - offsets[2]) * coeffs[2])
            assert got[i, j, m] == want

    def test_gaussian_probe_oracle_equivalence(self, boxes_k1):
        err = gaussian_box_probe(
            boxes_k1.boxes_f[0], boxes_k1.normals[0], 12.0, 128, window=6.0
        )
        assert err < 5e-3


class TestDilationCovariance:
    def test_spatial_probe(self):
        err = cone_dilation_probe(2, samples=128, spectral_width=0.35)
        assert err < 1e-5


class TestSquareFunction:
    def test_lhs_is_level_independent(self, boxes_k1, boxes_k3):
        lhs = []
        for boxes in (boxes_k1, boxes_k3):
            lhs.append(
                sum(
                    mp.translate_image_integral(f, n)
                    for f, n in zip(boxes.boxes_f, boxes.normals)
                )
            )
        assert lhs[0] == pytest.approx(lhs[1], rel=1e-9)

    def test_single_box_degenerate_case(self):
        rect = bs.Rect2(center=[0.5, 0.0], direction=[0.0, 1.0],
                        length=1.0, width=1.0)
        family = bs.RectangleFamily(k=0, rects=(rect,))
        boxes = bs.build_boxes(family)
        res, = mp.ratio_experiment_level(boxes, [1.5], 10_000, seed=3)
        box = boxes.boxes_f[0]
        assert res.rhs_exact == pytest.approx(box.volume() ** (1 / 1.5),
                                              rel=1e-12)
        assert res.rhs_stderr == 0.0
        assert res.lhs == mp.translate_image_integral(box, boxes.normals[0])

    def test_holder_bound_arithmetic(self):
        # p = 1, eps = 0.1: sqrt(1/2) * 0.1^(1/2) ~ 0.2236
        assert np.sqrt(0.5) * 0.1**0.5 == pytest.approx(0.22360679, abs=1e-6)

    def test_rhs_exact_below_holder(self, boxes_k3):
        res, = mp.ratio_experiment_level(boxes_k3, [1.0], 20_000, seed=7)
        assert res.rhs_exact <= res.rhs_holder + res.rhs_stderr

    def test_stratified_estimator_against_raster_oracle(self, boxes_k3):
        # independent oracle: rasterize integral count^(1/2) on a fine grid
        # over the union's bounding region, using exact box membership
        moment, stderr = mp.stratified_count_moment(boxes_k3, -0.5, 40_000, 5)
        step = 1.0 / 160
        verts = np.concatenate([b.vertices() for b in boxes_k3.boxes_f])
        lo, hi = verts.min(axis=0) - step, verts.max(axis=0) + step
        axes = [np.arange(lo[i], hi[i], step) + step / 2 for i in range(3)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        counts = np.zeros(mesh.shape[0])
        for box in boxes_k3.boxes_f:
            counts += box.contains(mesh)
        oracle = step**3 * np.sum(np.sqrt(counts[counts > 0]))
        assert moment == pytest.approx(oracle, rel=0.02)

    @pytest.mark.parametrize("mc_samples", [np.nan, 9_999, -np.inf])
    def test_too_few_cell_samples_rejected(self, mc_samples):
        # NaN used to pass the guard
        with pytest.raises(ValueError, match="mc_samples"):
            mp.check_cells([1.0], mc_samples)

    def test_invalid_p_rejected(self, boxes_k3):
        for p in (0.5, 2.5):
            with pytest.raises(ValueError):
                mp.ratio_experiment_level(boxes_k3, [1.0, p], 10_000, seed=0)
        with pytest.raises(ValueError):
            mp.ratio_experiment_level(boxes_k3, [1.0], 100, seed=0)

    def test_one_geometry_record_per_k(self, monkeypatch):
        calls = {"union": 0, "integral": 0}
        moments = []

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        def moment(boxes, power, n_samples, seed):
            moments.append((boxes.k, list(power), n_samples, seed.entropy,
                            seed.spawn_key))
            return count_moment(boxes, power, n_samples, seed)

        count_moment = mp.stratified_count_moment
        monkeypatch.setattr(bs, "union_measure",
                            counting("union", bs.union_measure))
        monkeypatch.setattr(mp, "_translate_images",
                            counting("integral", mp._translate_images))
        monkeypatch.setattr(mp, "stratified_count_moment", moment)
        for k in (3, 4):
            boxes = _family(k)
            before = dict(calls)
            reports = mp.ratio_experiment_level(boxes, [1.0, 1.5, 2.0],
                                                15_000, seed=11)
            # one union and one left-side pass per level call
            assert calls == {"union": before["union"] + 1,
                             "integral": before["integral"] + 1}
            assert [r.p for r in reports] == [1.0, 1.5, 2.0]
            for r in reports:
                moment, err = count_moment(
                    boxes, r.p / 2.0 - 1.0, 15_000,
                    np.random.SeedSequence(11, spawn_key=(r.k,)))
                assert r.rhs_exact == float(moment ** (1.0 / r.p))
                assert r.rhs_stderr == float(
                    (1.0 / r.p) * moment ** (1.0 / r.p - 1.0) * err)
        assert calls == {"union": 2, "integral": 2}
        assert moments == [(k, [-0.5, -0.25, 0.0], 15_000, 11, (k,))
                           for k in (3, 4)]

    def test_level_unions_the_rectangle_family(self, monkeypatch):
        # the level passes the rectangle family itself, so a hook on
        # union_measure needs none of the BoxFamily's one-box rows
        seen = []
        union_measure = bs.union_measure

        def recording(shapes, resolution):
            seen.append(shapes)
            return union_measure(shapes, resolution)

        monkeypatch.setattr(bs, "union_measure", recording)
        boxes = _family(3)
        mp.ratio_experiment_level(boxes, [1.0], 10_000, seed=3)
        assert len(seen) == 1 and seen[0] is boxes.family

    @pytest.mark.parametrize("k", range(3, 7))
    def test_level_bit_identical_to_per_box_path(self, k):
        family = bs.build_perron_rectangles(k)
        _, boxes_f, _, normals = lift_per_box(family)
        p_list = [1.0, 1.5, 2.0]
        powers = [p / 2.0 - 1.0 for p in p_list]
        reports = mp.ratio_experiment_level(bs.build_boxes(family), p_list,
                                            20_000, seed=5)
        # the union of the rectangles taken one at a time
        union, err = bs.union_measure(list(family.rects),
                                      bs.UNION_RESOLUTION)
        images = [translate_image_per_box(f, n)
                  for f, n in zip(boxes_f, normals)]
        lhs = float(sum(value for value, _ in images))
        kappa = float(min(least for _, least in images))
        moments = pair_loop_moment(
            boxes_f, powers, 20_000, np.random.SeedSequence(5, spawn_key=(k,)))
        for r, (moment, moment_err) in zip(reports, moments, strict=True):
            assert r.eps_hat == float(union + err)
            assert (r.lhs, r.kappa) == (lhs, kappa)
            assert r.rhs_exact == float(moment ** (1.0 / r.p))
            assert r.rhs_stderr == float(
                (1.0 / r.p) * moment ** (1.0 / r.p - 1.0) * moment_err)

    def test_level_constructs_no_box3(self, monkeypatch):
        built = []
        check = bs.Box3.__post_init__

        def counted(box):
            built.append(box)
            check(box)

        monkeypatch.setattr(bs.Box3, "__post_init__", counted)
        boxes = bs.build_boxes(bs.build_perron_rectangles(5))
        # build_boxes builds exactly its three stacks
        assert [box.center.shape for box in built] == [(32, 3)] * 3
        mp.ratio_experiment_level(boxes, [1.0, 1.5, 2.0], 20_000, seed=1)
        assert len(built) == 3
        # the one-box rows are built on first access, once
        assert boxes.boxes_f is boxes.boxes_f and len(built) == 3 + 32
        assert all(box.center.shape == (3,) for box in built[3:])

    def test_reports_carry_the_level_kappa(self, boxes_k3):
        kappa = min(mp._translate_images(f, n, mp.LHS_TOL)[1]
                    for f, n in zip(boxes_k3.boxes_f, boxes_k3.normals))
        reports = mp.ratio_experiment_level(boxes_k3, [1.0, 1.5, 2.0],
                                            10_000, seed=0)
        assert [r.kappa for r in reports] == [kappa] * 3

    def test_report_independent_of_other_p(self, boxes_k3):
        p_list = [1.0, 1.25, 1.5, 2.0]
        shared = mp.ratio_experiment_level(boxes_k3, p_list, 12_000, seed=4)
        for p, report in zip(p_list, shared):
            alone, = mp.ratio_experiment_level(boxes_k3, [p], 12_000, seed=4)
            assert alone == report

    def test_ratio_experiment_growth_and_control(self):
        reports = [r for k in (3, 4) for r in mp.ratio_experiment_level(
            _family(k), [1.0, 2.0], 15_000, seed=11)]
        p1 = [r for r in reports if r.p == 1.0]
        p2 = [r for r in reports if r.control]
        assert p1[1].ratio_holder > p1[0].ratio_holder
        assert p1[1].eps_hat < p1[0].eps_hat
        assert p2[0].ratio == pytest.approx(p2[1].ratio, rel=1e-9)
        for r in reports:
            assert r.m_lower == pytest.approx(r.ratio / np.sqrt(2.0))


@lru_cache(maxsize=None)
def _family(k):
    return bs.build_boxes(bs.build_perron_rectangles(k))


def _face_points(boxes):
    """Points on every face of every box (face centres, edge midpoints,
    corners and two interior points), each also moved 1 and 2 ulps outward
    and inward along the face normal."""
    grid = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
    pts = []
    for box in boxes:
        for i in range(3):
            rest = [a for a in range(3) if a != i]
            for sign in (-1.0, 1.0):
                local = np.zeros((grid.size**2, 3))
                local[:, i] = sign
                local[:, rest[0]] = np.repeat(grid, grid.size)
                local[:, rest[1]] = np.tile(grid, grid.size)
                on = box.center + (local * box.half_extents) @ box.axes
                out = on + sign * box.axes[i]
                inward = on - sign * box.axes[i]
                for toward in (out, inward):
                    step = on
                    for _ in range(2):
                        step = np.nextafter(step, toward)
                        pts.append(step)
                pts.append(on)
    return np.concatenate(pts)


def _row_major_counts(boxes, pts):
    """How many F boxes contain each point, box by box in the row-major
    formula."""
    counts = np.zeros(len(pts), dtype=np.int64)
    for box in boxes.boxes_f:
        counts += box_contains_row_major(box, pts)
    return counts


class TestCountMoment:
    POWERS = (-0.5, -0.25, 0.0)

    @pytest.mark.parametrize("k, n_samples", [
        *((k, n) for k in range(1, 8) for n in ("2N", 20_000, 100_003)),
        (8, 20_000),
    ])
    def test_bit_identical_to_pair_loop(self, k, n_samples):
        boxes = _family(k)
        if n_samples == "2N":
            n_samples = 2 * boxes.n_boxes
        expected = pair_loop_moment(boxes.boxes_f, self.POWERS, n_samples,
                                    2026 + k)
        got = mp.stratified_count_moment(boxes, self.POWERS, n_samples,
                                         2026 + k)
        assert [tuple(pair) for pair in zip(*got)] == expected

    @pytest.mark.parametrize("strata", [1, 3, 5])
    def test_groups_of_strata_do_not_change_bits(self, monkeypatch, strata):
        # k = 4: 16 strata of 63 or 62 points, so the groups end unevenly
        boxes = _family(4)
        expected = pair_loop_moment(boxes.boxes_f, self.POWERS, 1003, 9)
        monkeypatch.setattr(bs, "_BLOCK_VALUES",
                            mp._POINT_VALUES * 63 * strata)
        assert mp.stratified_count_moment(boxes, -0.5, 1003, 9) == expected[0]
        got = mp.stratified_count_moment(boxes, self.POWERS, 1003, 9)
        assert [tuple(pair) for pair in zip(*got)] == expected

    @pytest.mark.parametrize("cap", [1, 7, 62])
    def test_split_strata_agree_with_pair_loop(self, monkeypatch, cap):
        # k = 4: strata of 63 or 62 points, drawn in chunks of at most cap;
        # integer tallies add exactly, so the chunks change no bit
        boxes = _family(4)
        expected = pair_loop_moment(boxes.boxes_f, self.POWERS, 1003, 9)
        monkeypatch.setattr(bs, "_BLOCK_VALUES", mp._POINT_VALUES * cap)
        got = mp.stratified_count_moment(boxes, self.POWERS, 1003, 9)
        assert [tuple(pair) for pair in zip(*got)] == expected

    @pytest.mark.parametrize("cap", [None, 1, 7, 62])
    def test_each_power_alone_matches_the_list(self, monkeypatch, cap):
        boxes = _family(4)
        if cap is not None:
            monkeypatch.setattr(bs, "_BLOCK_VALUES", mp._POINT_VALUES * cap)
        powers = (*self.POWERS, 0.5, -1.0)
        got = mp.stratified_count_moment(boxes, powers, 1003, 9)
        for s, pair in zip(powers, zip(*got), strict=True):
            assert mp.stratified_count_moment(boxes, s, 1003, 9) == pair

    def test_later_block_widens_the_histogram(self, monkeypatch):
        # k = 6: strata of 31 or 32 points, drawn 20 at a time; the first
        # block's largest count is 58, and later blocks meet 60 and 61
        boxes = _family(6)
        maxima, cover_counts = [], mp._cover_counts

        def recorded(stack, pts):
            counts = cover_counts(stack, pts)
            maxima.append(int(counts.max()))
            return counts

        expected = pair_loop_moment(boxes.boxes_f, self.POWERS, 2000, 4)
        monkeypatch.setattr(bs, "_BLOCK_VALUES", mp._POINT_VALUES * 20)
        monkeypatch.setattr(mp, "_cover_counts", recorded)
        got = mp.stratified_count_moment(boxes, self.POWERS, 2000, 4)
        assert [tuple(pair) for pair in zip(*got)] == expected
        assert any(m > max(maxima[:i]) for i, m in enumerate(maxima) if i)

    def test_planted_zero_count_forms_no_nan(self, monkeypatch):
        # one point of the fifth stratum counted 0: its power enters that
        # stratum alone, so no stratum sums 0 * 0^s at a cell it never hit
        boxes = _family(3)
        powers = (-0.5, 0.0, 0.5)
        clean = mp.stratified_count_moment(boxes, powers, 800, 6)
        cover_counts = mp._cover_counts

        def planted(stack, pts):
            counts = cover_counts(stack, pts)
            counts[4 * 100] = 0          # strata of 100 points, one group
            return counts

        monkeypatch.setattr(mp, "_cover_counts", planted)
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates, errors = mp.stratified_count_moment(boxes, powers,
                                                           800, 6)
        assert estimates[0] == np.inf
        assert estimates[1] == clean[0][1] and errors[1] == clean[1][1] == 0
        assert 0.0 < estimates[2] < clean[0][2]
        assert np.all(np.isfinite(errors[1:]))

    @pytest.mark.parametrize("k, n_samples", [(1, 2_000_000), (4, 20_000),
                                              (7, 20_000)])
    def test_histogram_within_8_ulps_of_per_point_summary(self, k,
                                                          n_samples):
        # the per-point g.mean() and g.var(ddof=1) sum the same count^s in
        # another order; 4 ulps is the largest gap measured at k = 1..7
        boxes = _family(k)
        expected = pair_loop_moment(boxes.boxes_f, self.POWERS, n_samples,
                                    3, histogram=False)
        got = mp.stratified_count_moment(boxes, self.POWERS, n_samples, 3)
        for pair, ref in zip(zip(*got), expected, strict=True):
            for value, reference in zip(pair, ref):
                assert abs(value - reference) <= 8 * np.spacing(reference)

    def test_face_points_counted_as_contains_does(self):
        # the row-major formula, not Box3.contains, which shares the
        # kernel's _box_contains
        for k in range(1, 9):
            pts = _face_points(_family(k).boxes_f)
            assert np.array_equal(mp._cover_counts(_family(k).f, pts),
                                  _row_major_counts(_family(k), pts))

    @pytest.mark.parametrize("k", range(3, 9))
    def test_counts_of_the_draws_match_row_major_formula(self, monkeypatch,
                                                         k):
        # every chunk the moment draws, counted box by box in rows
        chunks, cover_counts = [], mp._cover_counts

        def recorded(stack, pts):
            counts = cover_counts(stack, pts)
            chunks.append((pts, counts))
            return counts

        monkeypatch.setattr(mp, "_cover_counts", recorded)
        mp.stratified_count_moment(_family(k), -0.5, 20_000, 2026 + k)
        assert chunks
        for pts, counts in chunks:
            assert np.array_equal(counts, _row_major_counts(_family(k), pts))

    def test_containment_reads_contiguous_coordinate_rows(self, monkeypatch):
        layouts, contains = [], bs._box_contains

        def recorded(center, axes, half_extents, coords, slack=0.0):
            layouts.append((coords.shape, coords.flags.c_contiguous))
            return contains(center, axes, half_extents, coords, slack)

        monkeypatch.setattr(bs, "_box_contains", recorded)
        mp.stratified_count_moment(_family(7), -0.5, 20_000, 1)
        assert len(layouts) == _family(7).n_boxes
        assert all(len(shape) == 2 and shape[0] == 3 and contiguous
                   for shape, contiguous in layouts)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_contains_matches_row_major_formula(self, k):
        boxes = _family(k)
        for stack in (boxes.e, boxes.f, boxes.f_shifted):
            pts = _face_points(stack.boxes)
            for slack in (0.0, 1e-12):
                expected = [box_contains_row_major(box, pts, slack)
                            for box in stack.boxes]
                assert all(np.array_equal(box.contains(pts, slack), verdict)
                           for box, verdict in zip(stack.boxes, expected))
                # the stacked test, as box_geometry_check runs it
                assert np.array_equal(stack.contains(
                    np.broadcast_to(pts, (len(expected), *pts.shape)), slack),
                    expected)

    def test_full_test_runs_on_thin_slab_candidates(self, monkeypatch):
        boxes = _family(7)
        seen = {"points": 0, "hits": 0}
        contains = bs._box_contains

        def counted(*args, **kwargs):
            inside = contains(*args, **kwargs)
            seen["points"] += len(inside)
            seen["hits"] += int(inside.sum())
            return inside

        monkeypatch.setattr(bs, "_box_contains", counted)
        mp.stratified_count_moment(boxes, -0.5, 20_000, 1)
        # about 22% of the box x sample pairs, nearly all of them hits
        assert seen["points"] < 0.25 * boxes.n_boxes * 20_000
        assert seen["hits"] > 0.99 * seen["points"]

    def test_memory_bounded_by_groups(self):
        boxes = _family(5)
        tracemalloc.start()
        try:
            mp.stratified_count_moment(boxes, -0.5, 2_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one group of all 2 * 10^6 points would hold about 100 MB
        assert peak <= 1.5 * bs._BLOCK_VALUES * 8

    def test_memory_bounded_by_chunks_of_a_large_stratum(self):
        # k = 1: two strata of 10^6 points; drawn whole, they peak at 133 MB
        boxes = _family(1)
        tracemalloc.start()
        try:
            mp.stratified_count_moment(boxes, [-0.5, -0.25], 2_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * bs._BLOCK_VALUES * 8

    @pytest.mark.parametrize("power, n_samples, error", [
        (np.nan, 1000, ValueError),
        (np.inf, 1000, ValueError),
        (-np.inf, 1000, ValueError),
        ([-0.5, np.nan], 1000, ValueError),
        (-0.5, 1000.0, TypeError),
    ])
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, power,
                                                     n_samples, error):
        calls = {"draws": 0, "contains": 0}
        generator, contains = np.random.Generator, bs._box_contains

        def drawn(*args, **kwargs):
            calls["draws"] += 1
            return generator(*args, **kwargs)

        def counted(*args, **kwargs):
            calls["contains"] += 1
            return contains(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", drawn)
        monkeypatch.setattr(bs, "_box_contains", counted)
        with pytest.raises(error):
            mp.stratified_count_moment(_family(3), power, n_samples, 0)
        assert calls == {"draws": 0, "contains": 0}
        # the same call with good arguments draws and counts
        mp.stratified_count_moment(_family(3), -0.5, 1000, 0)
        assert calls["draws"] == 1 and calls["contains"] > 0

    @pytest.mark.parametrize("n_samples", [5, 12, 15])
    def test_too_few_samples_rejected(self, n_samples):
        # k = 3 has 8 boxes; a stratum of one point has no sample variance
        with pytest.raises(ValueError):
            mp.stratified_count_moment(_family(3), -0.5, n_samples, 0)


class TestModulation:
    def test_modulated_distance_decreases(self, boxes_k1):
        dists = [
            max(row) for row in mp.modulation_convergence(
                boxes_k1, [1.0, 4.0, 16.0], samples_per_axis=128, extent=16.0
            )
        ]
        assert dists[0] > dists[1] > dists[2]

    @pytest.mark.parametrize("k", [1, 2])
    def test_rows_match_per_box_apply(self, k):
        # the reference takes a full forward transform for every (R, box)
        boxes = bs.build_boxes(bs.build_perron_rectangles(k))
        r_list = [1.0, 3.0, 9.0]
        grid = mp.GridFunction(np.zeros(64), 6.0)
        expected = []
        for r_mod in r_list:
            row = []
            for f_box, ntilde, ray in zip(boxes.boxes_f, boxes.normals,
                                          boxes.light_rays):
                g = mp.fft_multiplier_apply(
                    embed(mp.indicator_box(f_box, 6.0, 64), 64, 6.0),
                    mp.Cone(), shift=r_mod * ray)
                oracle = embed(mp.box_image_grid(f_box, ntilde, grid), 64,
                               6.0).values
                row.append(float(np.linalg.norm(g.values - oracle)
                                 / np.linalg.norm(oracle)))
            expected.append(row)
        # the sweep compares spectra (Parseval), so rounding differs from
        # this spatial reference (measured below 5.2e-15 relative)
        got = mp.modulation_convergence(boxes, r_list, 64, 6.0)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_rows_match_numpy_spectra(self, boxes_k1):
        # a reference with no ``_spectrum`` call: np.fft.fftn spectra and the
        # sampled symbol, compared by Parseval as the sweep does
        r_list = [1.0, 3.0, 9.0]
        grid = mp.GridFunction(np.zeros(64), 6.0)
        freqs = [grid.freqs()] * 3
        expected = [[] for _ in r_list]
        for f_box, ntilde, ray in zip(boxes_k1.boxes_f, boxes_k1.normals,
                                      boxes_k1.light_rays):
            fhat = np.fft.fftn(
                embed(mp.indicator_box(f_box, 6.0, 64), 64, 6.0).values)
            ohat = np.fft.fftn(
                embed(mp.box_image_grid(f_box, ntilde, grid), 64, 6.0).values)
            for row, r_mod in zip(expected, r_list):
                m = mp.sample_symbol(mp.Cone(), freqs, shift=r_mod * ray)
                row.append(float(np.linalg.norm(m * fhat - ohat)
                                 / np.linalg.norm(ohat)))
        got = mp.modulation_convergence(boxes_k1, r_list, 64, 6.0)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_builds_through_public_builders(self, boxes_k1, monkeypatch):
        built = []
        for name in ("indicator_box", "box_image_grid"):
            monkeypatch.setattr(mp, name, lambda *a, _f=getattr(mp, name),
                                _n=name: built.append(_n) or _f(*a))
        mp.modulation_convergence(boxes_k1, [1.0, 2.0], 32, 3.0)
        assert sorted(built) == ["box_image_grid"] * 2 + ["indicator_box"] * 2

    def test_memory_holds_one_box(self):
        def peak(k):
            boxes = bs.build_boxes(bs.build_perron_rectangles(k))
            tracemalloc.start()
            try:
                mp.modulation_convergence(boxes, [1.0, 3.0, 9.0], 64, 6.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # k = 1 has two boxes, k = 2 four
        assert peak(2) <= 1.1 * peak(1)

    @pytest.mark.parametrize("samples", [64, 128])
    def test_thresholds_rebuild_sampled_symbol(self, boxes_k1, samples):
        freqs = mp.GridFunction(np.zeros(samples), 12.0).freqs()
        rank = np.empty(samples, dtype=int)
        rank[np.argsort(freqs)] = np.arange(samples)
        rank = rank[:, None, None]          # place of xi_1 in ascending order
        shifts = [r * ray for ray in boxes_k1.light_rays
                  for r in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)]
        halves = []
        for shift in shifts + [np.zeros(3)]:
            lo, hi = mp._cone_thresholds(freqs, shift)
            rebuilt = np.where(rank < lo, 0.0,
                               np.where(rank < hi, mp.BOUNDARY_VALUE, 1.0))
            symbol = mp.sample_symbol(mp.Cone(), [freqs] * 3, shift=shift)
            assert np.array_equal(rebuilt, symbol)
            halves.append(int(np.sum(symbol == mp.BOUNDARY_VALUE)))
        # 24 on the modulated symbols at either size, more at the apex
        assert sum(halves[:-1]) > 0 and halves[-1] > 0

    def test_sweep_holds_no_full_grid(self, boxes_k1):
        # the oracle's block and its axis-2 lines, two tiles and O(M^2) per
        # R: 0.50 complex grid measured at 128^3; two full spectra took 2.10
        tracemalloc.start()
        try:
            mp.modulation_convergence(boxes_k1, [1.0, 4.0, 16.0, 64.0], 128,
                                      12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 128**3 * 16

    @pytest.mark.parametrize("k, samples, extent",
                             [(1, 64, 6.0), (2, 64, 6.0), (1, 128, 12.0)])
    def test_rows_do_not_depend_on_the_tile(self, k, samples, extent,
                                            monkeypatch):
        # tiles of 1, 3 and 8 columns (the last tile narrower at 3) and of
        # all M; each budget is seen to give its width
        boxes = bs.build_boxes(bs.build_perron_rectangles(k))
        r_list = [1.0, 3.0, 9.0]
        default = mp.modulation_convergence(boxes, r_list, samples, extent)
        tiles = mp._spectrum_tiles
        for width in (1, 3, 8, samples):
            seen = []

            def recorded(block, m):
                for cols, tile in tiles(block, m):
                    seen.append(cols.stop - cols.start)
                    yield cols, tile

            monkeypatch.setattr(mp, "_spectrum_tiles", recorded)
            monkeypatch.setattr(mp, "_TILE_VALUES", width * samples**2)
            rows = mp.modulation_convergence(boxes, r_list, samples, extent)
            assert rows == default
            # each box's two spectra, tile by tile
            last = samples % width or width
            per_box = [width] * (samples // width) + [last] * (last < width)
            assert seen == [n for n in per_box for _ in "io"] * boxes.n_boxes

    def test_periodization_refused_before_any_build(self, boxes_k1,
                                                    monkeypatch):
        # the k = 1 boxes reach 1.017 from the origin in the sup norm, so
        # with one cell of antialiasing they exceed half of extent 2.0 at
        # 64^3 (1.080 > 1.0) but not of 2.2 (1.086 <= 1.1)
        built = []
        for name in ("indicator_box", "box_image_grid"):
            monkeypatch.setattr(mp, name, lambda *a, _f=getattr(mp, name):
                                built.append(a) or _f(*a))
        with pytest.raises(ValueError, match="half the extent"):
            mp.modulation_convergence(boxes_k1, [1.0], 64, 2.0)
        assert built == []
        mp.modulation_convergence(boxes_k1, [1.0], 64, 2.2)
        assert len(built) == 4

    def test_empty_sweep(self, boxes_k1):
        assert mp.modulation_convergence(boxes_k1, [], 64, 6.0) == []

    def test_unresolvable_boxes_rejected(self):
        fine = bs.build_boxes(bs.build_perron_rectangles(5))
        with pytest.raises(ValueError):
            mp.modulation_convergence(fine, [1.0], samples_per_axis=64,
                                      extent=24.0)

    def test_small_modulation_rejected(self, boxes_k1, monkeypatch):
        built = []
        indicator_box = mp.indicator_box
        monkeypatch.setattr(mp, "indicator_box",
                            lambda *a: built.append(a) or indicator_box(*a))
        with pytest.raises(ValueError):
            mp.modulation_convergence(boxes_k1, [1.0, 4.0, 0.5])
        assert built == []

    @pytest.mark.parametrize("r_mod", [np.nan, np.inf])
    def test_nonfinite_modulation_rejected(self, boxes_k1, monkeypatch,
                                           r_mod):
        # NaN fails every comparison, so the guard must require R >= 1
        built = []
        indicator_box = mp.indicator_box
        monkeypatch.setattr(mp, "indicator_box",
                            lambda *a: built.append(a) or indicator_box(*a))
        with pytest.raises(ValueError, match="finite"):
            mp.modulation_convergence(boxes_k1, [r_mod], 32, 8.0)
        assert built == []


def _gaussian_profile(samples):
    grid = mp.GridFunction(np.zeros(samples), 4.0)
    x = grid.axis()
    return grid.with_values(np.exp(-4.0 * x**2).astype(complex),
                            support_radius=2.0)


NORMAL_LASTS = [0.0, 0.5, -0.25, 1e-3]


def _tensor_defect_4d(phi, k, normal_last):
    """The separability defect of H(1_F ⊗ phi) = H^(3)(1_F) ⊗ phi for the
    half-space with normal (-1, u_1, u_2, c): the 4D grid 1_F ⊗ phi, with
    1_F on 32^3 samples of [-4, 4)^3, its full transform and inverse,
    against the 3D image ⊗ phi."""
    boxes = bs.build_boxes(bs.build_perron_rectangles(k))
    ntilde3 = boxes.normals[0]
    ind3 = embed(mp.indicator_box(boxes.boxes_f[0], 4.0, 32), 32, 4.0)
    fhat = np.fft.fftn(np.multiply.outer(ind3.values, phi.values))
    normal4 = np.concatenate([ntilde3, [normal_last]])
    symbol = mp.sample_symbol(mp.HalfSpace(tuple(normal4)),
                              [ind3.freqs()] * 3 + [phi.freqs()])
    applied = np.fft.ifftn(fhat * symbol)
    image3 = mp.fft_multiplier_apply(ind3, mp.HalfSpace(tuple(ntilde3)))
    tensor = np.multiply.outer(image3.values, phi.values)
    return float(np.linalg.norm(applied - tensor) / np.linalg.norm(tensor))


class TestTensorExtension:
    @pytest.fixture()
    def phi(self):
        return _gaussian_profile(32)

    def test_separability_is_exact(self, phi):
        # the profile as long as the box grid's axis
        assert _tensor_defect_4d(phi, 1, 0.0) < 1e-12

    def test_negative_control_breaks_separability(self, phi):
        assert _tensor_defect_4d(phi, 1, 0.5) > 1e-3

    @pytest.mark.parametrize("normal_last", NORMAL_LASTS)
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("phi_samples", [16, 8])
    def test_matches_4d_transform(self, phi_samples, k, normal_last):
        # with c = 0 the symbol ignores the fourth frequency, so the 3D image
        # tensored with phi is the 4D transform up to rounding (measured
        # below 4.1e-16); any c != 0 is a negative control (measured at
        # least 0.021, at c = 1e-3)
        err = _tensor_defect_4d(_gaussian_profile(phi_samples), k,
                                normal_last)
        if normal_last == 0.0:
            assert err < 1e-12
        else:
            assert err > 1e-3

    def test_rule_counts_match_each_slice(self, phi):
        # every xi4 slice of c = 0.5, and c = 0 (m3), of the 4D symbol
        boxes = bs.build_boxes(bs.build_perron_rectangles(1))
        grid = mp.GridFunction(np.zeros(64), 4.0)
        g3 = mp._linear_form(-boxes.normals[0], np.zeros(3),
                             [grid.freqs()] * 3).ravel()
        offsets = np.multiply.outer([0.0, 0.5], phi.freqs())
        lo, hi = mp._rule_counts(np.sort(g3), offsets)
        for index, offset in np.ndenumerate(offsets):
            m4 = mp._boundary_rule(g3 + -offset)
            assert lo[index] == np.count_nonzero(m4 < mp.BOUNDARY_VALUE)
            assert hi[index] == np.count_nonzero(m4 < 1.0)
        assert np.any(hi[1] > lo[1]) and np.any(lo[1] != lo[0])

    def test_profile_support_guard(self, phi):
        # periodization would alias a profile wider than half the extent
        wide = phi.with_values(phi.values, support_radius=2.5)
        with pytest.raises(ValueError, match="half the extent"):
            mp.fft_multiplier_apply(wide, mp.HalfSpace((-1.0,)))
