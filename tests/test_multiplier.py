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
from oracles import cone_dilation_probe, gaussian_box_probe


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
        f = mp.indicator_box(boxes_k1.boxes_f[0], 12.0, 64)
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

    def test_zero_extent_sweep_rejected(self, boxes_k1):
        # a zero spacing would divide the resolvability check by zero
        with pytest.raises(ValueError, match="extent"):
            mp.modulation_convergence(boxes_k1, [1.0], 8, 0.0)


def _box_grids(samples, extent=6.0):
    """The k = 1 indicators and closed-form oracles of both boxes."""
    boxes = bs.build_boxes(bs.build_perron_rectangles(1))
    grid = mp.GridFunction(np.zeros(samples), extent)
    return [g for f_box, ntilde in zip(boxes.boxes_f, boxes.normals)
            for g in (mp.indicator_box(f_box, extent, samples),
                      mp.box_image_grid(f_box, ntilde, grid))]


def _sparse_grid(samples, points):
    """A 3D grid with value 1 + index sum at each index triple of ``points``."""
    vals = np.zeros((samples,) * 3, dtype=complex)
    for p in points:
        vals[p] = 1.0 + sum(p)
    return mp.GridFunction(vals, 1.0)


class TestSpectrum:
    """``_spectrum`` transforms only the index spans that hold a nonzero, in
    another axis order than ``np.fft.fftn``; each line keeps its arithmetic,
    so the two agree to rounding."""

    @staticmethod
    def _assert_matches_fftn(f):
        ref = np.fft.fftn(f.values)
        got = mp._spectrum(f)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("samples", [32, 64])
    def test_box_grids(self, samples):
        # 4.2e-16 max|fhat| measured on these grids at 64^3 and 128^3
        for f in _box_grids(samples):
            self._assert_matches_fftn(f)

    @pytest.mark.parametrize("point", [(15, 15, 15), (0, 0, 15), (0, 15, 0),
                                       (15, 0, 0), (7, 15, 3)])
    def test_one_voxel_at_the_last_index(self, point):
        self._assert_matches_fftn(_sparse_grid(16, [point]))

    def test_row_live_at_both_ends(self):
        # one row's span is the whole i2 axis; another row is a single column
        self._assert_matches_fftn(
            _sparse_grid(16, [(2, 5, 0), (9, 5, 15), (4, 11, 8)]))

    def test_dense_gaussian(self):
        x = mp.GridFunction(np.zeros(32), 4.0).axis()
        r2 = sum(np.meshgrid(x**2, (x - 0.3)**2, (x + 0.7)**2,
                             indexing="ij", sparse=True))
        self._assert_matches_fftn(mp.GridFunction(np.exp(-r2), 4.0))

    def test_zero_grid_is_exactly_zero(self):
        got = mp._spectrum(mp.GridFunction(np.zeros((16,) * 3), 1.0))
        assert not np.any(got)

    def test_out_cases(self):
        f = _box_grids(32)[1]
        before = f.values.copy()
        ref = mp._spectrum(f)                     # out=None: a new array
        assert ref is not f.values and np.array_equal(f.values, before)
        out = np.full_like(before, np.nan)
        assert mp._spectrum(f, out=out) is out    # a separate array
        assert np.array_equal(out, ref) and np.array_equal(f.values, before)
        assert mp._spectrum(f, out=f.values) is f.values   # the input itself
        assert np.array_equal(f.values, ref)

    def test_1d_is_numpy_fft(self):
        g = mp.indicator_interval(8.0, 256, -0.5, 1.5)
        assert np.array_equal(mp._spectrum(g), np.fft.fft(g.values))
        out = np.empty_like(g.values)
        assert mp._spectrum(g, out=out) is out
        assert np.array_equal(out, np.fft.fft(g.values))

    def test_in_place_memory(self):
        # 0.0021 grid measured at 64^3: the live-column mask and FFT buffers
        f = _box_grids(64)[1]
        tracemalloc.start()
        try:
            mp._spectrum(f, out=f.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * f.values.nbytes


class TestBoxImage:
    def test_center_value(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        v = mp.box_halfspace_image(fb, nt, fb.center)
        assert v == pytest.approx(0.5 + 0.0j)

    def test_translate_lower_bound(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        ft = boxes_k1.boxes_f_shifted[0]
        kappa = mp.translate_image_minimum(fb, nt)
        rng = np.random.default_rng(73)
        local = rng.uniform(-1, 1, size=(500, 3)) * ft.half_extents
        pts = ft.center + local @ ft.axes
        vals = np.abs(mp.box_halfspace_image(fb, nt, pts))
        assert np.all(vals >= kappa * (1 - 1e-12))

    def test_zero_outside_cross_section(self, boxes_k1):
        fb, nt = boxes_k1.boxes_f[0], boxes_k1.normals[0]
        outside = fb.center + 2.0 * fb.axes[1]
        assert mp.box_halfspace_image(fb, nt, outside) == 0.0

    def test_non_axis_normal_rejected(self, boxes_k1):
        fb = boxes_k1.boxes_f[0]
        with pytest.raises(ValueError):
            mp.box_halfspace_image(fb, np.array([0.0, 0.3, 1.0]), fb.center)

    def test_translate_integral_matches_antiderivative(self):
        # independent oracle: adaptive Gauss-Kronrod on the line integrand,
        # for every box at k = 1..8
        for k in range(1, 9):
            boxes = bs.build_boxes(bs.build_perron_rectangles(k))
            for fb, nt in zip(boxes.boxes_f, boxes.normals):
                idx, _, a, b = mp.box_axis_interval(fb, nt)
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

            ind = mp.indicator_box(box, extent, samples).values
            assert np.array_equal(ind, _full_grid(grid, coverage))
            img = mp.box_image_grid(box, ntilde, grid).values
            want = _full_grid(
                grid, lambda pts: mp.box_halfspace_image(box, ntilde, pts))
            assert np.array_equal(img, want)
            assert np.count_nonzero(ind) > 0 and np.count_nonzero(img) > 0

    def test_image_matches_full_grid_at_benchmark_size(self, boxes_k1):
        # modulation-128's grid: k = 1, 128^3, extent 12
        grid = mp.GridFunction(np.zeros(128), 12.0)
        for box, ntilde in zip(boxes_k1.boxes_f, boxes_k1.normals):
            img = mp.box_image_grid(box, ntilde, grid).values
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
        img = mp.box_image_grid(box, ntilde, grid).values
        want = _full_grid(
            grid, lambda pts: mp.box_halfspace_image(box, ntilde, pts))
        assert np.array_equal(img, want) and np.count_nonzero(img) > 0

    def test_image_allocates_no_full_size_temporary(self, boxes_k1):
        # the output and the blocks around the prism: 1.03 grids measured
        # at 64^3; a full-grid float form or boolean mask would not fit
        grid = mp.GridFunction(np.zeros(64), 6.0)
        tracemalloc.start()
        try:
            mp.box_image_grid(boxes_k1.boxes_f[0], boxes_k1.normals[0], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 64**3 * 16

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

            ind = mp.indicator_box(box, 4.0, 128).values
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
    def test_symbol_scale_invariance_on_lattice(self):
        for lam in (2, 4):
            assert mp.cone_dilation_symbol_defect(lam) < 1e-6

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
        monkeypatch.setattr(mp, "translate_image_integral",
                            counting("integral", mp.translate_image_integral))
        monkeypatch.setattr(mp, "stratified_count_moment", moment)
        for k in (3, 4):
            boxes = _family(k)
            before = dict(calls)
            reports = mp.ratio_experiment_level(boxes, [1.0, 1.5, 2.0],
                                                15_000, seed=11)
            # one union and one left-side pass per level call
            assert calls == {"union": before["union"] + 1,
                             "integral": before["integral"] + 2**k}
            assert [r.p for r in reports] == [1.0, 1.5, 2.0]
            for r in reports:
                moment, err = count_moment(
                    boxes, r.p / 2.0 - 1.0, 15_000,
                    np.random.SeedSequence(11, spawn_key=(r.k,)))
                assert r.rhs_exact == float(moment ** (1.0 / r.p))
                assert r.rhs_stderr == float(
                    (1.0 / r.p) * moment ** (1.0 / r.p - 1.0) * err)
        assert calls == {"union": 2, "integral": 8 + 16}
        assert moments == [(k, [-0.5, -0.25, 0.0], 15_000, 11, (k,))
                           for k in (3, 4)]

    def test_reports_carry_the_level_kappa(self, boxes_k3):
        kappa = min(mp.translate_image_minimum(f, n)
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


def _pair_loop_moment(boxes, powers, n_samples, seed):
    """The count moment as first written, one ``contains`` call per pair of
    stratum and box; one (estimate, stderr) per power, from one draw."""
    n = boxes.n_boxes
    per_box = np.full(n, n_samples // n)
    per_box[: n_samples % n] += 1
    rng = np.random.Generator(np.random.Philox(seed))
    sums = [[0.0, 0.0] for _ in powers]
    for j, f_box in enumerate(boxes.boxes_f):
        m = int(per_box[j])
        local = rng.uniform(-1.0, 1.0, size=(m, 3)) * f_box.half_extents
        pts = f_box.center + local @ f_box.axes
        counts = np.zeros(m, dtype=np.int64)
        for other in boxes.boxes_f:
            counts += other.contains(pts)
        vol = f_box.volume()
        for acc, power in zip(sums, powers):
            g = counts.astype(float) ** power
            acc[0] += vol * g.mean()
            acc[1] += vol**2 * g.var(ddof=1) / m
    return [(total, float(np.sqrt(var))) for total, var in sums]


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
        expected = _pair_loop_moment(boxes, self.POWERS, n_samples, 2026 + k)
        got = mp.stratified_count_moment(boxes, self.POWERS, n_samples,
                                         2026 + k)
        assert [tuple(pair) for pair in zip(*got)] == expected

    @pytest.mark.parametrize("strata", [1, 3, 5])
    def test_groups_of_strata_do_not_change_bits(self, monkeypatch, strata):
        # k = 4: 16 strata of 63 or 62 points, so the groups end unevenly
        boxes = _family(4)
        expected = _pair_loop_moment(boxes, (-0.5,), 1003, 9)[0]
        monkeypatch.setattr(bs, "_BLOCK_VALUES", 16 * 63 * strata)
        assert mp.stratified_count_moment(boxes, -0.5, 1003, 9) == expected

    @pytest.mark.parametrize("cap", [1, 7, 62])
    def test_split_strata_agree_with_pair_loop(self, monkeypatch, cap):
        # k = 4: strata of 63 or 62 points, drawn in chunks of at most cap
        boxes = _family(4)
        expected = _pair_loop_moment(boxes, self.POWERS, 1003, 9)
        monkeypatch.setattr(bs, "_BLOCK_VALUES", 16 * cap)
        got = mp.stratified_count_moment(boxes, self.POWERS, 1003, 9)
        for pair, ref in zip(zip(*got), expected):
            assert pair == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_face_points_counted_as_contains_does(self):
        boxes = _family(6).boxes_f
        pts = _face_points(boxes)
        expected = np.zeros(len(pts), dtype=np.int64)
        for box in boxes:
            expected += box.contains(pts)
        assert np.array_equal(mp._cover_counts(boxes, pts), expected)

    def test_full_test_runs_on_thin_slab_candidates(self, monkeypatch):
        boxes = _family(7)
        seen = {"points": 0, "hits": 0}
        contains = bs.Box3.contains

        def counted(box, points, slack=0.0):
            inside = contains(box, points, slack)
            seen["points"] += len(inside)
            seen["hits"] += int(inside.sum())
            return inside

        monkeypatch.setattr(bs.Box3, "contains", counted)
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
                g = mp.fft_multiplier_apply(mp.indicator_box(f_box, 6.0, 64),
                                            mp.Cone(), shift=r_mod * ray)
                oracle = mp.box_image_grid(f_box, ntilde, grid).values
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
            fhat = np.fft.fftn(mp.indicator_box(f_box, 6.0, 64).values)
            ohat = np.fft.fftn(mp.box_image_grid(f_box, ntilde, grid).values)
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

    def test_peak_memory_is_two_spectra(self, boxes_k1):
        # the two densities overwrite the oracle's spectrum: 2.23 complex
        # grids measured at 64^3; a full symbol and product per R took 4.10
        tracemalloc.start()
        try:
            mp.modulation_convergence(boxes_k1, [1.0, 3.0, 9.0], 64, 6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 64**3 * 16

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


def _gaussian_profile(samples):
    grid = mp.GridFunction(np.zeros(samples), 4.0)
    x = grid.axis()
    return grid.with_values(np.exp(-4.0 * x**2).astype(complex),
                            support_radius=2.0)


def _tensor_defect_4d(phi, k, samples_3d, extent_3d=4.0, normal_last=0.0):
    """The separability defect as first written: the 4D grid 1_F ⊗ phi,
    its full transform and inverse, against the 3D image ⊗ phi."""
    boxes = bs.build_boxes(bs.build_perron_rectangles(k))
    ntilde3 = boxes.normals[0]
    ind3 = mp.indicator_box(boxes.boxes_f[0], extent_3d, samples_3d)
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

    def test_zero_profile(self, phi):
        zero = phi.with_values(np.zeros_like(phi.values))
        assert mp.tensor_extension_check(zero, 1, samples_3d=64) == 0.0

    def test_separability_is_exact(self, phi):
        assert mp.tensor_extension_check(phi, 1, samples_3d=64) == 0.0

    def test_negative_control_breaks_separability(self, phi):
        err = mp.tensor_extension_check(phi, 1, samples_3d=64, normal_last=0.5)
        assert err > 1e-3

    @pytest.mark.parametrize("normal_last", [0.0, 0.5, -0.25, 1e-3])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("phi_samples", [16, 8])
    def test_matches_4d_transform(self, phi_samples, k, normal_last):
        # the check sums Parseval slices instead of transforming the 4D grid,
        # so rounding differs from the reference (measured below 1.4e-14
        # relative at 32^3)
        phi = _gaussian_profile(phi_samples)
        got = mp.tensor_extension_check(phi, k, samples_3d=32,
                                        normal_last=normal_last)
        expected = _tensor_defect_4d(phi, k, 32, normal_last=normal_last)
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-15)

    def test_memory_holds_no_4d_grid(self, phi):
        # a handful of 3D grids; the 4D grid alone would be 32 of them
        tracemalloc.start()
        try:
            mp.tensor_extension_check(phi, 1, samples_3d=64, normal_last=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 64**3 * 16

    def test_profile_support_guard(self, phi):
        wide = phi.with_values(phi.values, support_radius=2.5)
        with pytest.raises(ValueError, match="half the extent"):
            mp.tensor_extension_check(wide, 1, samples_3d=64)
