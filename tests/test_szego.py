"""Tests for the Cayley transform, Lie-ball membership, boundary density,
the tube-domain kernel in closed form and by quadrature, and the ball/tube
kernel relation."""

import collections
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conekit import cli
from conekit import jordan as jd
from conekit import szego as sz
from conekit.errors import BudgetExceededError, NearSingularityError
from oracles import (classical_lie_ball_contains, compact_jacobian_bounds,
                     rejection_lie_ball)


def spin_elem(*coords):
    return jd.Element(jd.spin_factor(len(coords)), np.array(coords, dtype=complex))


def spin_batch(coords):
    """A batched spin element of the (m, n) coordinate rows ``coords``."""
    return jd.Element(jd.spin_factor(coords.shape[-1]), coords)


def fd_jacobian_modulus(w, step=1e-5):
    """|J_Phi| at one Jordan element by central differences of the Cayley
    map (4n maps).  The transform is holomorphic, so the determinant of the
    real 2n x 2n differential equals |J_Phi|^2."""
    n = w.algebra.dim
    base = np.concatenate([w.coords.real, w.coords.imag])
    bumps = step * np.eye(2 * n)
    points = np.concatenate([base + bumps, base - bumps])
    image = sz.cayley(
        jd.Element(w.algebra, points[:, :n] + 1j * points[:, n:])).coords
    image = np.concatenate([image.real, image.imag], axis=-1)
    jac = (image[: 2 * n] - image[2 * n:]).T / (2.0 * step)
    return float(np.sqrt(abs(np.linalg.det(jac))))


class TestCayley:
    def test_zero_maps_to_ie(self):
        img = sz.cayley(jd.zero(jd.spin_factor(3)))
        assert np.allclose(img.coords, [1j, 0.0, 0.0])

    def test_scalar_multiple_reduces_to_moebius(self):
        # w = t e reduces to the 1D map i (1 + t) / (1 - t); t = 1/2 -> 3i
        img = sz.cayley(spin_elem(0.5, 0.0, 0.0))
        assert np.allclose(img.coords, [3j, 0.0, 0.0])

    def test_inverse_of_ie_is_zero(self):
        back = sz.cayley_inverse(spin_elem(1j, 0.0, 0.0))
        assert np.max(np.abs(back.coords)) < 1e-14

    def test_round_trip_on_lie_ball_samples(self):
        rng = np.random.default_rng(101)
        for row in sz.sample_lie_ball(3, 300, rng):
            w = spin_elem(*row)
            back = sz.cayley_inverse(sz.cayley(w))
            assert np.max(np.abs(back.coords - w.coords)) < 1e-10

    def test_round_trip_on_tube_samples(self):
        rng = np.random.default_rng(103)
        z_elem = sz.sample_tube(4, 200, rng)
        back = sz.cayley(sz.cayley_inverse(z_elem))
        assert np.max(np.abs(back.coords - z_elem.coords)) < 1e-10

    def test_matrix_algebra_round_trip(self):
        rng = np.random.default_rng(107)
        a = jd.sym_matrix(3)
        for _ in range(100):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            w = jd.Element(a, jd.mat_to_vec((m + m.T) / 2) * 0.15)
            back = sz.cayley_inverse(sz.cayley(w))
            assert np.max(np.abs(back.coords - w.coords)) < 1e-10

    def test_singular_input_rejected(self):
        with pytest.raises(NearSingularityError):
            sz.cayley(spin_elem(1.0, 0.0, 0.0))
        with pytest.raises(NearSingularityError):
            sz.cayley_inverse(spin_elem(-1j, 0.0, 0.0))


class TestLieBall:
    def test_origin_inside(self):
        assert sz.lie_ball_contains(np.zeros(3))

    def test_real_unit_vector_on_boundary(self):
        assert not sz.lie_ball_contains(np.array([1.0, 0.0, 0.0]))

    def test_imaginary_point_inside(self):
        # |q|^2 = 0.6561, 2|z|^2 - 1 = 0.62
        assert sz.lie_ball_contains(np.array([0.9j, 0.0, 0.0]))

    def test_needs_dimension_three(self):
        with pytest.raises(ValueError, match="dimension >= 3"):
            sz.conformal_consistency_check(2, 10, seed=1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_the_classical_chart(self, n):
        # the twist (z_1, z') -> (z_1, i z') carries the classical
        # inequalities at z onto the spin-factor ones at w; few points of
        # the cube lie in the ball at n = 5, so the test also scales them
        # to |w|^2 ~ 2/3, near its boundary
        rng = np.random.default_rng(430 + n)
        re, im = rng.uniform(-1.0, 1.0, size=(2, 10_000, n))
        for w in (re + 1j * im, (re + 1j * im) / np.sqrt(n)):
            z = w.copy()
            z[:, 1:] *= -1j                             # the untwisted rows
            for margin in (0.0, 0.05):
                inside = sz.lie_ball_contains(w, margin)
                assert np.array_equal(inside,
                                      classical_lie_ball_contains(z, margin))
                assert inside.any() and not inside.all()


class TestConformalConsistency:
    def test_zero_failures_small_run(self):
        for n in (3, 4, 5):
            report = sz.conformal_consistency_check(n, 1000, seed=n)
            assert report["failures"] == 0

    @pytest.mark.parametrize("samples", [0, -5, 2.0, True, None])
    def test_samples_must_be_a_positive_int(self, samples):
        # 0 used to report an infinite worst margin, -5 to report -10
        # samples
        with pytest.raises(ValueError, match="positive integer"):
            sz.conformal_consistency_check(3, samples, seed=1)

    def test_counts_every_failure(self, monkeypatch):
        # both maps broken: each Lie-ball image leaves the tube (its
        # imaginary part lies in -Omega) and each pull-back leaves the ball
        cayley = sz.cayley
        monkeypatch.setattr(sz, "cayley", lambda w: -cayley(w))
        monkeypatch.setattr(
            sz, "cayley_inverse",
            lambda z: jd.Element(z.algebra, np.full(z.coords.shape, 2.0 + 0j)))
        samples = 5000
        report = sz.conformal_consistency_check(3, samples, seed=3)
        assert report["samples"] == 2 * samples
        assert report["failures"] == 2 * samples
        assert report["worst_tube_margin"] < 0

    def test_boundary_margin_points_still_map_inside(self):
        rng = np.random.default_rng(109)
        hits = 0
        for row in sz.sample_lie_ball(3, 5000, rng):
            w = spin_elem(*row)
            dd = abs(jd.determinant(w)) ** 2
            slack = min(1.0 - dd, dd - (2 * jd.norm(w) ** 2 - 1))
            if slack > 2e-3:
                continue
            hits += 1
            tube = sz.TubePoint(sz.cayley(w))
            assert jd.in_cone(tube.y) and tube.margin() > 0
        assert hits > 0


class TestJacobianDensity:
    def test_identity_at_zero(self):
        assert sz.jacobian_density(jd.zero(jd.spin_factor(3))) == 1.0

    def test_hand_value(self):
        # x = (1,0,0): x^2 = e, det(2e) = 4, density 4^(-3/2) = 1/8
        x = jd.Element(jd.spin_factor(3), np.array([1.0, 0.0, 0.0]))
        assert sz.jacobian_density(x) == pytest.approx(0.125)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(113)
        for a in (jd.spin_factor(4), jd.sym_matrix(3)):
            for _ in range(200):
                x = jd.Element(a, rng.normal(size=a.dim) * 3.0)
                assert sz.jacobian_density(x) > 0.0

    def test_decay_exponent_along_rays(self):
        # along a generic ray the density behaves like t^(-2 n / r * r) = t^(-2n)
        a = jd.spin_factor(3)
        v = jd.Element(a, np.array([1.3, 0.4, -0.2]))
        radii = np.array([10.0, 100.0, 1000.0])
        vals = np.array([sz.jacobian_density(t * v) for t in radii])
        slopes = np.diff(np.log(vals)) / np.diff(np.log(radii))
        assert np.allclose(slopes, -2 * a.dim, atol=0.05)


class TestCompactJacobianBounds:
    def test_single_sample_degenerate(self):
        rng = np.random.default_rng(127)
        z = sz.sample_shilov_boundary(3, 1, rng, margin=0.2)
        lo, hi = compact_jacobian_bounds(z, margin=0.1)
        assert lo == hi > 0.0

    def test_bounds_ordered_and_finite(self):
        rng = np.random.default_rng(131)
        zs = sz.sample_shilov_boundary(3, 40, rng, margin=0.2)
        lo, hi = compact_jacobian_bounds(zs, margin=0.1)
        assert 0.0 < lo <= hi < np.inf

    def test_ratio_grows_toward_singular_set(self):
        # z(theta) = exp(i theta) e1 has |det(e - w)| = (2 sin(theta/2))^2,
        # so shrinking theta walks straight into the Cayley pole at w = e
        def point(theta):
            return np.exp(1j * theta) * np.array([1.0, 0.0, 0.0])

        reference = point(np.pi / 2)
        ratios = []
        for margin in (1e-1, 1e-2, 1e-3):
            theta = 2.0 * np.arcsin(np.sqrt(10.0 * margin) / 2.0)
            lo, hi = compact_jacobian_bounds(
                [reference, point(theta)], margin=margin / 2
            )
            ratios.append(hi / lo)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 100 * ratios[0]

    def test_margin_violation_rejected(self):
        z = np.array([1.0 + 0.0j, 0.0, 0.0])   # det(e - w) = 0 exactly
        with pytest.raises(ValueError):
            compact_jacobian_bounds([z], margin=1e-3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bounds_are_scaled_jacobian_extremes(self, n):
        # on the Shilov boundary 2^n |J_Phi| = det(e + x^2)^(n/2) at the real
        # point x = Phi(w); the oracle maps the samples and takes the density
        rng = np.random.default_rng(160 + n)
        zs = sz.sample_shilov_boundary(n, 200, rng, margin=0.2)
        lo, hi = compact_jacobian_bounds(zs, margin=0.1)
        image = sz.cayley(spin_batch(zs)).coords
        assert np.max(np.abs(image.imag)) <= 1e-8 * (1 + np.max(np.abs(image)))
        values = 1.0 / sz.jacobian_density(
            jd.Element(jd.spin_factor(n), image.real))
        assert lo == pytest.approx(values.min(), rel=1e-11, abs=0.0)
        assert hi == pytest.approx(values.max(), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("bad", [
        1.01 * np.exp(1.0j) * np.array([1.0, 0.0, 0.0]),  # off |z| = 1
        np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),        # det w = 0
    ])
    def test_sample_off_shilov_boundary_rejected(self, bad):
        rng = np.random.default_rng(167)
        zs = sz.sample_shilov_boundary(3, 5, rng, margin=0.2)
        with pytest.raises(ValueError, match="Shilov boundary"):
            compact_jacobian_bounds(np.vstack([zs, bad]), margin=0.1)

    def test_stability_under_doubling(self):
        rng = np.random.default_rng(139)
        zs = sz.sample_shilov_boundary(3, 80, rng, margin=0.3)
        lo1, hi1 = compact_jacobian_bounds(zs[:40], margin=0.1)
        lo2, hi2 = compact_jacobian_bounds(zs, margin=0.1)
        assert lo2 <= lo1 * 1.05 and hi2 >= hi1 * 0.95


class TestKernelQuadrature:
    def test_reference_point(self):
        z = sz.TubePoint(spin_elem(1j, 0.0, 0.0))
        s = sz.szego_kernel_quadrature(z, np.zeros(3), tol=1e-8)
        assert s.value == pytest.approx(1.0 / (4 * np.pi**2), rel=1e-8)
        assert s.error_estimate <= 1e-8

    def test_translation_covariance(self):
        z = sz.TubePoint(spin_elem(0.3 + 1.2j, -0.2 + 0.1j, 0.4 - 0.3j))
        u = np.array([0.5, -0.1, 0.2])
        v = np.array([1.0, 2.0, -0.5])
        s1 = sz.szego_kernel_quadrature(z, u, tol=1e-6)
        z2 = sz.TubePoint(jd.Element(z.z.algebra, z.z.coords + v))
        s2 = sz.szego_kernel_quadrature(z2, u + v, tol=1e-6)
        assert abs(s1.value - s2.value) <= 1e-6 * abs(s1.value)

    def test_vertical_scaling(self):
        base = sz.szego_kernel_quadrature(
            sz.TubePoint(spin_elem(1j, 0.0, 0.0)), np.zeros(3), tol=1e-8
        )
        for lam in (2.0, 5.0):
            s = sz.szego_kernel_quadrature(
                sz.TubePoint(spin_elem(lam * 1j, 0.0, 0.0)),
                np.zeros(3),
                tol=1e-8,
            )
            assert s.value == pytest.approx(base.value * lam**-3, rel=1e-7)

    @pytest.mark.parametrize("coords, u", [
        ((0.0 + 1j, 0.0, 0.0), (0.0, np.nan, 0.0)),
        ((np.nan + 1j, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, np.inf, 0.0), (0.0, 0.0, 0.0)),
        ((complex(0.0, np.inf), 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0 + 1j, 0.0, 0.0), (np.inf, 0.0, 0.0)),
    ], ids=["nan u", "nan Re z", "inf Re z", "inf Im z", "inf u"])
    def test_non_finite_input_refused_before_any_level(self, monkeypatch,
                                                       coords, u):
        # bad input is a usage error, not a missed tolerance: no level runs
        def no_level(*args):
            raise AssertionError("a quadrature level ran")

        monkeypatch.setattr(sz, "_kernel_fixed_order", no_level)
        with pytest.raises(ValueError, match="must be finite"):
            sz.szego_kernel_quadrature(sz.TubePoint(spin_elem(*coords)),
                                       np.array(u))

    def test_margin_violation_rejected(self):
        z = sz.TubePoint(spin_elem(1e-4 * 1j, 0.0, 0.0))
        with pytest.raises(ValueError):
            sz.szego_kernel_quadrature(z, np.zeros(3))

    def test_nan_imaginary_part_rejected(self):
        z = sz.TubePoint(spin_elem(complex(0.0, np.nan), 0.0, 0.0))
        with pytest.raises(ValueError, match="margin"):
            sz.szego_kernel_quadrature(z, np.zeros(3))


class TestClosedFormKernel:
    def test_matches_the_quadrature_in_value_and_phase(self):
        # the phi-trapezoid at tol 1e-10 is the oracle of the closed form
        z, u = cli._kernel_points(3, 400, np.random.default_rng(167))
        quad = np.array([
            sz.szego_kernel_quadrature(jd.Element(z.algebra, zz), uu,
                                       tol=1e-10).value
            for zz, uu in zip(z.coords, u)])
        closed = sz.szego_kernel(z, u)
        assert np.max(np.abs(closed / quad - 1.0)) <= 1e-12
        assert np.max(np.abs(np.angle(closed / quad))) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_constant_is_the_radial_integral(self, n):
        # S_T(ie, 0) = integral of exp(-2 pi xi_1) over the cone, whose slice
        # at xi_1 = s is a ball of radius s: vol(B^(n-1)) Gamma(n) / (2 pi)^n
        ball = math.pi ** ((n - 1) / 2) / math.gamma((n + 1) / 2)
        radial = ball * math.gamma(n) / (2.0 * math.pi) ** n
        ie = 1j * jd.identity(jd.spin_factor(n))
        c_n = sz.szego_kernel(ie, np.zeros(n))
        assert c_n.imag == 0.0
        assert c_n.real == pytest.approx(radial, rel=1e-14)

    def test_batch_equals_per_row_calls(self):
        z, u = cli._kernel_points(4, 30, np.random.default_rng(173))
        single = [complex(sz.szego_kernel(jd.Element(z.algebra, zz), uu))
                  for zz, uu in zip(z.coords, u)]
        assert sz.szego_kernel(z, u).tolist() == single

    def test_point_off_the_tube_is_refused(self):
        # the closed form continues past the tube, where it is no kernel
        z = spin_elem(0.3 + 0.5j, 0.1 + 0.6j, 0.0)
        with pytest.raises(ValueError, match="in the cone"):
            sz.szego_kernel(z, np.zeros(3))


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(151)
    a = jd.spin_factor(3)
    interior = [jd.Element(a, w)
                for w in sz.sample_lie_ball(3, 12, rng, margin=0.05)]
    boundary = [jd.Element(a, w)
                for w in sz.sample_shilov_boundary(3, 12, rng, margin=0.15)]
    c0 = sz.fit_kernel_relation_constant(interior[0], boundary[0])
    return interior, boundary, c0


class TestKernelRelation:

    def test_fit_point_reproduces_itself(self, fitted):
        interior, boundary, c0 = fitted
        res = abs(c0 / sz.fit_kernel_relation_constant(interior[0],
                                                       boundary[0]) - 1.0)
        assert res < 1e-12

    def test_held_out_residuals(self, fitted):
        interior, boundary, c0 = fitted
        for z, zp in zip(interior[1:11], boundary[1:11]):
            res = abs(c0 / sz.fit_kernel_relation_constant(z, zp) - 1.0)
            assert res <= sz.RELATION_TOL

    def test_fitted_constant_is_four_pi_squared(self, fitted):
        # c0 = 1 / c3 with S_T(ie, 0) = c3 = 1 / (4 pi^2)
        _, _, c0 = fitted
        assert abs(c0 - 4.0 * np.pi**2) <= 1e-12

    def test_fd_jacobian_matches_determinant_power(self):
        # the finite-difference oracle against
        # |J_Phi| = 2^n |det(e - w)|^(-2n/r): 2n/r = n on the spin factors,
        # and 3, 4 and 5 on complex Sym(2), Sym(3) and Sym(4)
        batches = []
        for n in (3, 4, 5, 7):
            rng = np.random.default_rng(157 + n)
            batches.append(spin_batch(sz.sample_lie_ball(n, 50, rng,
                                                         margin=0.1)))
        for r in (2, 3, 4):
            rng = np.random.default_rng(170 + r)
            m = rng.normal(size=(50, r, r)) + 1j * rng.normal(size=(50, r, r))
            batches.append(jd.from_matrix(0.15 * m))
        for w in batches:
            exact = sz.cayley_jacobian_modulus(w)
            fd = np.array([fd_jacobian_modulus(jd.Element(w.algebra, row))
                           for row in w.coords])
            assert np.max(np.abs(fd / exact - 1.0)) <= 1e-9, w.algebra

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_c0_is_one_over_the_kernel_constant_on_every_pair(self, n):
        # the first relation check above n = 3: with S_T in closed form the
        # fitted constant is 1 / c_n, c_n = S_T(ie, 0), on each of 1,000
        # pairs drawn as the CLI draws them
        rng = np.random.default_rng(181 + n)
        a = jd.spin_factor(n)
        w = sz.sample_lie_ball(n, 1_000, rng, margin=0.05)
        wp = sz.sample_shilov_boundary(n, 1_000, rng, margin=0.15)
        c0 = sz.fit_kernel_relation_constant(jd.Element(a, w),
                                             jd.Element(a, wp))
        c_n = sz.szego_kernel(1j * jd.identity(a), np.zeros(n)).real
        assert np.max(np.abs(c0 * c_n - 1.0)) <= sz.RELATION_TOL

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_batch_equals_per_pair_calls(self, n):
        rng = np.random.default_rng(191 + n)
        a = jd.spin_factor(n)
        w = sz.sample_lie_ball(n, 40, rng, margin=0.05)
        wp = sz.sample_shilov_boundary(n, 40, rng, margin=0.15)
        batch = sz.fit_kernel_relation_constant(jd.Element(a, w),
                                                jd.Element(a, wp))
        single = [sz.fit_kernel_relation_constant(jd.Element(a, x),
                                                  jd.Element(a, y))
                  for x, y in zip(w, wp)]
        assert all(type(c) is float for c in single)
        assert batch.tolist() == single

    def test_sym2_pair_is_refused(self):
        # a Cayley image is formed on Sym(2) too, but the closed-form kernel
        # covers the spin factors only
        w = jd.from_matrix(np.array([[0.2, 0.1j], [0.1j, -0.3]]))
        wp = jd.from_matrix(np.diag(np.exp([0.7j, 2.1j])))
        with pytest.raises(NotImplementedError, match="spin factor"):
            sz.fit_kernel_relation_constant(w, wp)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_nan_point_rejected(self, fitted, bad):
        # a NaN z' passed the Shilov check and ended in the quadrature; a
        # NaN point is refused as outside Dom Phi, a ValueError
        interior, boundary, _ = fitted
        pair = [interior[1], boundary[1]]
        pair[bad] = pair[bad] * np.array([np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="Dom Phi"):
            sz.fit_kernel_relation_constant(*pair)

    def test_near_singular_boundary_rejected(self, fitted):
        interior, _, _ = fitted
        singular = spin_elem(1.0, 0.0, 0.0)            # w' = e
        with pytest.raises((ValueError, NearSingularityError)):
            sz.fit_kernel_relation_constant(interior[1], singular)


class TestErrorPaths:
    def test_dom_phi_named_in_error(self):
        singular = jd.Element(jd.spin_factor(3),
                              np.array([1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(NearSingularityError, match="Dom Phi"):
            sz.cayley(singular)

    def test_nan_point_outside_dom_phi(self):
        # NaN fails every comparison, so the guard must require det > margin
        nan = jd.Element(jd.spin_factor(3),
                         np.array([np.nan, 0.0, 0.0], dtype=complex))
        with pytest.raises(NearSingularityError, match="Dom Phi"):
            sz.cayley(nan)

    def test_jacobian_refused_where_cayley_is(self):
        # det(e - w) = 0 at w = e, where the closed form divides by zero
        singular = spin_elem(1.0, 0.0, 0.0)
        with pytest.raises(NearSingularityError, match="Dom Phi"):
            sz.cayley_jacobian_modulus(singular)
        rng = np.random.default_rng(421)
        coords = spin_batch(sz.sample_lie_ball(3, 5, rng)).coords.copy()
        coords[2] = [1.0, 0.0, 0.0]
        with pytest.raises(NearSingularityError, match="Dom Phi"):
            sz.cayley_jacobian_modulus(jd.Element(jd.spin_factor(3), coords))

    def test_budget_exceeded_carries_partial(self):
        z = sz.TubePoint(spin_elem(0.5 + 1.0j, 0.3, -0.2))
        with pytest.raises(BudgetExceededError) as err:
            sz.szego_kernel_quadrature(z, np.zeros(3), tol=1e-18)
        assert err.value.partial is not None
        estimate = err.value.error_estimate
        assert isinstance(estimate, float) and np.isfinite(estimate)
        assert estimate > 1e-18


class _NoDraws:
    """An rng stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the margin was checked")


class _CountingRng:
    """Delegates to a numpy Generator and counts the values each method
    draws, so the sampler sees the same stream as without the proxy."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, size=None, **kwargs):
            self.draws[name] += 1 if size is None else int(np.prod(size))
            return method(*args, size=size, **kwargs)

        return counted


def lie_ball_statistics(w):
    """|w|^2, |det w|^2, arg det w (twice the polar phase) and the polar
    radii t1 >= t2 of Lie-ball rows, from t1^2 + t2^2 = 2|w|^2 and
    t1 t2 = |det w|."""
    sq = np.sum(np.abs(w) ** 2, axis=-1)
    det = jd.determinant(spin_batch(w))
    plus = np.sqrt(2.0 * sq + 2.0 * np.abs(det))
    minus = np.sqrt(2.0 * sq - 2.0 * np.abs(det))
    return {"|w|^2": sq, "|det w|^2": np.abs(det) ** 2,
            "arg det w": np.angle(det),
            "t1": (plus + minus) / 2.0, "t2": (plus - minus) / 2.0}


class TestBatchedCayley:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_batch_equals_per_row_calls(self, n):
        rng = np.random.default_rng(400 + n)
        z = sz.sample_lie_ball(n, 150, rng)
        image = sz.cayley(spin_batch(z))
        tube = sz.sample_tube(n, 150, rng)
        extra = 0.3 * (rng.normal(size=(150, n))
                       + 1j * rng.normal(size=(150, n)))
        for batch, rows in (
            (image.coords, [sz.cayley(spin_elem(*r)).coords for r in z]),
            (sz.cayley_inverse(tube).coords,
             [sz.cayley_inverse(jd.Element(tube.algebra, r)).coords
              for r in tube.coords]),
            (sz.lie_ball_contains(z), [sz.lie_ball_contains(r) for r in z]),
            (sz.lie_ball_contains(extra),
             [sz.lie_ball_contains(r) for r in extra]),
        ):
            assert np.array_equal(batch, np.array(rows))
        assert sz.lie_ball_contains(extra).any()
        assert not sz.lie_ball_contains(extra).all()

    def test_one_near_singular_row_raises(self):
        rng = np.random.default_rng(419)
        w = spin_batch(sz.sample_lie_ball(3, 20, rng))
        coords = w.coords.copy()
        coords[7] = [1.0, 0.0, 0.0]              # w = e: det(e - w) = 0
        with pytest.raises(NearSingularityError, match="Dom Phi"):
            sz.cayley(jd.Element(w.algebra, coords))
        tube = sz.sample_tube(3, 20, rng)
        coords = tube.coords.copy()
        coords[3] = [-1j, 0.0, 0.0]              # z = -i e: det(z + i e) = 0
        with pytest.raises(NearSingularityError):
            sz.cayley_inverse(jd.Element(tube.algebra, coords))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_jacobian_modulus_batch_without_cayley(self, n, monkeypatch):
        rng = np.random.default_rng(420 + n)
        z = sz.sample_lie_ball(n, 100, rng)

        def refuse(w):
            raise AssertionError("cayley_jacobian_modulus called cayley")

        monkeypatch.setattr(sz, "cayley", refuse)
        batch = sz.cayley_jacobian_modulus(spin_batch(z))
        assert batch.shape == (100,)
        assert np.array_equal(
            batch, [sz.cayley_jacobian_modulus(spin_elem(*r)) for r in z])


class TestSamplers:
    @pytest.mark.parametrize("n, margin", [(3, 0.0), (4, 0.05), (5, 0.2)])
    def test_lie_ball_count_and_margin(self, n, margin):
        rng = np.random.default_rng(500 + n)
        z = sz.sample_lie_ball(n, 777, rng, margin=margin)
        assert z.shape == (777, n)
        w = spin_batch(z)
        dd = np.abs(jd.determinant(w)) ** 2
        assert np.all(dd < 1.0 - margin)
        assert np.all(2.0 * jd.norm(w) ** 2 - 1.0 < dd - margin)

    @pytest.mark.parametrize("margin", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_polar_draw_matches_the_rejection_oracle(self, n, margin):
        # two-sample Kolmogorov-Smirnov at 4 sigma (p >= 6.3e-5) against
        # rejection from the complex unit ball, on seeded streams
        polar = sz.sample_lie_ball(n, 4000, np.random.default_rng(530 + n),
                                   margin=margin)
        oracle = rejection_lie_ball(n, 4000, np.random.default_rng(540 + n),
                                    margin=margin)
        assert np.all(sz.lie_ball_contains(polar, margin))
        ours, ref = lie_ball_statistics(polar), lie_ball_statistics(oracle)
        for name in ours:
            p = ks_2samp(ours[name], ref[name]).pvalue
            assert p >= 6.3e-5, (name, p)

    @pytest.mark.parametrize("margin", [0.0, 0.2])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_gaussian_draws_do_not_grow_with_two_to_the_n(self, n, margin):
        # 2n Gaussians per frame, built only for radii in the margin
        # region; the rejection oracle draws about 2n * 2^(n-1) per row
        rng = _CountingRng(np.random.default_rng(550 + n))
        z = sz.sample_lie_ball(n, 1000, rng, margin=margin)
        assert z.shape == (1000, n)
        assert rng.draws["normal"] <= 3 * 1000 * n, rng.draws

    def test_shilov_boundary_count_and_margin(self):
        rng = np.random.default_rng(511)
        z = sz.sample_shilov_boundary(4, 300, rng, margin=1.5)
        assert z.shape == (300, 4)
        w = spin_batch(z)
        assert np.all(np.abs(jd.determinant(jd.identity(w.algebra) - w)) >= 1.5)

    @pytest.mark.parametrize("sample", [sz.sample_lie_ball,
                                        sz.sample_shilov_boundary])
    def test_negative_count_refused_before_any_draw(self, sample):
        # used to draw and then return a (0, 3) array
        with pytest.raises(ValueError, match="non-negative"):
            sample(3, -3, _NoDraws())

    @pytest.mark.parametrize("sample", [sz.sample_lie_ball,
                                        sz.sample_shilov_boundary,
                                        sz.sample_tube])
    def test_dimension_below_three_refused_before_any_draw(self, sample):
        # jordan has no spin factor below dimension 3, so no sampler may
        # draw for one
        rng = np.random.default_rng(512)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="dimension >= 3"):
            sample(2, 5, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("margin", [-0.1, 1.0, 2.5])
    def test_lie_ball_margin_out_of_range(self, margin):
        with pytest.raises(ValueError, match="margin"):
            sz.sample_lie_ball(3, 5, _NoDraws(), margin=margin)

    @pytest.mark.parametrize("margin", [-0.1, 4.0, 9.0])
    def test_shilov_margin_out_of_range(self, margin):
        with pytest.raises(ValueError, match="margin"):
            sz.sample_shilov_boundary(3, 5, _NoDraws(), margin=margin)

    def test_consistency_memory_is_capped(self):
        import tracemalloc

        peaks = []
        for samples in (10_000, 40_000):
            tracemalloc.start()
            report = sz.conformal_consistency_check(5, samples, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert report["failures"] == 0
        assert peaks[1] <= 1.5 * peaks[0], peaks
