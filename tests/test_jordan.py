"""Tests for the Jordan algebra layer: products, determinants, minors,
Peirce splits, filling radii and the rank-2 slice identity."""

from fractions import Fraction

import numpy as np
import pytest

from conekit import jordan as jd


def spin3(x1, x2, x3):
    return jd.Element(jd.spin_factor(3), np.array([x1, x2, x3], dtype=float))


class TestAlgebra:
    @pytest.mark.parametrize("kind, size", [
        ("sym", 2.5), ("sym", 3.0), ("spin", True), ("spin", np.int64(3)),
        ("spin", "3")])
    def test_size_must_be_an_int(self, kind, size):
        # Algebra("sym", 2.5) used to have dim 4.0 and fail inside numpy
        with pytest.raises(ValueError, match="must be an int"):
            jd.Algebra(kind, size)


class TestProduct:
    def test_identity_acts_trivially(self):
        e = jd.identity(jd.spin_factor(3))
        x = spin3(2.0, 1.0, 0.0)
        assert np.allclose(jd.jordan_product(e, x).coords, x.coords)

    def test_orthogonal_idempotents_multiply_to_zero(self):
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        c2 = jd.from_matrix(np.diag([0.0, 1.0]))
        assert np.allclose(jd.jordan_product(c1, c2).coords, 0.0)

    def test_spin_unit_vector_squares_to_identity(self):
        x = spin3(0.0, 1.0, 0.0)
        prod = jd.jordan_product(x, x)
        assert np.allclose(prod.coords, [1.0, 0.0, 0.0])

    def test_commutative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for a in (jd.spin_factor(4), jd.sym_matrix(3)):
            for _ in range(20):
                x = jd.Element(a, rng.normal(size=a.dim))
                y = jd.Element(a, rng.normal(size=a.dim))
                assert np.allclose(
                    jd.jordan_product(x, y).coords, jd.jordan_product(y, x).coords
                )

    def test_algebra_mismatch_rejected(self):
        x = spin3(1.0, 0.0, 0.0)
        y = jd.identity(jd.sym_matrix(2))
        with pytest.raises(ValueError):
            jd.jordan_product(x, y)


class TestDeterminant:
    def test_identity_has_unit_determinant(self):
        assert jd.determinant(jd.identity(jd.spin_factor(3))) == 1.0
        assert jd.determinant(jd.identity(jd.sym_matrix(3))) == pytest.approx(1.0)

    def test_spin_lorentz_form(self):
        assert jd.determinant(spin3(2.0, 1.0, 0.0)) == pytest.approx(3.0)

    def test_large_shift_dominates(self):
        # det(10 e + x) > 0 whenever ||x|| <= 1; the eigenvalue oracle puts
        # every eigenvalue of 10 I + x above 10 - ||x||_2 >= 9.
        rng = np.random.default_rng(11)
        a = jd.sym_matrix(3)
        e = jd.identity(a)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            m = (m + m.T) / 2
            m /= max(1.0, np.linalg.norm(m))
            x = jd.from_matrix(m)
            shifted = 10.0 * e + x
            assert jd.determinant(shifted) > 0.0
            assert np.linalg.eigvalsh(jd.as_matrix(shifted))[0] >= 9.0

    def test_complex_determinant_is_bilinear_not_hermitian(self):
        z = jd.Element(jd.spin_factor(3), np.array([1.0, 1j, 0.0]))
        # 1^2 - (i)^2 = 2, not 1 - |i|^2 = 0
        assert jd.determinant(z) == pytest.approx(2.0 + 0.0j)


class TestInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for a in (jd.spin_factor(3), jd.sym_matrix(3)):
            e = jd.identity(a)
            for _ in range(20):
                x = jd.Element(a, rng.normal(size=a.dim)) + 3.0 * e
                xi = jd.jordan_inverse(x)
                assert jd.norm(jd.jordan_product(x, xi) - e) < 1e-10


class TestPrincipalMinors:
    def test_identity_gives_ones(self):
        for a in (jd.spin_factor(3), jd.sym_matrix(3)):
            minors = jd.principal_minors(jd.identity(a), jd.standard_frame(a))
            assert np.allclose(minors, 1.0)

    def test_sym2_signature(self):
        a = jd.sym_matrix(2)
        x = jd.from_matrix(np.diag([1.0, -1.0]))
        minors = jd.principal_minors(x, jd.standard_frame(a))
        assert np.allclose(minors, [1.0, -1.0])

    def test_spin_projection_convention(self):
        # frame through u = (1, 0): the projection of x onto span(c1) is
        # (x1 + x2) c1, whose determinant in the rank-1 subalgebra is its
        # coefficient, here 3; the second minor is the full determinant.
        frame = jd.spin_frame(np.array([1.0, 0.0]))
        x = spin3(2.0, 1.0, 0.0)
        minors = jd.principal_minors(x, frame)
        assert np.allclose(minors, [3.0, 3.0])

    def test_spin_minors_are_spectral(self):
        # with x = l1 c1 + l2 c2 the minors are (l1, l1 l2)
        rng = np.random.default_rng(59)
        frame = jd.spin_frame(np.array([0.0, 1.0]))
        c1, c2 = frame.idempotents
        for _ in range(25):
            l1, l2 = rng.normal(size=2)
            x = l1 * c1 + l2 * c2
            assert np.allclose(jd.principal_minors(x, frame), [l1, l1 * l2])

    def test_sym_standard_frame_matches_leading_minors(self):
        rng = np.random.default_rng(5)
        a = jd.sym_matrix(4)
        frame = jd.standard_frame(a)
        for _ in range(25):
            m = rng.normal(size=(4, 4))
            m = (m + m.T) / 2
            minors = jd.principal_minors(jd.from_matrix(m), frame)
            oracle = [np.linalg.det(m[: l + 1, : l + 1]) for l in range(4)]
            assert np.allclose(minors, oracle, atol=1e-10)


class TestConeMembership:
    def test_examples(self):
        frame = jd.standard_frame(jd.spin_factor(3))
        assert jd.cone_contains(spin3(2.0, 1.0, 0.0), frame)
        assert not jd.cone_contains(spin3(1.0, 2.0, 0.0), frame)
        m = jd.from_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
        assert not jd.cone_contains(m, jd.standard_frame(jd.sym_matrix(2)))

    def test_spin_agreement_with_light_cone(self):
        rng = np.random.default_rng(13)
        frame = jd.standard_frame(jd.spin_factor(3))
        for _ in range(10_000):
            x = spin3(*rng.normal(size=3))
            assert jd.cone_contains(x, frame) == (
                x.coords[0] > np.hypot(x.coords[1], x.coords[2])
            )

    def test_spin_agreement_near_boundary(self):
        rng = np.random.default_rng(17)
        frame = jd.standard_frame(jd.spin_factor(3))
        for _ in range(2_000):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            rho = rng.uniform(0.5, 2.0)
            eta = rng.uniform(1e-6, 1e-3) * rng.choice([-1.0, 1.0])
            x = spin3(rho + eta, *(rho * d))
            assert jd.cone_contains(x, frame) == (eta > 0)

    def test_sym_agreement_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(19)
        a = jd.sym_matrix(3)
        frame = jd.standard_frame(a)
        for _ in range(2_000):
            m = rng.normal(size=(3, 3))
            m = (m + m.T) / 2
            assert jd.cone_contains(jd.from_matrix(m), frame) == bool(
                np.linalg.eigvalsh(m)[0] > 0
            )


class TestPeirce:
    def test_idempotent_decomposes_as_itself(self):
        c = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        x1, xhalf, x0 = jd.peirce_decompose(c, c)
        assert jd.norm(x1 - c) < 1e-12
        assert jd.norm(xhalf) < 1e-12
        assert jd.norm(x0) < 1e-12

    def test_offdiagonal_block_is_half_component(self):
        c = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1.0
        x = jd.from_matrix(m)
        x1, xhalf, x0 = jd.peirce_decompose(x, c)
        assert jd.norm(xhalf - x) < 1e-12
        assert jd.norm(x1) < 1e-12
        assert jd.norm(x0) < 1e-12

    def test_eigenspace_dimensions_sym3(self):
        # decompose a full basis and count nonzero components: 1 / 2 / 3
        c = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        a = jd.sym_matrix(3)
        dims = [0, 0, 0]
        for i in range(a.dim):
            v = np.zeros(a.dim)
            v[i] = 1.0
            split = jd.peirce_decompose(jd.Element(a, v), c)
            for slot, comp in enumerate(split):
                if jd.norm(comp) > 1e-12:
                    dims[slot] += 1
        assert dims == [1, 2, 3]

    def test_split_invariants_random(self):
        rng = np.random.default_rng(23)
        cases = [
            (jd.sym_matrix(3), jd.from_matrix(np.diag([1.0, 0.0, 0.0]))),
            (jd.spin_factor(4), jd.Element(jd.spin_factor(4),
                                           np.array([0.5, 0.5, 0.0, 0.0]))),
        ]
        for a, c in cases:
            for _ in range(50):
                x = jd.Element(a, rng.normal(size=a.dim))
                x1, xhalf, x0 = jd.peirce_decompose(x, c)
                assert jd.norm(x1 + xhalf + x0 - x) < 1e-9
                assert abs(jd.inner(x1, xhalf)) < 1e-9
                assert abs(jd.inner(x1, x0)) < 1e-9
                assert abs(jd.inner(xhalf, x0)) < 1e-9
                assert jd.norm(jd.jordan_product(c, x1) - x1) < 1e-9
                assert jd.norm(
                    jd.jordan_product(c, xhalf) - 0.5 * xhalf
                ) < 1e-9
                assert jd.norm(jd.jordan_product(c, x0)) < 1e-9

    def test_non_idempotent_rejected(self):
        x = jd.from_matrix(np.diag([2.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            jd.peirce_decompose(jd.identity(jd.sym_matrix(3)), x)


class TestPrimitiveIdempotents:
    def test_rank_one_projection_is_primitive(self):
        assert jd.primitive_idempotent_check(jd.from_matrix(np.diag([1.0, 0, 0])))

    def test_rank_two_projection_is_not(self):
        assert not jd.primitive_idempotent_check(jd.from_matrix(np.diag([1.0, 1, 0])))

    def test_spin_circle_of_idempotents(self):
        rng = np.random.default_rng(29)
        for theta in rng.uniform(0, 2 * np.pi, size=50):
            c = spin3(0.5, 0.5 * np.cos(theta), 0.5 * np.sin(theta))
            assert jd.primitive_idempotent_check(c)

    def test_zero_and_identity_are_not_primitive(self):
        a = jd.sym_matrix(3)
        assert not jd.primitive_idempotent_check(jd.zero(a))
        assert not jd.primitive_idempotent_check(jd.identity(a))

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_rotated_projections_against_matrix_rank(self, r):
        # the oracle is the rank of the matrix, not the Jordan trace
        rng = np.random.default_rng(40 + r)
        for m in range(r + 1):
            for _ in range(4):
                q, _ = np.linalg.qr(rng.normal(size=(r, r)))
                p = q @ np.diag([1.0] * m + [0.0] * (r - m)) @ q.T
                expected = np.linalg.matrix_rank(p) == 1
                c = jd.from_matrix(p)
                assert jd.primitive_idempotent_check(c) == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_spin_idempotents(self, n):
        rng = np.random.default_rng(50 + n)
        a = jd.spin_factor(n)
        for _ in range(10):
            u = rng.normal(size=n - 1)
            u /= np.linalg.norm(u)
            c = jd.Element(a, np.concatenate(([1.0], u)) / 2)
            assert jd.primitive_idempotent_check(c)
        assert not jd.primitive_idempotent_check(jd.zero(a))
        assert not jd.primitive_idempotent_check(jd.identity(a))

    def test_perturbation_above_tolerance_rejected(self):
        rng = np.random.default_rng(60)
        for c in (jd.from_matrix(np.diag([1.0, 0.0, 0.0])),
                  spin3(0.5, 0.3, 0.4)):
            for _ in range(10):
                d = rng.normal(size=c.algebra.dim)
                d *= 1e-4 / np.linalg.norm(d)
                assert not jd.primitive_idempotent_check(
                    jd.Element(c.algebra, c.coords + d))
                assert jd.primitive_idempotent_check(
                    jd.Element(c.algebra, c.coords + 1e-8 * d))

    def test_complex_input_rejected(self):
        c = jd.Element(jd.spin_factor(3), np.array([0.5, 0.5, 0.0], complex))
        with pytest.raises(ValueError):
            jd.primitive_idempotent_check(c)


class TestFrames:
    def test_standard_frames_validate(self):
        for a in (jd.spin_factor(5), jd.sym_matrix(4)):
            assert jd.standard_frame(a).validate()

    def test_rotated_sym_frame_validates(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cs = tuple(jd.from_matrix(np.outer(q[:, i], q[:, i])) for i in range(3))
        assert jd.JordanFrame(jd.sym_matrix(3), cs).validate()

    def test_invalid_frame_rejected_when_built(self):
        c = jd.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            jd.JordanFrame(jd.sym_matrix(2), (c, c))

    @pytest.mark.parametrize("r, delta", [(2, 1e-9), (3, 1.8e-10)])
    def test_frame_keeps_the_strict_idempotent_tolerance(self, r, delta):
        # c1 = diag(1 + delta, 0, ..), the others share -delta in the corner:
        # each passes the looser primitivity check, but |c1^2 - c1| ~ delta
        # lies above FRAME_TOL.  At r = 3 the sum is e and every product
        # stays within FRAME_TOL, so only the idempotent test rejects it.
        a = jd.sym_matrix(r)
        cs = [jd.from_matrix(np.diag([1.0 + delta] + [0.0] * (r - 1)))]
        for i in range(1, r):
            m = np.zeros((r, r))
            m[0, 0], m[i, i] = -delta / (r - 1), 1.0
            cs.append(jd.from_matrix(m))
        defect = jd.norm(jd.square(cs[0]) - cs[0])
        assert jd.FRAME_TOL < defect < jd.IDEMPOTENT_TOL
        assert all(jd.primitive_idempotent_check(c) for c in cs)
        if r == 3:
            assert jd.norm(sum(cs[1:], cs[0]) - jd.identity(a)) <= jd.FRAME_TOL
            assert all(jd.norm(jd.jordan_product(cs[i], cs[j])) <= jd.FRAME_TOL
                       for i in range(r) for j in range(i))
        with pytest.raises(ValueError):
            jd.JordanFrame(a, tuple(cs))

    @pytest.mark.parametrize("u", [[np.nan, 0.0], [np.nan, np.nan],
                                   [0.6, 0.7]])
    def test_spin_frame_needs_a_unit_vector(self, u):
        # NaN fails every comparison, so the guard must require |u| = 1
        with pytest.raises(ValueError, match="unit vector"):
            jd.spin_frame(np.array(u))

    def test_frame_validated_once(self, monkeypatch):
        calls = []
        validate = jd.JordanFrame.validate

        def counting(self, *args, **kwargs):
            calls.append(self)
            return validate(self, *args, **kwargs)

        monkeypatch.setattr(jd.JordanFrame, "validate", counting)
        frame = jd.standard_frame(jd.sym_matrix(3))
        x = jd.from_matrix(np.diag([1.0, 2.0, 0.0]))
        for _ in range(5):
            jd.cone_contains(x, frame)
            jd.principal_minors(x, frame)
            jd.slice_test(x, frame)
        assert len(calls) == 1 and calls[0] is frame


class TestFillingRadius:
    def test_already_inside_returns_zero(self):
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        assert jd.filling_radius(jd.identity(jd.sym_matrix(2)), c1) == 0.0

    def test_explicit_two_by_two_root(self):
        # det([[1, 3], [3, R]]) = R - 9 crosses zero at R = 9.
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        xi = jd.from_matrix(np.array([[1.0, 3.0], [3.0, 0.0]]))
        radius = jd.filling_radius(xi, c1)
        assert radius == pytest.approx(9.0, abs=1e-6)
        n = jd.identity(xi.algebra) - c1
        assert jd.in_cone(xi + (radius + 1e-7) * n)

    def test_nonpositive_pairing_is_not_fillable(self):
        c1 = spin3(0.5, 0.5, 0.0)
        xi = spin3(-1.0, -1.0, 0.0)
        assert jd.inner(xi, c1) == pytest.approx(-1.0)
        assert jd.filling_radius(xi, c1) == np.inf
        n = jd.identity(xi.algebra) - c1
        for r in [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]:
            assert not jd.in_cone(xi + r * n)

    @pytest.mark.parametrize("algebra, c1, rows", [
        (jd.spin_factor(3), [0.5, 0.5, 0.0],
         [[np.nan, 0.0, 0.0], [1.0, 0.2, 0.1], [-1.0, 0.0, 0.0]]),
        (jd.sym_matrix(3), jd.mat_to_vec(np.diag([1.0, 0.0, 0.0])),
         [jd.mat_to_vec(np.diag(d)) for d in
          ([np.nan, 1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0])]),
    ], ids=["spin", "sym"])
    def test_nan_pairing_gives_nan(self, algebra, c1, rows):
        # a NaN pairing is not a pairing <= 0, so its radius is NaN, not the
        # +inf of an empty set; the other rows keep 0 and +inf
        c1 = jd.Element(algebra, np.array(c1))
        radius = jd.filling_radius(jd.Element(algebra, np.array(rows)), c1)
        assert np.isnan(radius[0]) and list(radius[1:]) == [0.0, np.inf]
        assert np.isnan(jd.filling_radius(jd.Element(algebra, rows[0]), c1))

    def test_existence_on_random_samples(self):
        rng = np.random.default_rng(37)
        cases = [
            (jd.sym_matrix(3), jd.from_matrix(np.diag([1.0, 0.0, 0.0]))),
            (jd.spin_factor(3), spin3(0.5, 0.5, 0.0)),
        ]
        for a, c1 in cases:
            for _ in range(100):
                xi = jd.Element(a, rng.normal(size=a.dim))
                if jd.inner(xi, c1) <= 0:
                    xi = -1.0 * xi
                if jd.inner(xi, c1) == 0:
                    continue
                assert np.isfinite(jd.filling_radius(xi, c1))

    def test_light_ray_translates_fill_half_space(self):
        # with n = (1, u) and c1 = (1, -u)/2, a point can be pushed into the
        # light cone along n exactly when <xi, (-1, u)> < 0.
        rng = np.random.default_rng(41)
        u = np.array([0.6, 0.8])
        c1 = jd.Element(jd.spin_factor(3), np.concatenate(([1.0], -u)) / 2)
        ntilde = np.concatenate(([-1.0], u))
        for _ in range(200):
            xi = spin3(*rng.normal(size=3))
            pairing = xi.coords @ ntilde
            radius = jd.filling_radius(xi, c1)
            if pairing < 0:
                assert np.isfinite(radius)
            elif pairing > 0:
                assert radius == np.inf

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            jd.filling_radius(
                jd.identity(jd.sym_matrix(3)),
                jd.from_matrix(np.diag([1.0, 1.0, 0.0])),
            )


class TestDetIdentity:
    def test_two_by_two_closed_form(self):
        # det([[a, b], [b, d + R]]) = a (d + R - b^2 / a) for a != 0.
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        xi = jd.from_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        assert jd.det_identity_residual(xi, 1.0, c1) < 1e-12

    def test_diagonal_has_zero_residual(self):
        c1 = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        xi = jd.from_matrix(np.diag([3.0, -1.0, 2.0]))
        assert jd.det_identity_residual(xi, 5.0, c1) < 1e-12

    def test_random_sym3_normalized_pairing(self):
        rng = np.random.default_rng(43)
        c1 = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            m = (m + m.T) / 2
            m[0, 0] = 1.0       # pairing <xi, c1> = 1
            xi = jd.from_matrix(m)
            lhs = jd.determinant(
                xi + 5.0 * (jd.identity(xi.algebra) - c1)
            )
            assert jd.det_identity_residual(xi, 5.0, c1) < 1e-8 * (1 + abs(lhs))

    def test_residual_small_across_kinds(self):
        rng = np.random.default_rng(47)
        cases = [
            (jd.sym_matrix(2), jd.from_matrix(np.diag([1.0, 0.0]))),
            (jd.sym_matrix(3), jd.from_matrix(np.diag([1.0, 0.0, 0.0]))),
            (jd.sym_matrix(4), jd.from_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))),
            (jd.spin_factor(4), jd.Element(jd.spin_factor(4),
                                           np.array([0.5, 0.5, 0.0, 0.0]))),
        ]
        for a, c1 in cases:
            for _ in range(100):
                xi = jd.Element(a, rng.normal(size=a.dim))
                if abs(jd.peirce_coefficient(xi, c1)) < 1e-3:
                    continue
                r_shift = rng.uniform(0.5, 5.0)
                lhs = jd.determinant(xi + r_shift * (jd.identity(a) - c1))
                res = jd.det_identity_residual(xi, r_shift, c1)
                assert res <= 1e-8 * (1.0 + abs(lhs))

    def test_zero_pairing_raises(self):
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        xi = jd.from_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ZeroDivisionError):
            jd.det_identity_residual(xi, 1.0, c1)


class TestSliceTest:
    def test_sum_of_first_two_idempotents(self):
        a = jd.sym_matrix(3)
        frame = jd.standard_frame(a)
        xi = jd.from_matrix(np.diag([1.0, 1.0, 0.0]))
        assert jd.slice_test(xi, frame) == (True, True)

    def test_indefinite_block(self):
        a = jd.sym_matrix(3)
        frame = jd.standard_frame(a)
        xi = jd.from_matrix(np.diag([1.0, -1.0, 0.0]))
        assert jd.slice_test(xi, frame) == (False, False)

    def test_agreement_on_random_sym4(self):
        rng = np.random.default_rng(53)
        a = jd.sym_matrix(4)
        frame = jd.standard_frame(a)
        for _ in range(300):
            s = rng.normal(size=(2, 2))
            s = (s + s.T) / 2
            m = np.zeros((4, 4))
            m[:2, :2] = s
            ambient, rank2 = jd.slice_test(jd.from_matrix(m), frame)
            assert ambient == rank2
            # eigenvalue oracle on both sides
            assert rank2 == bool(np.linalg.eigvalsh(s)[0] > 0)
            full = m + np.diag([0.0, 0.0, 1.0, 1.0])
            assert ambient == bool(np.linalg.eigvalsh(full)[0] > 0)

    def test_rank_two_ambient_rejected(self):
        a = jd.sym_matrix(2)
        with pytest.raises(ValueError):
            jd.slice_test(jd.identity(a), jd.standard_frame(a))


class TestRotatedFrames:
    def test_cone_membership_in_rotated_frame(self):
        # positivity of all compression minors along any complete frame is
        # still the positive-definite cone (Sylvester in the rotated basis)
        rng = np.random.default_rng(211)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        frame = jd.JordanFrame(
            jd.sym_matrix(3),
            tuple(jd.from_matrix(np.outer(q[:, i], q[:, i])) for i in range(3)),
        )
        for _ in range(500):
            m = rng.normal(size=(3, 3))
            m = (m + m.T) / 2
            assert jd.cone_contains(jd.from_matrix(m), frame) == bool(
                np.linalg.eigvalsh(m)[0] > 0
            )


def per_row(algebra, fn, *arrays):
    """``fn`` applied to one element per row, stacked: the scalar reference
    for a batched call."""
    out = []
    for rows in zip(*arrays):
        val = fn(*(jd.Element(algebra, r) for r in rows))
        out.append(val.coords if isinstance(val, jd.Element) else val)
    return np.array(out)


class TestSpinBatch:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_batch_equals_per_row_calls(self, n):
        rng = np.random.default_rng(300 + n)
        a = jd.spin_factor(n)
        xs = rng.normal(size=(200, n))
        ys = rng.normal(size=(200, n))
        zs = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
        xb, yb, zb = jd.Element(a, xs), jd.Element(a, ys), jd.Element(a, zs)
        for fn, batch, arrays in (
            (jd.determinant, jd.determinant(xb), (xs,)),
            (jd.determinant, jd.determinant(zb), (zs,)),
            (jd.jordan_inverse, jd.jordan_inverse(xb).coords, (xs,)),
            (jd.jordan_inverse, jd.jordan_inverse(zb).coords, (zs,)),
            (jd.jordan_product, jd.jordan_product(xb, yb).coords, (xs, ys)),
            (jd.jordan_product, jd.jordan_product(zb, xb).coords, (zs, xs)),
            (jd.in_cone, jd.in_cone(xb), (xs,)),
            (jd.cone_margin, jd.cone_margin(xb), (xs,)),
        ):
            assert np.array_equal(batch, per_row(a, fn, *arrays)), fn
        assert jd.in_cone(xb).any() and not jd.in_cone(xb).all()

    def test_single_element_gets_python_scalars(self):
        x = spin3(2.0, 1.0, 0.5)
        z = jd.Element(x.algebra, x.coords + 1j)
        assert type(jd.determinant(x)) is float
        assert type(jd.determinant(z)) is complex
        assert type(jd.norm(z)) is float
        assert type(jd.cone_margin(x)) is float
        assert type(jd.in_cone(x)) is bool
        one_row = jd.Element(x.algebra, x.coords[None, :])
        assert jd.determinant(one_row).shape == (1,)
        assert jd.in_cone(one_row).shape == (1,)

    def test_singular_row_raises(self):
        from conekit.errors import DivisionSingularityError

        batch = jd.Element(jd.spin_factor(3),
                           np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        with pytest.raises(DivisionSingularityError):
            jd.jordan_inverse(batch)

    def test_scalar_only_functions_refuse_a_batch(self):
        for a in (jd.spin_factor(3), jd.sym_matrix(3)):
            batch = jd.Element(a, np.arange(2.0 * a.dim).reshape(2, a.dim))
            c1 = jd.standard_frame(a).idempotents[0]
            for call in (
                lambda: jd.trace(batch),
                lambda: jd.is_idempotent(batch),
                lambda: jd.primitive_idempotent_check(batch),
                # the idempotent stays one element where a batch is accepted
                lambda: jd.peirce_components(c1, batch),
                lambda: jd.peirce_coefficient(c1, batch),
            ):
                with pytest.raises(ValueError):
                    call()

    def test_sym_element_refuses_a_batch(self):
        # a Sym(r) batch builds; only the scalar-only functions refuse it
        batch = jd.Element(jd.sym_matrix(2), np.zeros((4, 3)))
        assert batch.coords.shape == (4, 3)
        for fn in (jd.trace, jd.is_idempotent, jd.primitive_idempotent_check):
            with pytest.raises(ValueError):
                fn(batch)
        with pytest.raises(ValueError):
            jd.Element(jd.sym_matrix(2), np.zeros((4, 4)))


def sym_rows(r, rng, count=60):
    """Random Sym(r) coordinates, every other row shifted into the cone."""
    a = jd.sym_matrix(r)
    xs = rng.normal(size=(count, a.dim))
    xs[::2] += 2.5 * jd.identity(a).coords
    return a, xs


class TestSymBatch:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_batch_equals_per_row_calls(self, r):
        rng = np.random.default_rng(400 + r)
        a, xs = sym_rows(r, rng)
        ys = rng.normal(size=xs.shape)
        shifts = rng.uniform(0.5, 5.0, size=len(xs))
        xb, yb = jd.Element(a, xs), jd.Element(a, ys)
        c1 = jd.from_matrix(np.full((r, r), 1.0 / r))
        frame = jd.standard_frame(a)
        for fn, batch, arrays in (
            (jd.as_matrix, jd.as_matrix(xb), (xs,)),
            (jd.determinant, jd.determinant(xb), (xs,)),
            (jd.jordan_inverse, jd.jordan_inverse(xb).coords, (xs,)),
            (jd.jordan_product, jd.jordan_product(xb, yb).coords, (xs, ys)),
            (jd.inner, jd.inner(xb, yb), (xs, ys)),
            (jd.norm, jd.norm(xb), (xs,)),
            (jd.in_cone, jd.in_cone(xb), (xs,)),
            (jd.cone_margin, jd.cone_margin(xb), (xs,)),
            (lambda x: jd.peirce_coefficient(x, c1),
             jd.peirce_coefficient(xb, c1), (xs,)),
            (lambda x: jd.principal_minors(x, frame),
             jd.principal_minors(xb, frame), (xs,)),
            (lambda x: jd.cone_contains(x, frame),
             jd.cone_contains(xb, frame), (xs,)),
            (lambda x: jd.det_identity_residual(x, 2.0, c1),
             jd.det_identity_residual(xb, 2.0, c1), (xs,)),
        ):
            assert np.array_equal(batch, per_row(a, fn, *arrays)), fn
        assert jd.in_cone(xb).any() and not jd.in_cone(xb).all()
        per_shift = [jd.det_identity_residual(jd.Element(a, x), s, c1)
                     for x, s in zip(xs, shifts)]
        assert np.array_equal(jd.det_identity_residual(xb, shifts, c1),
                              per_shift)
        for part in range(3):
            assert np.array_equal(
                jd.peirce_components(xb, c1)[part].coords,
                per_row(a, lambda x: jd.peirce_components(x, c1)[part], xs))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matrix_layout_batches(self, r):
        rng = np.random.default_rng(410 + r)
        m = rng.normal(size=(7, 5, r, r))
        elem = jd.from_matrix(m)
        assert elem.coords.shape == (7, 5, r * (r + 1) // 2)
        assert np.array_equal(elem.coords[3, 2], jd.from_matrix(m[3, 2]).coords)
        full = jd.vec_to_mat(elem.coords, r)
        assert np.array_equal(full[3, 2], jd.vec_to_mat(elem.coords[3, 2], r))
        assert np.array_equal(jd.mat_to_vec(full), elem.coords)
        assert np.array_equal(full, np.swapaxes(full, -1, -2))

    @pytest.mark.parametrize("r", [3, 4])
    def test_filling_radius_and_slice_per_row(self, r):
        rng = np.random.default_rng(420 + r)
        a, xs = sym_rows(r, rng)
        c1 = jd.from_matrix(np.diag([1.0] + [0.0] * (r - 1)))
        radius = jd.filling_radius(jd.Element(a, xs), c1)
        singles = [jd.filling_radius(jd.Element(a, x), c1) for x in xs]
        assert np.array_equal(radius, singles)
        assert np.isfinite(radius).any() and not np.isfinite(radius).all()
        frame = jd.standard_frame(a)
        m = np.zeros((len(xs), r, r))
        m[:, :2, :2] = jd.vec_to_mat(xs[:, :3], 2)
        ambient, rank2 = jd.slice_test(jd.from_matrix(m), frame)
        rows = [jd.slice_test(jd.from_matrix(one), frame) for one in m]
        assert np.array_equal(ambient, [row[0] for row in rows])
        assert np.array_equal(rank2, [row[1] for row in rows])
        assert ambient.any() and not ambient.all()

    def test_single_element_gets_python_scalars(self):
        x = jd.from_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.5],
                                     [0.0, 0.5, -1.0]]))
        c1 = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        frame = jd.standard_frame(x.algebra)
        for val, kind in (
            (jd.determinant(x), float), (jd.inner(x, x), float),
            (jd.cone_margin(x), float), (jd.in_cone(x), bool),
            (jd.cone_contains(x, frame), bool),
            (jd.peirce_coefficient(x, c1), float),
            (jd.det_identity_residual(x, 1.0, c1), float),
            (jd.filling_radius(x, c1), float),
            (jd.filling_radius(-x, c1), float),
            *((side, bool) for side in jd.slice_test(x, frame)),
        ):
            assert type(val) is kind

    def test_batch_statuses(self):
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        xs = np.array([[1.0, 3.0, 0.0],      # radius 9
                       [1.0, 0.0, 1.0],      # inside: radius 0
                       [-1.0, 0.0, 1.0]])    # <xi, c1> < 0
        radius = jd.filling_radius(jd.Element(c1.algebra, xs), c1)
        assert np.array_equal(np.isfinite(radius), [True, True, False])
        np.testing.assert_allclose(radius, [9.0, 0.0, np.inf], rtol=1e-14)


class TestComplexConeMargin:
    """Cone membership is defined for real elements only, in both tests."""

    @pytest.mark.parametrize("coords, algebra", [
        (np.array([2.0, 1j, 0.0]), jd.spin_factor(3)),
        (np.array([[2.0, 1j, 0.0], [3.0, 0.0, 1.0 + 0j]]), jd.spin_factor(3)),
        (np.array([1.0, 5j, 1.0]), jd.sym_matrix(2)),
    ])
    def test_complex_elements_refused(self, coords, algebra):
        z = jd.Element(algebra, coords)
        for fn in (jd.cone_margin, jd.in_cone):
            with pytest.raises(ValueError, match="real elements"):
                fn(z)


def exact_in_cone(algebra, coords):
    """Cone membership in exact rational arithmetic: x1 > |x'| for spin,
    positive leading minors (fraction-free Bareiss elimination) for Sym."""
    fr = [Fraction(v) for v in coords]
    if algebra.kind == "spin":
        return fr[0] > 0 and fr[0] ** 2 > sum(v * v for v in fr[1:])
    r = algebra.size
    scale = max(v.denominator for v in fr)
    m = [[0] * r for _ in range(r)]
    for v, i, j in zip(fr, *np.triu_indices(r)):
        m[i][j] = m[j][i] = int(v * scale)
    prev = 1
    for k in range(r):                  # m[k][k] is the k-th leading minor
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


def bisection_radius(xi, c1, tol=1e-8):
    """Reference filling radius, +inf where <xi, c1> <= 0: exponential
    bracket, then bisection to ``tol``, deciding membership exactly.  In
    floating point that decision is wrong within about eps * |M| / |P_0 v|^2
    of the boundary (v the null vector), which for a small Peirce
    coefficient exceeds ``tol``."""
    if jd.inner(xi, c1) <= 0.0:
        return np.inf
    x = [Fraction(v) for v in xi.coords]
    n = [Fraction(v) for v in (jd.identity(xi.algebra) - c1).coords]

    def inside(r):
        return exact_in_cone(xi.algebra,
                             [u + Fraction(r) * w for u, w in zip(x, n)])

    if inside(0.0):
        return 0.0
    hi = 1.0
    while not inside(hi):
        hi *= 2.0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestClosedFormRadius:
    # idempotents with dyadic coordinates, so that they are exact
    CASES = [
        (jd.sym_matrix(3), np.diag([1.0, 0.0, 0.0])),
        (jd.sym_matrix(4), np.full((4, 4), 0.25)),
        (jd.spin_factor(3), np.array([0.5, 0.5, 0.0])),
        (jd.spin_factor(5), np.array([1.0, 0.5, -0.5, 0.5, 0.5]) / 2),
    ]

    @pytest.mark.parametrize("case", range(4))
    def test_matches_bisection_oracle(self, case):
        a, c = self.CASES[case]
        c1 = jd.from_matrix(c) if a.kind == "sym" else jd.Element(a, c)
        xs = np.random.default_rng(500 + case).normal(size=(300, a.dim))
        radii = jd.filling_radius(jd.Element(a, xs), c1)
        for x, radius in zip(xs, radii):
            ref = bisection_radius(jd.Element(a, x), c1)
            if ref == np.inf:
                assert radius == np.inf
            else:
                assert abs(radius - ref) <= 1e-8 + 1e-10 * ref

    @pytest.mark.parametrize("exponent", [30, 40])
    def test_large_radius_is_reported(self, exponent):
        # xi + R (e - c1) has determinant 2^-e R - 1: the radius is 2^e,
        # however far it lies above any fixed budget
        c1 = jd.from_matrix(np.diag([1.0, 0.0]))
        xi = jd.from_matrix(np.array([[2.0**-exponent, 1.0], [1.0, 0.0]]))
        radius = jd.filling_radius(xi, c1)
        assert np.isfinite(radius)
        assert radius == pytest.approx(2.0**exponent, rel=1e-12)
        n = (jd.identity(c1.algebra) - c1).coords
        for factor, inside in ((1 + 1e-9, True), (1 - 1e-9, False)):
            step = radius * factor * n
            assert exact_in_cone(c1.algebra, xi.coords + step) == inside

    def test_validate_suite_makes_one_call_per_check(self, monkeypatch):
        from conekit import cli

        calls = {"filling_radius": 0, "primitive_idempotent_check": 0}
        for name in calls:
            original = getattr(jd, name)

            def counting(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(jd, name, counting)
        assert all(check() for _, check in cli._jordan_checks(True))
        assert calls["filling_radius"] <= 2
        assert calls["primitive_idempotent_check"] <= 16
