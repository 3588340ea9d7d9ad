"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with the measured quantities.

Budgets: criterion 3 runs the full Monte-Carlo load (1e5 samples per cell)
and criterion 7 the 256^3 modulation sweep, so the whole module is the slow
part of the test suite; everything is deterministic (seeded Philox streams).
"""

import json
import time

import numpy as np
import pytest

from conekit import besicovitch as bs
from conekit import cli
from conekit import jordan as jd
from conekit import multiplier as mp
from conekit import szego as sz
from oracles import gaussian_box_probe


def announce(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def families():
    return {k: bs.build_perron_rectangles(k) for k in range(1, 9)}


@pytest.fixture(scope="module")
def box_families(families):
    return {k: bs.build_boxes(families[k]) for k in range(1, 9)}


def test_criterion_1_construction_identities(families, box_families):
    start = time.perf_counter()
    ok = True
    for k in range(1, 9):
        family = families[k]
        boxes = box_families[k]
        n = family.n_rects
        ok &= family.total_area() == 1.0
        ok &= bs.translates_disjoint(family)
        vols = np.array([b.volume() for b in boxes.boxes_f])
        ok &= bool(np.max(np.abs(vols - 1.0 / (2 * n))) <= 1e-12)
        total = sum(b.volume() for b in boxes.f_shifted.boxes)
        ok &= abs(total - 0.5) <= 1e-12
        ok &= all(
            bool(np.all(e.contains(f.vertices(), slack=1e-12)))
            for e, f in zip(boxes.boxes_e, boxes.boxes_f)
        )
    elapsed = time.perf_counter() - start
    announce(1, ok and elapsed < 10.0,
             f"construction identities for k=1..8 in {elapsed:.1f}s")


def test_criterion_2_shrinking_union(families):
    start = time.perf_counter()
    resolution = 2.0**-17
    eps = {}
    for k in range(3, 9):
        measure, err = bs.union_measure(families[k], resolution)
        eps[k] = measure + err
    decreasing = all(eps[k + 1] < eps[k] for k in range(3, 8))
    small = eps[8] < 0.35
    elapsed = time.perf_counter() - start
    announce(
        2,
        decreasing and small and elapsed < 120.0,
        "eps_hat strictly decreasing "
        + " > ".join(f"{eps[k]:.4f}" for k in range(3, 9))
        + f", eps_hat(8) = {eps[8]:.4f} < 0.35, {elapsed:.0f}s",
    )


def test_criterion_3_blowup_demonstration(box_families):
    start = time.perf_counter()
    mc_samples = 100_000
    # floor stated in the unnormalized-log convention; our half-line
    # projection carries the 1/(2 pi) factor
    lhs_floor = 0.05 / (2.0 * np.pi)
    reports = {}
    for k in range(3, 9):
        level = mp.ratio_experiment_level(box_families[k], [1.0, 2.0],
                                          mc_samples, seed=2026)
        reports[(k, 1.0)], reports[(k, 2.0)] = level
    lhs_ok = all(reports[(k, 1.0)].lhs >= lhs_floor for k in range(3, 9))
    eps_decreasing = all(
        reports[(k + 1, 1.0)].eps_hat < reports[(k, 1.0)].eps_hat
        for k in range(3, 8)
    )
    holder_ratios = [reports[(k, 1.0)].ratio_holder for k in range(3, 9)]
    monotone_ok = eps_decreasing and all(
        b > a for a, b in zip(holder_ratios, holder_ratios[1:])
    )
    r3, r8 = reports[(3, 1.0)], reports[(8, 1.0)]
    growth = r8.ratio_holder / r3.ratio_holder
    target = np.sqrt(r3.eps_hat / r8.eps_hat) * 0.9
    growth_ok = growth >= target and monotone_ok
    controls = [reports[(k, 2.0)].ratio for k in range(3, 9)]
    control_ok = max(controls) / min(controls) <= 2.0
    elapsed = time.perf_counter() - start
    announce(
        3,
        lhs_ok and growth_ok and control_ok and elapsed < 600.0,
        f"LHS >= {lhs_floor:.6f} for all k, "
        f"ratio growth {growth:.3f} >= {target:.3f}, "
        f"p=2 control spread {max(controls) / min(controls):.6f} <= 2, "
        f"{elapsed:.0f}s",
    )


def test_criterion_4_oracle_equivalence(box_families):
    start = time.perf_counter()
    errs = {}
    for exp in (16, 17):
        g = mp.indicator_interval(32.0, 2**exp, -0.5, 0.5)
        h = mp.fft_multiplier_apply(g, mp.HalfSpace((-1.0,)))
        x = g.axis()
        mask = (np.abs(x) >= 0.6) & (np.abs(x) <= 3.0)
        oracle = mp.halfline_projection_periodic(-0.5, 0.5, x[mask], 64.0)
        errs[exp] = float(
            np.linalg.norm(h.values[mask] - oracle) / np.linalg.norm(oracle)
        )
    one_d_ok = errs[16] < 1e-3 and errs[17] <= 0.55 * errs[16]

    probe_errs = []
    for k in (1, 2):
        boxes = box_families[k]
        for j in (0, boxes.n_boxes - 1):
            probe_errs.append(
                gaussian_box_probe(
                    boxes.boxes_f[j], boxes.normals[j], 12.0, 256, window=6.0
                )
            )
    three_d_ok = max(probe_errs) < 5e-3
    elapsed = time.perf_counter() - start
    announce(
        4,
        one_d_ok and three_d_ok and elapsed < 300.0,
        f"halfline rel err {errs[16]:.2e} (halved to {errs[17]:.2e}), "
        f"box probe max {max(probe_errs):.2e} < 5e-3, {elapsed:.0f}s",
    )


def test_criterion_5_jordan_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(515)
    ok = True

    frame3 = jd.standard_frame(jd.spin_factor(3))
    for _ in range(10_000):
        x = jd.Element(jd.spin_factor(3), rng.normal(size=3))
        ok &= jd.cone_contains(x, frame3) == (
            x.coords[0] > np.hypot(x.coords[1], x.coords[2])
        )
    for _ in range(1_000):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        rho = rng.uniform(0.5, 2.0)
        eta = rng.uniform(1e-6, 1e-3) * rng.choice([-1.0, 1.0])
        x = jd.Element(jd.spin_factor(3),
                       np.concatenate(([rho + eta], rho * d)))
        ok &= jd.cone_contains(x, frame3) == (eta > 0)

    cases = [
        (jd.sym_matrix(3), jd.from_matrix(np.diag([1.0, 0.0, 0.0]))),
        (jd.spin_factor(3), jd.Element(jd.spin_factor(3),
                                       np.array([0.5, 0.5, 0.0]))),
    ]
    filling_failures = 0
    for algebra, c1 in cases:
        for _ in range(500):
            xi = jd.Element(algebra, rng.normal(size=algebra.dim))
            if jd.inner(xi, c1) <= 0:
                xi = -1.0 * xi
            if jd.inner(xi, c1) == 0:
                continue
            if not np.isfinite(jd.filling_radius(xi, c1)):
                filling_failures += 1
    ok &= filling_failures == 0

    c1 = jd.Element(jd.spin_factor(3), np.array([0.5, 0.5, 0.0]))
    n_vec = jd.identity(c1.algebra) - c1
    for _ in range(300):
        xi = jd.Element(jd.spin_factor(3), rng.normal(size=3))
        if jd.inner(xi, c1) > 0:
            xi = -1.0 * xi
        ok &= jd.filling_radius(xi, c1) == np.inf
        for r in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
            ok &= not jd.in_cone(xi + r * n_vec)

    det_cases = [
        (jd.sym_matrix(2), jd.from_matrix(np.diag([1.0, 0.0]))),
        (jd.sym_matrix(3), jd.from_matrix(np.diag([1.0, 0.0, 0.0]))),
        (jd.sym_matrix(4), jd.from_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))),
        (jd.spin_factor(4), jd.Element(jd.spin_factor(4),
                                       np.array([0.5, 0.5, 0.0, 0.0]))),
    ]
    worst_residual = 0.0
    for algebra, c1 in det_cases:
        for _ in range(1_000):
            xi = jd.Element(algebra, rng.normal(size=algebra.dim))
            if abs(jd.peirce_coefficient(xi, c1)) < 1e-3:
                continue
            r_shift = rng.uniform(0.5, 5.0)
            lhs = jd.determinant(xi + r_shift * (jd.identity(algebra) - c1))
            rel = jd.det_identity_residual(xi, r_shift, c1) / (1 + abs(lhs))
            worst_residual = max(worst_residual, rel)
    ok &= worst_residual <= 1e-8

    frame4 = jd.standard_frame(jd.sym_matrix(4))
    agreement = 0
    for _ in range(1_000):
        s = rng.normal(size=(2, 2))
        m = np.zeros((4, 4))
        m[:2, :2] = (s + s.T) / 2
        ambient, rank2 = jd.slice_test(jd.from_matrix(m), frame4)
        agreement += ambient == rank2
    ok &= agreement == 1_000

    elapsed = time.perf_counter() - start
    announce(
        5,
        ok and elapsed < 60.0,
        f"jordan invariants (det residual {worst_residual:.1e}, slice "
        f"agreement {agreement}/1000) in {elapsed:.0f}s",
    )


def test_criterion_6_cayley_tube_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(616)
    ok = True

    w = jd.Element(jd.spin_factor(3), sz.sample_lie_ball(3, 500, rng))
    back = sz.cayley_inverse(sz.cayley(w))
    worst_rt = float(np.max(np.abs(back.coords - w.coords)))
    a_sym = jd.sym_matrix(3)
    for _ in range(500):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w = jd.Element(a_sym, jd.mat_to_vec((m + m.T) / 2) * 0.15)
        back = sz.cayley_inverse(sz.cayley(w))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.coords - w.coords))))
    ok &= worst_rt < 1e-10

    failures = 0
    for n in (3, 4, 5):
        failures += sz.conformal_consistency_check(n, 10_000, seed=n)["failures"]
    ok &= failures == 0

    base = sz.szego_kernel_quadrature(
        sz.TubePoint(jd.Element(jd.spin_factor(3),
                                np.array([1j, 0, 0], dtype=complex))),
        np.zeros(3),
        tol=1e-8,
    )
    scaling_defect = 0.0
    for lam in (2.0, 5.0):
        s = sz.szego_kernel_quadrature(
            sz.TubePoint(jd.Element(jd.spin_factor(3),
                                    np.array([lam * 1j, 0, 0],
                                             dtype=complex))),
            np.zeros(3),
            tol=1e-8,
        )
        scaling_defect = max(
            scaling_defect,
            abs(s.value - base.value * lam**-3) / abs(s.value),
        )
    z = sz.TubePoint(jd.Element(jd.spin_factor(3),
                                np.array([0.3 + 1.2j, -0.2 + 0.1j,
                                          0.4 - 0.3j])))
    u = np.array([0.5, -0.1, 0.2])
    v = np.array([1.0, 2.0, -0.5])
    s1 = sz.szego_kernel_quadrature(z, u, tol=1e-8)
    z2 = sz.TubePoint(jd.Element(z.z.algebra, z.z.coords + v))
    s2 = sz.szego_kernel_quadrature(z2, u + v, tol=1e-8)
    translation_defect = abs(s1.value - s2.value) / abs(s1.value)
    ok &= scaling_defect <= 1e-6 and translation_defect <= 1e-6

    z, u = cli._kernel_points(3, 20, rng)
    quad = np.array([
        sz.szego_kernel_quadrature(jd.Element(z.algebra, zz), uu,
                                   tol=1e-6).value
        for zz, uu in zip(z.coords, u)])
    det = jd.determinant(jd.Element(z.algebra, (z.coords - u) / 1j))
    products = np.abs(quad) * np.abs(det) ** 1.5
    cv = float(products.std() / products.mean())
    # the complex ratio checks the constant and the phase as well
    closed_defect = float(np.max(np.abs(quad / sz.szego_kernel(z, u) - 1.0)))
    ok &= cv < 1e-3 and closed_defect <= 1e-6

    spin3 = jd.spin_factor(3)
    interior = [jd.Element(spin3, w)
                for w in sz.sample_lie_ball(3, 11, rng, margin=0.05)]
    boundary = [jd.Element(spin3, w)
                for w in sz.sample_shilov_boundary(3, 11, rng, margin=0.15)]
    c0 = sz.fit_kernel_relation_constant(interior[0], boundary[0])
    max_res = max(
        abs(c0 / sz.fit_kernel_relation_constant(zz, zp) - 1.0)
        for zz, zp in zip(interior[1:], boundary[1:])
    )
    ok &= max_res < 5e-2

    elapsed = time.perf_counter() - start
    announce(
        6,
        ok and elapsed < 600.0,
        f"round-trip {worst_rt:.1e}, consistency failures {failures}, "
        f"scaling/translation {scaling_defect:.1e}/{translation_defect:.1e}, "
        f"power-law CV {cv:.1e}, closed-form defect {closed_defect:.1e}, "
        f"relation residual {max_res:.1e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_modulation_trend(box_families):
    start = time.perf_counter()
    sweep = mp.modulation_convergence(
        box_families[1], [1.0, 4.0, 16.0, 64.0],
        samples_per_axis=256, extent=24.0,
    )
    per_box = np.array(sweep)          # shape (len(r_list), n_boxes)
    decreasing = bool(np.all(np.diff(per_box, axis=0) < 0.0))
    elapsed = time.perf_counter() - start
    announce(
        7,
        decreasing and elapsed < 900.0,
        "modulated image distances "
        + " > ".join(f"{row.max():.4f}" for row in per_box)
        + f" over R=1,4,16,64 at 256^3, {elapsed:.0f}s",
    )


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    cfg = {
        "k_list": [2, 3],
        "p_list": [1.0],
        "mc_samples": 10_000,
        "seed": 909,
        "out_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["ratio", "--config", str(path)]) == 0
    first = (tmp_path / "run" / "report.csv").read_bytes()
    assert cli.main(["ratio", "--config", str(path)]) == 0
    second = (tmp_path / "run" / "report.csv").read_bytes()
    elapsed = time.perf_counter() - start
    announce(8, first == second,
             f"identical CSV bytes across reruns ({elapsed:.0f}s)")
