"""Command-line driver: reproducible experiments with CSV/JSON reports.

Commands:
    besicovitch --k K --out DIR       build a rectangle family, emit JSON,
                                      SVG and a stats CSV
    ratio --config FILE               run the square-function ratio
                                      experiment over a (k, p) grid
    validate --suite NAME [--fast]    run the property suites, TAP output
    szego --config FILE               kernel samples and consistency reports

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 internal error.

All numeric output is written with 17 significant digits, newline-separated,
locale independent.  Runs are deterministic for a fixed config: the ratio
experiment draws from counter-based Philox streams derived from the
mandatory seed, ``szego`` and ``validate`` from numpy's default generator
(PCG64) seeded by the config seed or by fixed seeds, and the wall-clock
timings live in the run manifest, not in the data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import besicovitch as bs
from . import jordan as jd
from . import multiplier as mp
from . import szego as sz
from .errors import BudgetExceededError


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, fieldnames, rows):
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name in fieldnames))
    Path(path).write_text("\n".join(lines) + "\n")


def sha256_path(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir, config, timings, outputs, **sections):
    manifest = {
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
        "outputs": {name: sha256_path(out_dir / name) for name in outputs},
        **sections,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )


def _list_of(types):
    return lambda v: (isinstance(v, list) and bool(v)
                      and all(type(x) in types for x in v)
                      and len(set(v)) == len(v))


# kind of a config value: (test, what the error message asks for); type()
# rather than isinstance() keeps JSON booleans out of the integers
KINDS = {
    "ints": (_list_of((int,)), "a non-empty list of distinct integers"),
    "numbers": (_list_of((int, float)),
                "a non-empty list of distinct numbers"),
    "count": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "seed": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "positive": (lambda v: type(v) in (int, float) and 0 < v < np.inf,
                 "a finite positive number"),
    "path": (lambda v: type(v) is str, "a string"),
}
REQUIRED = None     # schema default of a key the config must give


def load_config(path, schema):
    """Schema-checked JSON config.  ``schema`` maps each key to its kind
    and default; unknown keys, missing required keys and values of the
    wrong kind are rejected with a ValueError naming the key."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {key for key, (_, default) in schema.items()
               if default is REQUIRED} - set(doc)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    merged = {key: default for key, (_, default) in schema.items()
              if default is not REQUIRED}
    merged.update(doc)
    for key, (kind, _) in schema.items():
        test, expected = KINDS[kind]
        if not test(merged[key]):
            raise ValueError(f"config key {key!r} must be {expected}")
    return merged


# --- besicovitch -----------------------------------------------------------------

def cmd_besicovitch(args):
    bs.check_level(args.k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    family = bs.build_perron_rectangles(args.k)
    timings["build"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    measure, err = bs.union_measure(family, bs.UNION_RESOLUTION)
    timings["union_measure"] = 1e3 * (time.perf_counter() - t0)

    (out_dir / "family.json").write_text(bs.family_to_json(family) + "\n")
    (out_dir / "family.svg").write_text(bs.family_to_svg(family) + "\n")
    row = {
        "k": family.k,
        "N": family.n_rects,
        "eps_hat": measure + err,
        "union_measure": measure,
        "union_error_bound": err,
        "total_area": family.total_area(),
        # build_perron_rectangles returns only SAT-verified families
        "translates_disjoint": True,
        "resolution": bs.UNION_RESOLUTION,
    }
    write_csv(out_dir / "stats.csv", list(row), [row])
    config = {"command": "besicovitch", "k": args.k}
    write_manifest(out_dir, config, timings,
                   ["family.json", "family.svg", "stats.csv"])
    return 0


# --- ratio experiment --------------------------------------------------------------

# report.csv's columns, ExperimentReport's field names; wall_ms is a
# constant 0, since timings go to manifest.json
REPORT_COLUMNS = (
    "k", "N", "eps_hat", "p", "lhs", "rhs_exact", "rhs_stderr",
    "rhs_holder", "ratio", "ratio_holder", "m_lower", "wall_ms", "control",
)

RATIO_SCHEMA = {
    "k_list": ("ints", REQUIRED),
    "p_list": ("numbers", REQUIRED),
    "mc_samples": ("count", REQUIRED),
    "seed": ("seed", REQUIRED),
    "out_dir": ("path", REQUIRED),
}


def cmd_ratio(args):
    config = load_config(args.config, RATIO_SCHEMA)
    mp.check_cells(config["p_list"], config["mc_samples"])
    for k in config["k_list"]:
        bs.check_level(k)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    timings, kappa, rows = {}, {}, []
    for k in config["k_list"]:
        start = time.perf_counter()
        reports = mp.ratio_experiment_level(
            bs.build_boxes(bs.build_perron_rectangles(k)), config["p_list"],
            config["mc_samples"], config["seed"])
        timings[f"k{k}"] = 1e3 * (time.perf_counter() - start)
        kappa[f"k{k}"] = reports[0].kappa
        rows.extend({**dataclasses.asdict(report), "wall_ms": 0.0}
                    for report in reports)
        # rewritten per level: a failing level leaves the finished rows
        write_csv(out_dir / "report.csv", REPORT_COLUMNS, rows)

    outputs = ["report.csv"]
    for pi, p in enumerate(config["p_list"]):
        name = f"ratio_holder_p{pi}.dat"
        lines = [
            f"{_fmt(r['k'])} {_fmt(r['ratio_holder'])}"
            for r in rows
            if r["p"] == p
        ]
        (out_dir / name).write_text("\n".join(lines) + "\n")
        outputs.append(name)
    write_manifest(out_dir, config, timings, outputs, kappa=kappa)
    return 0


# --- szego -------------------------------------------------------------------------

def _kernel_points(n, count, rng):
    """(z, u) pairs for kernel samples: z in the tube over the light cone
    with Im z at cone margin >= 0.3, u a real point of [-1.5, 1.5]^n."""
    points = []
    for _ in range(count):
        yprime = rng.normal(size=n - 1) * 0.3
        y1 = np.linalg.norm(yprime) + 0.3 + abs(rng.normal()) * 0.5
        x = rng.uniform(-1.5, 1.5, size=n)
        z = jd.Element(jd.spin_factor(n),
                       x + 1j * np.concatenate(([y1], yprime)))
        points.append((z, rng.uniform(-1.5, 1.5, size=n)))
    return points


def _kernel_relation(n, n_held_out, rng, tol):
    """Fit |c0| on one (Lie-ball interior, Shilov boundary) pair and return
    it with the relation residuals on ``n_held_out`` further pairs."""
    interior = sz.sample_lie_ball(n, n_held_out + 1, rng, margin=0.05)
    boundary = sz.sample_shilov_boundary(n, n_held_out + 1, rng, margin=0.15)
    c0 = sz.fit_kernel_relation_constant(interior[0], boundary[0], tol=tol)
    residuals = [
        abs(c0 / sz.fit_kernel_relation_constant(z, zp, tol=tol) - 1.0)
        for z, zp in zip(interior[1:], boundary[1:])
    ]
    return c0, residuals


SZEGO_SCHEMA = {
    "seed": ("seed", REQUIRED),
    "out_dir": ("path", REQUIRED),
    "n_kernel_samples": ("count", 20),
    "n_consistency_samples": ("count", 10_000),
    "n_relation_samples": ("count", 10),
    "tol": ("positive", 1e-6),
    "dimension": ("count", 3),
}


def cmd_szego(args):
    config = load_config(args.config, SZEGO_SCHEMA)
    if config["dimension"] != 3:
        # the kernel quadrature integrates over the light cone of R^3 only
        raise ValueError("config key 'dimension' must be 3")
    if config["tol"] < np.finfo(float).eps:
        # the quadrature's error estimate is floored at 2^-52
        raise ValueError("config key 'tol' must be at least 2^-52")
    timings = {}
    n = config["dimension"]
    rng = np.random.default_rng(config["seed"])

    t0 = time.perf_counter()
    rows = []
    for z, u in _kernel_points(n, config["n_kernel_samples"], rng):
        sample = sz.szego_kernel_quadrature(sz.TubePoint(z), u,
                                            tol=config["tol"])
        row = {}
        for i in range(n):
            row[f"z{i}_re"] = z.coords[i].real
            row[f"z{i}_im"] = z.coords[i].imag
        for i in range(n):
            row[f"u{i}"] = u[i]
        row["value_re"] = sample.value.real
        row["value_im"] = sample.value.imag
        row["error_estimate"] = sample.error_estimate
        row["method"] = sample.method
        rows.append(row)
    timings["kernel_samples"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    consistency = sz.conformal_consistency_check(
        n, config["n_consistency_samples"], seed=config["seed"]
    )
    timings["consistency"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    c0, residuals = _kernel_relation(n, config["n_relation_samples"], rng,
                                     config["tol"])
    timings["kernel_relation"] = 1e3 * (time.perf_counter() - t0)

    # a run that fails above leaves no out_dir, as a usage error does
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "kernel_samples.csv", list(rows[0]), rows)
    summary = {
        "conformal_consistency": consistency,
        "kernel_relation": {
            "fitted_c0_modulus": c0,
            "held_out_residuals": residuals,
            "max_residual": max(residuals),
        },
    }
    (out_dir / "szego_report.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True, default=float) + "\n"
    )
    write_manifest(out_dir, config, timings,
                   ["kernel_samples.csv", "szego_report.json"])
    return 0 if consistency["failures"] == 0 and max(residuals) < 5e-2 else 1


# --- validation suites ----------------------------------------------------------------

def _jordan_checks(fast):
    n_samples = 5_000 if fast else 10_000
    n_prop = 500 if fast else 1_000
    rng = np.random.default_rng(2024)
    checks = []

    def spin_agreement():
        frame = jd.standard_frame(jd.spin_factor(3))
        x = jd.Element(jd.spin_factor(3), rng.normal(size=(n_samples, 3)))
        direct = x.coords[:, 0] > np.hypot(x.coords[:, 1], x.coords[:, 2])
        return bool(np.array_equal(jd.cone_contains(x, frame), direct))

    checks.append(("spin cone matches light-cone test", spin_agreement))

    def peirce_invariants():
        c = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        x = jd.Element(jd.sym_matrix(3), rng.normal(size=(n_prop, 6)))
        x1, xhalf, x0 = jd.peirce_decompose(x, c)
        return bool(
            np.all(jd.norm(x1 + xhalf + x0 - x) <= 1e-9)
            and np.all(jd.norm(jd.jordan_product(c, xhalf) - 0.5 * xhalf)
                       <= 1e-9)
        )

    checks.append(("peirce split reassembles and is eigen", peirce_invariants))

    def filling_forward():
        c1 = jd.from_matrix(np.diag([1.0, 0.0, 0.0]))
        n_vec = jd.identity(c1.algebra) - c1
        coords = rng.normal(size=(n_prop, 6))
        pairing = jd.inner(jd.Element(c1.algebra, coords), c1)
        xi = jd.Element(c1.algebra,
                        (coords * np.sign(pairing)[:, None])[pairing != 0])
        radius = jd.filling_radius(xi, c1)
        if not np.all(np.isfinite(radius)):
            return False
        step = radius + 1e-7 * (1.0 + radius)
        return bool(np.all(jd.in_cone(
            xi + jd.Element(c1.algebra, np.multiply.outer(step, n_vec.coords))
        )))

    checks.append(("filling radius exists when <xi,c1> > 0", filling_forward))

    def filling_converse():
        c1 = jd.Element(jd.spin_factor(3), np.array([0.5, 0.5, 0.0]))
        n_vec = jd.identity(c1.algebra) - c1
        coords = rng.normal(size=(n_prop, 3))
        pairing = jd.inner(jd.Element(c1.algebra, coords), c1)
        xi = jd.Element(c1.algebra,
                        coords * np.where(pairing > 0, -1.0, 1.0)[:, None])
        closed = jd.inner(xi, c1) <= 0
        if np.any(np.isfinite(jd.filling_radius(xi, c1)) & closed):
            return False
        return not any(np.any(jd.in_cone(xi + r * n_vec) & closed)
                       for r in (1.0, 1e2, 1e4, 1e6))

    checks.append(("no filling when <xi,c1> <= 0", filling_converse))

    def det_identity():
        cases = [
            (jd.sym_matrix(2), jd.from_matrix(np.diag([1.0, 0.0]))),
            (jd.sym_matrix(3), jd.from_matrix(np.diag([1.0, 0.0, 0.0]))),
            (jd.sym_matrix(4), jd.from_matrix(np.diag([1.0, 0, 0, 0]))),
            (jd.spin_factor(4), jd.Element(jd.spin_factor(4),
                                           np.array([0.5, 0.5, 0, 0]))),
        ]
        per_case = max(1, n_prop // len(cases))
        for algebra, c1 in cases:
            xi = jd.Element(algebra, rng.normal(size=(per_case, algebra.dim)))
            r_shift = rng.uniform(0.5, 5.0, size=per_case)
            keep = np.abs(jd.peirce_coefficient(xi, c1)) >= 1e-3
            xi, r_shift = jd.Element(algebra, xi.coords[keep]), r_shift[keep]
            step = np.multiply.outer(r_shift, (jd.identity(algebra) - c1).coords)
            lhs = jd.determinant(xi + jd.Element(algebra, step))
            if np.any(jd.det_identity_residual(xi, r_shift, c1)
                      > 1e-8 * (1 + np.abs(lhs))):
                return False
        return True

    checks.append(("determinant reduction identity", det_identity))

    def slice_agreement():
        frame = jd.standard_frame(jd.sym_matrix(4))
        s = rng.normal(size=(n_prop, 2, 2))
        m = np.zeros((n_prop, 4, 4))
        m[:, :2, :2] = (s + np.swapaxes(s, 1, 2)) / 2
        ambient, rank2 = jd.slice_test(jd.from_matrix(m), frame)
        return bool(np.array_equal(ambient, rank2))

    checks.append(("rank-2 slice agreement", slice_agreement))
    return checks


def _engine_checks(fast):
    mc = 10_000 if fast else 20_000
    rng = np.random.default_rng(4048)
    checks = []

    def identity_symbol():
        g = mp.indicator_interval(32.0, 2**13, -0.5, 0.5)
        plus = mp.fft_multiplier_apply(g, mp.HalfSpace((-1.0,)))
        minus = mp.fft_multiplier_apply(g, mp.HalfSpace((1.0,)))
        return bool(np.max(np.abs(plus.values + minus.values - g.values))
                    < 1e-12)

    checks.append(("halfspace + complement is the identity", identity_symbol))

    def parseval():
        g = mp.GridFunction(np.zeros(2**12), 16.0)
        f = g.with_values(rng.normal(size=2**12) + 1j * rng.normal(size=2**12))
        out = mp.fft_multiplier_apply(f, mp.HalfSpace((-1.0,)))
        return bool(out.norm_l2() <= f.norm_l2() * (1 + 1e-12))

    checks.append(("projection contracts the L2 norm", parseval))

    def halfline_oracle():
        g = mp.indicator_interval(32.0, 2**15, -0.5, 0.5)
        h = mp.fft_multiplier_apply(g, mp.HalfSpace((-1.0,)))
        x = g.axis()
        mask = (np.abs(x) >= 0.6) & (np.abs(x) <= 3.0)
        oracle = mp.halfline_projection_periodic(-0.5, 0.5, x[mask], 64.0)
        err = np.linalg.norm(h.values[mask] - oracle) / np.linalg.norm(oracle)
        return bool(err < 1e-3)

    checks.append(("FFT matches the closed-form half-line image",
                   halfline_oracle))

    def dilation():
        return bool(
            mp.cone_dilation_symbol_defect(2) < 1e-6
            and mp.cone_dilation_symbol_defect(4) < 1e-6
        )

    checks.append(("cone symbol is dilation invariant on the lattice",
                   dilation))

    def square_function():
        res, = mp.ratio_experiment_level(
            bs.build_boxes(bs.build_perron_rectangles(3)), [1.0], mc, seed=77)
        lhs_expected = 0.05 / (2.0 * np.pi)
        return bool(
            res.lhs >= lhs_expected
            and res.rhs_exact <= res.rhs_holder + res.rhs_stderr
        )

    checks.append(("square-function sides and Holder chain", square_function))

    def tensor():
        grid = mp.GridFunction(np.zeros(32), 4.0)
        x = grid.axis()
        phi = grid.with_values(np.exp(-4.0 * x**2).astype(complex),
                               support_radius=2.0)
        good = mp.tensor_extension_check(phi, 1, samples_3d=64)
        broken = mp.tensor_extension_check(phi, 1, samples_3d=64,
                                           normal_last=0.5)
        return bool(good < 1e-6 and broken > 1e-3)

    checks.append(("tensor extension separability", tensor))
    return checks


def _szego_checks(fast):
    n_round = 500 if fast else 1_000
    n_consistency = 2_000 if fast else 10_000
    n_products = 8 if fast else 20
    rng = np.random.default_rng(9090)
    checks = []

    def round_trip():
        w = sz.lie_to_spin(sz.sample_lie_ball(3, n_round, rng))
        back = sz.cayley_inverse(sz.cayley(w))
        return bool(np.max(np.abs(back.coords - w.coords)) <= 1e-10)

    checks.append(("Cayley round trip", round_trip))

    def consistency():
        for n in (3, 4, 5):
            report = sz.conformal_consistency_check(n, n_consistency, seed=n)
            if report["failures"]:
                return False
        return True

    checks.append(("conformal membership consistency", consistency))

    def density():
        x = jd.Element(jd.spin_factor(3), np.array([1.0, 0.0, 0.0]))
        return bool(
            sz.jacobian_density(jd.zero(jd.spin_factor(3))) == 1.0
            and abs(sz.jacobian_density(x) - 0.125) < 1e-14
        )

    checks.append(("boundary density closed-form values", density))

    def power_law():
        samples = _kernel_points(3, n_products, rng)
        products = sz.kernel_power_law_products(samples)
        return bool(products.std() / products.mean() < 1e-3)

    checks.append(("kernel power-law constancy", power_law))

    def relation():
        _, residuals = _kernel_relation(3, 3, rng, 1e-6)
        return max(residuals) < 5e-2

    checks.append(("ball/tube kernel relation residual", relation))
    return checks


SUITES = {
    "jordan": _jordan_checks,
    "engine": _engine_checks,
    "szego": _szego_checks,
}


def cmd_validate(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(
            (f"{name}: {label}", func)
            for label, func in SUITES[name](args.fast)
        )
    print(f"1..{len(checks)}")
    failures = 0
    for idx, (label, func) in enumerate(checks, start=1):
        ok = False
        try:
            ok = func()
        except Exception as exc:              # a crashing check is a failure
            print(f"# {label}: {exc!r}")
        if ok:
            print(f"ok {idx} - {label}")
        else:
            failures += 1
            print(f"not ok {idx} - {label}")
    return 1 if failures else 0


# --- entry point ---------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="cone-multiplier counterexample toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bes = sub.add_parser("besicovitch", help="build a rectangle family")
    p_bes.add_argument("--k", type=int, required=True)
    p_bes.add_argument("--out", required=True)
    p_bes.set_defaults(func=cmd_besicovitch)

    p_ratio = sub.add_parser("ratio", help="run the ratio experiment")
    p_ratio.add_argument("--config", required=True)
    p_ratio.set_defaults(func=cmd_ratio)

    p_val = sub.add_parser("validate", help="run property suites")
    p_val.add_argument("--suite", choices=[*SUITES, "all"], required=True)
    p_val.add_argument("--fast", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_sz = sub.add_parser("szego", help="kernel samples and checks")
    p_sz.add_argument("--config", required=True)
    p_sz.set_defaults(func=cmd_szego)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:         # a result missed its tolerance
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                   # internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
