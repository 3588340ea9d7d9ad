"""The benchmark's workloads.

Each workload turns (params, seed) into a spec, writes the program's input
files for one iteration, runs the iteration inside a child process
(``run``, the only part that imports conekit), checks the outputs against
the certificates of the recorded reference (``check``, pure Python, run in
the benchmark process) and can record that reference (``record``).

The sizes are scaled-down versions of the experiments they stand for, so
that one iteration fits several times into a measured run; README.md in
this directory gives the reasons and the full-size figures.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

DATA_EXCLUDED = {"manifest.json"}    # holds wall-clock timings, not data

SQRT2 = math.sqrt(2.0)
QUAD_TOL = 1e-8                      # per-box tolerance of the lhs quadrature
TOTAL_F_VOLUME = 0.5                 # N boxes F_j of volume 1/(2N)
REL_ROUNDING = 1e-12


def _close(a, b, rel=REL_ROUNDING):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _p_key(p):
    return format(float(p), "g")


# --- ratio -----------------------------------------------------------------------

class Ratio:
    """``conekit ratio`` over a (k, p) grid: the blow-up experiment."""

    RHS_REF_SAMPLES = 10_000_000
    RHS_REF_SEED = 20240517

    def make_spec(self, params, seed):
        return {"params": params, "seed": seed}

    def write_inputs(self, spec, iter_dir):
        p = spec["params"]
        config = {
            "k_list": p["k_list"],
            "p_list": p["p_list"],
            "mc_samples": p["mc_samples"],
            "seed": spec["seed"],
            "out_dir": str(iter_dir / "out"),
        }
        (iter_dir / "config.json").write_text(json.dumps(config))

    def run(self, spec, iter_dir):
        from conekit import cli

        return {"ratio": cli.main(["ratio", "--config",
                                   str(iter_dir / "config.json")])}

    def check(self, spec, iter_dir, exits, ref):
        p = spec["params"]
        cells = [(k, pp) for k in p["k_list"] for pp in p["p_list"]]
        out = iter_dir / "out"
        try:
            if exits.get("ratio") != 0:
                raise ValueError(f"ratio exited with {exits.get('ratio')}")
            rows = _read_rows(out / "report.csv")
            plot = self._plot_data(out, p["p_list"])
        except (OSError, ValueError, IndexError) as exc:
            return len(cells), [f"k={k} p={_p_key(pp)}: {exc}"
                                for k, pp in cells]
        by_cell = {}
        for row in rows:
            cell = (int(row["k"]), float(row["p"]))
            by_cell.setdefault(cell, []).append(row)
        failures = []
        for k, pp in cells:
            found = by_cell.get((k, float(pp)), [])
            if len(found) != 1:
                problem = f"{len(found)} rows"
            else:
                try:
                    problem = self._cell_problem(found[0], k, float(pp),
                                                 ref["cells"][str(k)], plot)
                except (KeyError, ValueError) as exc:
                    problem = f"malformed row: {exc!r}"
            if problem:
                failures.append(f"k={k} p={_p_key(pp)}: {problem}")
        return len(cells), failures

    @staticmethod
    def _plot_data(out, p_list):
        plot = {}
        for index, p in enumerate(p_list):
            text = (out / f"ratio_holder_p{index}.dat").read_text()
            for line in text.splitlines():
                k, value = line.split()
                plot[(int(k), float(p))] = float(value)
        return plot

    @staticmethod
    def _cell_problem(row, k, p, ref, plot):
        f = {name: float(row[name]) for name in (
            "eps_hat", "lhs", "rhs_exact", "rhs_stderr", "rhs_holder",
            "ratio", "ratio_holder", "m_lower")}
        n = 2**k
        if int(row["N"]) != n:
            return "wrong N"
        if abs(f["lhs"] - ref["lhs"]) > n * QUAD_TOL:
            return "lhs outside its quadrature tolerance"
        if abs(f["eps_hat"] - ref["union"]) > (
            ref["union_error_bound"] * (1 + 1e-9)
        ):
            return "eps_hat outside the recorded union error bound"
        rhs_ref, rhs_ref_err = ref["rhs"][_p_key(p)]
        if abs(f["rhs_exact"] - rhs_ref) > (
            4.0 * math.hypot(f["rhs_stderr"], rhs_ref_err)
            + REL_ROUNDING * rhs_ref
        ):
            return "rhs_exact outside 4 standard errors"
        if row["control"] != ("1" if p == 2.0 else "0"):
            return "wrong control flag"
        derived = {
            "rhs_holder": math.sqrt(TOTAL_F_VOLUME)
            * f["eps_hat"] ** (1.0 / p - 0.5),
            "ratio": f["lhs"] / f["rhs_exact"],
            "ratio_holder": f["lhs"] / f["rhs_holder"],
            "m_lower": f["lhs"] / f["rhs_exact"] / SQRT2,
        }
        for name, expected in derived.items():
            if not _close(f[name], expected):
                return f"{name} inconsistent with the certified columns"
        if plot.get((k, p)) != f["ratio_holder"]:
            return "plot data disagrees with report.csv"
        return None

    def record(self, params):
        import numpy as np

        from conekit import besicovitch as bs
        from conekit import multiplier as mp

        cells = {}
        for k in params["k_list"]:
            boxes = bs.build_boxes(bs.build_perron_rectangles(k))
            union, err = bs.union_measure(boxes, params["eps_resolution"])
            lhs = sum(
                mp.translate_image_integral(f_box, ntilde, tol=QUAD_TOL)
                for f_box, ntilde in zip(boxes.boxes_f, boxes.normals)
            )
            rhs = {}
            for p in params["p_list"]:
                # count^0 = 1: the p = 2 moment is exact at any sample size
                samples = self.RHS_REF_SAMPLES if p < 2.0 else 10_000
                seed = int(np.random.SeedSequence(
                    self.RHS_REF_SEED, spawn_key=(k, int(round(p * 1e6))),
                ).generate_state(1)[0])
                moment, moment_err = mp.stratified_count_moment(
                    boxes, p / 2.0 - 1.0, samples, seed)
                value = moment ** (1.0 / p)
                rhs[_p_key(p)] = [
                    float(value),
                    float(value / (p * moment) * moment_err),
                ]
            cells[str(k)] = {"lhs": float(lhs), "union": float(union),
                             "union_error_bound": float(err), "rhs": rhs}
        return {"cells": cells}

    def corrupt(self, out_dir):
        """Move the first eps_hat past its certificate."""
        path = out_dir / "report.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cols = lines[1].split(",")
        index = header.index("eps_hat")
        cols[index] = repr(float(cols[index]) * 1.5)
        lines[1] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")


# --- geometry -------------------------------------------------------------------

class Geometry:
    """``conekit besicovitch`` plus ``box_geometry_check`` on the 3D boxes:
    the separating-axis loops and one large union."""

    BOOLEAN_KEYS = (
        "volumes_f", "total_translate_volume", "f_inside_e",
        "translates_disjoint", "normals_have_sqrt2_length",
        "translates_are_shifts", "inside_ball", "projections_match",
        "all_passed",
    )

    def make_spec(self, params, seed):
        order = list(range(2 ** params["check_k"]))
        random.Random(seed).shuffle(order)
        return {"params": params, "seed": seed, "order": order}

    def write_inputs(self, spec, iter_dir):
        pass

    def run(self, spec, iter_dir):
        from conekit import besicovitch as bs
        from conekit import cli

        p = spec["params"]
        out = iter_dir / "out"
        out.mkdir(parents=True, exist_ok=True)
        status = cli.main(["besicovitch", "--k", str(p["cli_k"]),
                           "--out", str(out / "cli")])
        family = bs.build_perron_rectangles(p["check_k"])
        family = bs.RectangleFamily(
            k=family.k, rects=tuple(family.rects[i] for i in spec["order"]),
            shift=family.shift,
        )
        report = bs.box_geometry_check(bs.build_boxes(family))
        (out / "geometry_check.json").write_text(
            json.dumps(report, sort_keys=True) + "\n"
        )
        return {"besicovitch": status}

    def check(self, spec, iter_dir, exits, ref):
        out = iter_dir / "out"
        failures = []
        try:
            problem = self._cli_problem(spec["params"], out / "cli", exits,
                                        ref)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(f"cli: {problem}")
        try:
            report = json.loads((out / "geometry_check.json").read_text())
        except (OSError, ValueError):
            report = {}
        for key in self.BOOLEAN_KEYS:
            if report.get(key) is not True:
                failures.append(f"box_geometry_check: {key}")
        norm = report.get("max_vertex_norm")
        if not isinstance(norm, float) or (
            abs(norm - ref["max_vertex_norm"]) > 1e-9
        ):
            failures.append("box_geometry_check: max_vertex_norm")
        return 2 + len(self.BOOLEAN_KEYS), failures

    @staticmethod
    def _cli_problem(params, out, exits, ref):
        if exits.get("besicovitch") != 0:
            return f"exited with {exits.get('besicovitch')}"
        n = 2 ** params["cli_k"]
        (row,) = _read_rows(out / "stats.csv")
        union = float(row["union_measure"])
        err = float(row["union_error_bound"])
        if int(row["k"]) != params["cli_k"] or int(row["N"]) != n:
            return "wrong k or N in stats.csv"
        if abs(union - ref["union"]) > ref["union_error_bound"] * (1 + 1e-9):
            return "union measure outside the recorded error bound"
        if not _close(float(row["eps_hat"]), union + err):
            return "eps_hat is not union + error bound"
        if row["translates_disjoint"] != "1":
            return "translates reported overlapping"
        if abs(float(row["total_area"]) - 1.0) > REL_ROUNDING:
            return "total area is not 1"
        family = json.loads((out / "family.json").read_text())
        rects = family["rects"]
        if family["n_rects"] != n or len(rects) != n:
            return "family.json has the wrong size"
        for rect in rects:
            if not (_close(rect["width"], 1.0 / n) and rect["length"] == 1.0
                    and abs(math.hypot(*rect["direction"]) - 1.0) <= 1e-12):
                return "family.json rectangle has the wrong shape"
        center_sum = [sum(r["center"][i] for r in rects) for i in range(2)]
        if max(abs(a - b)
               for a, b in zip(center_sum, ref["center_sum"])) > 1e-9:
            return "family.json differs from the recorded construction"
        if (out / "family.svg").read_text().count("<polygon") != 2 * n:
            return "family.svg does not draw every rectangle and translate"
        return None

    def record(self, params):
        from conekit import besicovitch as bs

        family = bs.build_perron_rectangles(params["cli_k"])
        union, err = bs.union_measure(family, params["resolution"])
        center_sum = [float(sum(r.center[i] for r in family.rects))
                      for i in range(2)]
        boxes = bs.build_boxes(bs.build_perron_rectangles(params["check_k"]))
        report = bs.box_geometry_check(boxes)
        return {"union": float(union), "union_error_bound": float(err),
                "center_sum": center_sum,
                "max_vertex_norm": report["max_vertex_norm"]}

    def corrupt(self, out_dir):
        """Report the translates as overlapping."""
        path = out_dir / "cli" / "stats.csv"
        header, values = path.read_text().splitlines()
        cols = values.split(",")
        cols[header.split(",").index("translates_disjoint")] = "0"
        path.write_text(header + "\n" + ",".join(cols) + "\n")


# --- modulation --------------------------------------------------------------------

class Modulation:
    """``modulation_convergence`` on the k = 1 boxes: 3D FFTs and grids."""

    def make_spec(self, params, seed):
        r_list = sorted(random.Random(seed).sample(params["r_candidates"],
                                                   params["r_count"]))
        return {"params": params, "seed": seed, "r_list": r_list}

    def write_inputs(self, spec, iter_dir):
        pass

    def run(self, spec, iter_dir):
        from conekit import besicovitch as bs
        from conekit import multiplier as mp

        p = spec["params"]
        boxes = bs.build_boxes(bs.build_perron_rectangles(1))
        rows = mp.modulation_convergence(boxes, spec["r_list"], p["samples"],
                                         p["extent"])
        out = iter_dir / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / "distances.json").write_text(
            json.dumps({"r_list": spec["r_list"], "distances": rows}) + "\n"
        )
        return {}

    def check(self, spec, iter_dir, exits, ref):
        n_boxes = len(next(iter(ref["distances"].values())))
        attempted = len(spec["r_list"]) * n_boxes
        try:
            doc = json.loads((iter_dir / "out" / "distances.json").read_text())
            got = dict(zip(doc["r_list"], doc["distances"]))
        except (OSError, ValueError, KeyError):
            got = {}
        failures = []
        for r in spec["r_list"]:
            row = got.get(r) or []
            for j, expected in enumerate(ref["distances"][str(r)]):
                if j >= len(row) or abs(row[j] - expected) > 1e-9:
                    failures.append(f"R={r} box {j}")
        return attempted, failures

    def record(self, params):
        from conekit import besicovitch as bs
        from conekit import multiplier as mp

        boxes = bs.build_boxes(bs.build_perron_rectangles(1))
        rows = mp.modulation_convergence(boxes, params["r_candidates"],
                                         params["samples"], params["extent"])
        return {"distances": {str(r): row for r, row in
                              zip(params["r_candidates"], rows)}}

    def corrupt(self, out_dir):
        """Move one distance by more than rounding."""
        path = out_dir / "distances.json"
        doc = json.loads(path.read_text())
        doc["distances"][0][0] += 1e-6
        path.write_text(json.dumps(doc) + "\n")


# --- symmetric cones ----------------------------------------------------------------

TAP_LINE = re.compile(r"^(ok|not ok) (\d+)\b")


class Symcone:
    """``conekit validate`` (TAP) then ``conekit szego``: Jordan frames,
    Lie-ball sampling, Cayley maps and kernel quadrature."""

    def make_spec(self, params, seed):
        return {"params": params, "seed": seed}

    def write_inputs(self, spec, iter_dir):
        config = dict(spec["params"]["szego"], seed=spec["seed"],
                      out_dir=str(iter_dir / "out" / "szego"))
        (iter_dir / "config.json").write_text(json.dumps(config))

    def run(self, spec, iter_dir):
        from conekit import cli

        out = iter_dir / "out"
        out.mkdir(parents=True, exist_ok=True)
        tap = io.StringIO()
        with contextlib.redirect_stdout(tap):
            status = cli.main(["validate", *spec["params"]["validate"]])
        (out / "tap.txt").write_text(tap.getvalue())
        return {"validate": status,
                "szego": cli.main(["szego", "--config",
                                   str(iter_dir / "config.json")])}

    def check(self, spec, iter_dir, exits, ref):
        out = iter_dir / "out"
        try:
            lines = (out / "tap.txt").read_text().splitlines()
        except OSError:
            lines = []
        passed = set()
        for line in lines:
            match = TAP_LINE.match(line)
            if match and match.group(1) == "ok":
                passed.add(int(match.group(2)))
        failures = [f"TAP check {i}" for i in range(1, ref["tap_plan"] + 1)
                    if i not in passed]
        try:
            problem = self._szego_problem(spec["params"]["szego"],
                                          out / "szego", exits, ref)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(f"szego: {problem}")
        return ref["tap_plan"] + 1, failures

    @staticmethod
    def _szego_problem(config, out, exits, ref):
        if exits.get("szego") != 0:
            return f"exited with {exits.get('szego')}"
        report = json.loads((out / "szego_report.json").read_text())
        consistency = report["conformal_consistency"]
        if consistency["failures"] != 0 or (
            consistency["samples"] != 2 * config["n_consistency_samples"]
        ):
            return "conformal consistency failures"
        if not report["kernel_relation"]["max_residual"] < 5e-2:
            return "kernel relation residual too large"
        rows = _read_rows(out / "kernel_samples.csv")
        if len(rows) != config["n_kernel_samples"]:
            return "wrong number of kernel samples"
        tol = config["tol"]
        for row in rows:
            if row["method"] != "quadrature" or not (
                float(row["error_estimate"]) <= tol
            ):
                return "kernel sample outside its error estimate"
            w = [complex(float(row[f"z{i}_re"]) - float(row[f"u{i}"]),
                         float(row[f"z{i}_im"])) for i in range(3)]
            value = complex(float(row["value_re"]), float(row["value_im"]))
            det = abs(w[0] ** 2 - w[1] ** 2 - w[2] ** 2)
            product = abs(value) * det ** 1.5
            if abs(product / ref["kernel_constant"] - 1.0) > tol:
                return "kernel sample off the det^(-3/2) power law"
        return None

    def record(self, params):
        import numpy as np

        from conekit import cli
        from conekit import jordan as jd
        from conekit import szego as sz

        tap = io.StringIO()
        with contextlib.redirect_stdout(tap):
            status = cli.main(["validate", *params["validate"]])
        plan = tap.getvalue().splitlines()[0]
        if status != 0 or not plan.startswith("1.."):
            raise RuntimeError("validate does not pass at the recorded commit")
        z = jd.Element(jd.spin_factor(3), np.array([0.1, -0.2, 0.3])
                       + 1j * np.array([1.0, 0.2, -0.1]))
        u = np.array([0.3, 0.1, -0.4])
        sample = sz.szego_kernel_quadrature(sz.TubePoint(z), u)
        w = z.coords - u
        constant = abs(sample.value) * abs(w[0]**2 - w[1]**2 - w[2]**2) ** 1.5
        return {"tap_plan": int(plan[3:]), "kernel_constant": float(constant)}

    def corrupt(self, out_dir):
        """Force the first TAP check to read ``not ok``."""
        path = out_dir / "tap.txt"
        path.write_text(path.read_text().replace("ok 1 ", "not ok 1 ", 1))


KINDS = {"ratio": Ratio(), "geometry": Geometry(), "modulation": Modulation(),
         "symcone": Symcone()}

# The measured workloads (name -> kind and sizes).  See README.md for why each
# exists and how it was scaled from the full-size experiment.
WORKLOADS = {
    "ratio-k7": {
        "kind": "ratio", "k_list": [3, 4, 5, 6, 7],
        "p_list": [1.0, 1.5, 2.0], "mc_samples": 20_000,
        "eps_resolution": 2.0**-14,
    },
    "geometry-k8": {
        "kind": "geometry", "cli_k": 8, "check_k": 7,
        "resolution": 2.0**-14,
    },
    "modulation-128": {
        "kind": "modulation", "samples": 128, "extent": 12.0,
        "r_candidates": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
        "r_count": 4,
    },
    "symcone-validate": {
        "kind": "symcone", "validate": ["--suite", "all", "--fast"],
        "szego": {"n_kernel_samples": 20, "n_consistency_samples": 2_000,
                  "n_relation_samples": 10, "tol": 1e-6, "dimension": 3},
    },
}

# Toy sizes of the same workloads, for selftest.py.
TOY_WORKLOADS = {
    "ratio-k7": dict(WORKLOADS["ratio-k7"], k_list=[3, 4],
                     p_list=[1.0, 2.0], mc_samples=10_000),
    "geometry-k8": dict(WORKLOADS["geometry-k8"], cli_k=3, check_k=3),
    "modulation-128": dict(WORKLOADS["modulation-128"], samples=32,
                           extent=8.0, r_candidates=[1, 2, 4, 8], r_count=2),
    "symcone-validate": dict(
        WORKLOADS["symcone-validate"], validate=["--suite", "szego", "--fast"],
        szego=dict(WORKLOADS["symcone-validate"]["szego"],
                   n_kernel_samples=3, n_consistency_samples=200,
                   n_relation_samples=3),
    ),
}


def kind(params):
    return KINDS[params["kind"]]


def data_files(out_dir):
    """Relative path -> sha256 of every data file an iteration wrote."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return {}
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(
            path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name not in DATA_EXCLUDED
    }
