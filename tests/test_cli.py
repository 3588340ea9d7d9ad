"""Tests for the command-line driver: outputs, determinism, exit codes."""

import collections
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conekit import besicovitch as bs
from conekit import cli
from conekit import jordan as jd
from conekit import multiplier as mp
from conekit import szego as sz
from conekit.errors import BudgetExceededError, ConstructionFailedError

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_main(argv):
    return cli.main(argv)


@pytest.mark.parametrize("command", ["ratio", "szego"])
@pytest.mark.parametrize("text", ["null", "5", "[]"])
def test_non_object_config_is_usage_error(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_main([command, "--config", str(cfg)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, key", [
    ("ratio", {"k_list": ["3"]}, "k_list"),
    ("ratio", {"k_list": 3}, "k_list"),
    ("ratio", {"k_list": []}, "k_list"),
    ("ratio", {"p_list": ["1"]}, "p_list"),
    ("ratio", {"mc_samples": "1e5"}, "mc_samples"),
    ("ratio", {"seed": "x"}, "seed"),
    ("ratio", {"seed": True}, "seed"),
    ("szego", {"dimension": "3"}, "dimension"),
    ("szego", {"n_kernel_samples": 0}, "n_kernel_samples"),
])
def test_config_value_of_wrong_kind_is_usage_error(tmp_path, capsys, command,
                                                   override, key):
    cfg = {"seed": 1, "out_dir": str(tmp_path / "out")}
    if command == "ratio":
        cfg.update(k_list=[3], p_list=[1.0], mc_samples=10_000)
    cfg.update(override)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_main([command, "--config", str(path)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["Infinity", "NaN", "-1e-6"])
def test_nonfinite_or_negative_number_is_usage_error_before_output(
        tmp_path, capsys, tol):
    # Python's json reads the non-standard Infinity and NaN literals
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"seed": 7, "out_dir": "{out}", "tol": {tol}}}')
    assert run_main(["szego", "--config", str(path)]) == 2
    assert "config key 'tol' must be a finite positive number" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_resolution_knobs_are_gone(tmp_path, capsys):
    # the union measure is exact, so a resolution could change nothing
    cfg = {"k_list": [3], "p_list": [1.0], "mc_samples": 10_000, "seed": 1,
           "out_dir": str(tmp_path / "out"), "eps_resolution": 2.0**-14}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_main(["ratio", "--config", str(path)]) == 2
    assert "eps_resolution" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_main(["besicovitch", "--k", "2", "--out", str(tmp_path / "b"),
                  "--resolution", "0.001"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, name", [
    ("ratio", "'out_dir'"), ("szego", "'out_dir'"), ("besicovitch", "--out")])
def test_empty_output_path_is_usage_error_writing_nothing(
        tmp_path, monkeypatch, capsys, command, name):
    # an empty path would put every output in the working directory
    cfg = {"seed": 1, "out_dir": ""}
    if command == "ratio":
        cfg.update(k_list=[1], p_list=[1.0], mc_samples=10_000)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ([command, "--config", str(path)] if command != "besicovitch"
            else [command, "--k", "1", "--out", ""])
    monkeypatch.chdir(tmp_path)
    assert run_main(argv) == 2
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _union_over_budget(shapes, resolution):
    raise BudgetExceededError("union bound above tolerance")


def _union_missing_key(shapes, resolution):
    raise KeyError("planted")


class TestBesicovitchCommand:
    def test_outputs_and_stats(self, tmp_path):
        out = tmp_path / "fam"
        assert run_main(["besicovitch", "--k", "1", "--out", str(out)]) == 0
        stats = (out / "stats.csv").read_text().splitlines()
        header = stats[0].split(",")
        row = dict(zip(header, stats[1].split(",")))
        assert float(row["eps_hat"]) <= 1.0
        assert row["translates_disjoint"] == "1"
        assert (out / "family.json").exists()
        assert (out / "family.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "family.json", "family.svg", "stats.csv"
        }

    @pytest.mark.parametrize("k", ["0", "13"])
    def test_bad_level_is_usage_error_before_output(self, tmp_path, capsys,
                                                    k):
        out = tmp_path / "fam"
        assert run_main(["besicovitch", "--k", k, "--out", str(out)]) == 2
        assert "1..12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, fake, code, message", [
        # the family fails its verification: an internal failure
        ("translates_disjoint", lambda family: False, 3, "k=3"),
        ("union_measure", _union_over_budget, 1, "union bound"),
        # no usage error raises a KeyError, so one is a bug
        ("union_measure", _union_missing_key, 3, "KeyError('planted')"),
    ])
    def test_failed_build_or_union_leaves_no_output(
            self, tmp_path, monkeypatch, capsys, name, fake, code, message):
        # --out used to be created before the family was built
        monkeypatch.setattr(bs, name, fake)
        out = tmp_path / "fam"
        assert run_main(["besicovitch", "--k", "3", "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_main(["besicovitch", "--k", "2", "--out", str(a)])
        run_main(["besicovitch", "--k", "2", "--out", str(b)])
        for name in ("family.json", "family.svg", "stats.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestRatioCommand:
    @pytest.fixture()
    def config(self, tmp_path):
        cfg = {
            "k_list": [3, 4],
            "p_list": [1.0, 2.0],
            "mc_samples": 10_000,
            "seed": 42,
            "out_dir": str(tmp_path / "run"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path, Path(cfg["out_dir"])

    def test_report_schema_and_monotonicity(self, config):
        path, out = config
        assert run_main(["ratio", "--config", str(path)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.REPORT_COLUMNS)
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        p1 = [r for r in rows if r["control"] == "0"]
        assert float(p1[1]["ratio_holder"]) > float(p1[0]["ratio_holder"])
        controls = [r for r in rows if r["control"] == "1"]
        assert len(controls) == 2
        assert (out / "ratio_holder_p0.dat").exists()

    def test_manifest_times_and_kappa_per_level(self, config):
        path, out = config
        assert run_main(["ratio", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["timings_ms"]) == {"k3", "k4"}
        boxes = {k: bs.build_boxes(bs.build_perron_rectangles(k))
                 for k in (3, 4)}
        assert manifest["kappa"] == {
            f"k{k}": min(mp._translate_images(f, n, mp.LHS_TOL)[1]
                         for f, n in zip(b.boxes_f, b.normals))
            for k, b in boxes.items()}

    def test_determinism(self, config):
        path, out = config
        run_main(["ratio", "--config", str(path)])
        first = (out / "report.csv").read_bytes()
        run_main(["ratio", "--config", str(path)])
        assert (out / "report.csv").read_bytes() == first

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "k_list": [1], "p_list": [1.0], "mc_samples": 10000,
            "seed": 1, "out_dir": str(tmp_path / "o"), "bogus": 1,
        }))
        assert run_main(["ratio", "--config", str(cfg)]) == 2

    def test_failing_cell_leaves_finished_rows(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "run"
        cfg.write_text(json.dumps({
            "k_list": [3, 4], "p_list": [1.0, 2.0], "mc_samples": 10_000,
            "seed": 5, "out_dir": str(out),
        }))
        level = mp.ratio_experiment_level

        def failing_at_k4(boxes, *args):
            if boxes.k == 4:
                raise ValueError("cell failed")
            return level(boxes, *args)

        monkeypatch.setattr(mp, "ratio_experiment_level", failing_at_k4)
        assert run_main(["ratio", "--config", str(cfg)]) == 2
        lines = (out / "report.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        assert [(r["k"], r["p"]) for r in rows] == [("3", "1"), ("3", "2")]

    def test_bad_level_is_usage_error_before_any_cell(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "run"
        cfg.write_text(json.dumps({
            "k_list": [3, 13], "p_list": [1.0], "mc_samples": 10_000,
            "seed": 5, "out_dir": str(out),
        }))
        assert run_main(["ratio", "--config", str(cfg)]) == 2
        assert "1..12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, text", [
        ({"mc_samples": 5000}, "10^4"),
        ({"p_list": [1.0, 2.5]}, "[1, 2)"),
        ({"c_p": 1.5}, "c_p"),
        # a repeat would write its rows twice into report.csv and into every
        # ratio_holder_p*.dat whose p it shares
        ({"k_list": [3, 3]},
         "'k_list' must be a non-empty list of distinct integers"),
        ({"p_list": [1.0, 1.0]},
         "'p_list' must be a non-empty list of distinct numbers"),
        ({"p_list": [1, 1.0]},
         "'p_list' must be a non-empty list of distinct numbers"),
    ])
    def test_bad_config_is_usage_error_before_output(self, tmp_path, capsys,
                                                     override, text):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "run"
        cfg.write_text(json.dumps({
            "k_list": [3], "p_list": [1.0], "mc_samples": 10_000,
            "seed": 5, "out_dir": str(out), **override,
        }))
        assert run_main(["ratio", "--config", str(cfg)]) == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    def test_missing_seed_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "k_list": [1], "p_list": [1.0], "mc_samples": 10000,
            "out_dir": str(tmp_path / "o"),
        }))
        assert run_main(["ratio", "--config", str(cfg)]) == 2


class TestValidateCommand:
    @pytest.mark.parametrize("suite", ["jordan", "szego"])
    def test_suite_passes(self, suite, capsys):
        assert run_main(["validate", "--suite", suite, "--fast"]) == 0
        out = capsys.readouterr().out
        assert "not ok" not in out and "ok 1 -" in out

    def test_engine_suite_fails_with_broken_boundary_rule(self, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(mp, "BOUNDARY_VALUE", 0.0)
        assert run_main(["validate", "--suite", "engine", "--fast"]) == 1
        assert "not ok" in capsys.readouterr().out

    def test_engine_suite_builds_shared_grids_once(self, monkeypatch):
        # no check builds a 3D grid or samples the cone symbol, and the
        # checks share one build of the k = 3 boxes
        built = []
        for module, name in ((mp, "indicator_box"),
                             (bs, "build_perron_rectangles"),
                             (bs, "build_boxes"),
                             (mp, "sample_symbol")):
            def counting(*args, _name=name, _func=getattr(module, name),
                         **kwargs):
                built.append((_name, args[0]))
                return _func(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        assert run_main(["validate", "--suite", "engine"]) == 0
        counts = collections.Counter(
            name for name, first in built
            if name != "sample_symbol" or isinstance(first, mp.Cone))
        assert counts == {"build_perron_rectangles": 1, "build_boxes": 1}

    @pytest.mark.parametrize("fast", [True, False])
    def test_engine_lines_on_the_paper_path(self, capsys, fast):
        argv = ["validate", "--suite", "engine"] + ["--fast"] * fast
        assert run_main(argv) == 0
        out = capsys.readouterr().out
        assert "ok 4 - engine: translate integrals match a Gauss-Legendre " \
               "rule\n" in out
        assert "ok 6 - engine: union measure ignores duplicates and adds " \
               "disjoint translates\n" in out
        assert "not ok" not in out

    def test_gauss_legendre_rule_matches_numpy(self):
        # Golub-Welsch against numpy's Newton-polished rule, at the
        # validate size and at sizes the line does not use
        for n in (1, 2, 5, 16):
            nodes, weights = cli._gauss_legendre(n)
            expected_nodes, expected_weights = \
                np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(nodes, expected_nodes, rtol=0.0,
                                       atol=4.0 * np.finfo(float).eps)
            np.testing.assert_allclose(weights, expected_weights,
                                       rtol=1e-13, atol=0.0)

    def _failed_lines(self, capsys):
        assert run_main(["validate", "--suite", "engine", "--fast"]) == 1
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("not ok")]

    def test_translate_integral_line_fails_on_scaled_closed_form(
            self, monkeypatch, capsys):
        images = mp._translate_images

        def scaled(*args):
            integrals, minima = images(*args)
            return integrals * (1.0 + 1e-9), minima

        monkeypatch.setattr(mp, "_translate_images", scaled)
        assert self._failed_lines(capsys) == [
            "not ok 4 - engine: translate integrals match a Gauss-Legendre "
            "rule"]

    def test_union_line_fails_on_shifted_duplicate_measure(self, monkeypatch,
                                                           capsys):
        union_measure = bs.union_measure

        def shifted(shapes, resolution):
            measure, bound = union_measure(shapes, resolution)
            duplicated = (isinstance(shapes, tuple)
                          and len(set(map(id, shapes))) < len(shapes))
            return measure + 10.0 * bound * duplicated, bound

        monkeypatch.setattr(bs, "union_measure", shifted)
        assert self._failed_lines(capsys) == [
            "not ok 6 - engine: union measure ignores duplicates and adds "
            "disjoint translates"]

    def test_failed_box_build_fails_only_its_lines(self, monkeypatch, capsys):
        # the boxes are built inside the checks, so the suite runs on
        def failing(k):
            raise ConstructionFailedError("planted")

        monkeypatch.setattr(bs, "build_perron_rectangles", failing)
        assert [line.split(" - ")[0] for line in self._failed_lines(capsys)] \
            == ["not ok 4", "not ok 5", "not ok 6"]

    @pytest.mark.parametrize("name, plant", [
        ("_kernel_fixed_order", lambda order: lambda *a: 2.0 * order(*a)),
        ("_kernel_fixed_order", lambda order: lambda *a: np.conj(order(*a))),
        ("szego_kernel", lambda kernel: lambda *a: 2.0 * kernel(*a)),
    ], ids=["scaled quadrature", "conjugated quadrature",
            "scaled closed form"])
    def test_kernel_line_fails_on_planted_defect(self, monkeypatch, capsys,
                                                 name, plant):
        # a det^(-3/2) power-law check sees none of these: it fits the
        # constant, reads the modulus only and never reads the closed form
        monkeypatch.setattr(sz, name, plant(getattr(sz, name)))
        assert run_main(["validate", "--suite", "szego", "--fast"]) == 1
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("not ok")] == [
            "not ok 4 - szego: kernel quadrature matches the closed form"]

    def test_usage_error_for_unknown_suite(self):
        with pytest.raises(SystemExit) as err:
            run_main(["validate", "--suite", "nonsense"])
        assert err.value.code == 2


class TestSzegoCommand:
    @pytest.mark.parametrize("n", [3, 4])
    def test_kernel_points_are_the_per_point_draws(self, n):
        # the batch keeps the draws that were made one (z, u) pair at a time
        rng = np.random.default_rng(181)
        z_rows, u_rows = [], []
        for _ in range(12):
            yprime = rng.normal(size=n - 1) * 0.3
            y1 = np.linalg.norm(yprime) + 0.3 + abs(rng.normal()) * 0.5
            x = rng.uniform(-1.5, 1.5, size=n)
            z_rows.append((x + 1j * np.concatenate(([y1], yprime))).tolist())
            u_rows.append(rng.uniform(-1.5, 1.5, size=n).tolist())
        batch_rng = np.random.default_rng(181)
        z, u = cli._kernel_points(n, 12, batch_rng)
        assert z.algebra == jd.spin_factor(n)
        assert z.coords.tolist() == z_rows and u.tolist() == u_rows
        # and leaves the stream where the later draws expect it
        assert batch_rng.random() == rng.random()

    @pytest.mark.parametrize("seed", [134, 143, 242, 313])
    def test_seeds_with_poles_near_the_angle_axis_exit_0(self, tmp_path,
                                                         seed):
        # at the benchmark's config these seeds draw relation pairs whose
        # Cayley image puts a pole of the quadrature's angular integrand
        # about 0.01 from the real axis; the relation reads the closed-form
        # kernel, so they pass its gate as every other seed does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": seed, "out_dir": str(tmp_path / "out"),
            "n_kernel_samples": 20, "n_consistency_samples": 2_000,
            "n_relation_samples": 10, "tol": 1e-6,
        }))
        assert run_main(["szego", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "szego_report.json").read_text())
        assert len(report["kernel_relation"]["held_out_residuals"]) == 10
        assert report["kernel_relation"]["max_residual"] <= sz.RELATION_TOL

    def test_small_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 7,
            "out_dir": str(tmp_path / "out"),
            "n_kernel_samples": 3,
            "n_consistency_samples": 500,
            "n_relation_samples": 2,
        }))
        assert run_main(["szego", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "szego_report.json").read_text())
        assert report["conformal_consistency"]["failures"] == 0
        assert report["kernel_relation"]["max_residual"] <= sz.RELATION_TOL

    @pytest.mark.parametrize("dimension", [4, 2])
    def test_unsupported_dimension_is_usage_error(self, tmp_path, capsys,
                                                  dimension):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "out_dir": str(tmp_path / "out"),
                                   "dimension": dimension}))
        assert run_main(["szego", "--config", str(cfg)]) == 2
        assert "'dimension'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", [1e-20, 2.0**-53])
    def test_unreachable_tol_is_usage_error_before_output(self, tmp_path,
                                                          capsys, tol):
        # the quadrature's error estimate is floored at 2^-52
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "out_dir": str(tmp_path / "out"),
                                   "tol": tol}))
        assert run_main(["szego", "--config", str(cfg)]) == 2
        assert "config key 'tol' must be at least 2^-52" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_missed_tol_is_a_check_failure_naming_it(self, tmp_path, capsys):
        # above 2^-52, but no refinement of the kernel quadrature gets there
        # on the 8th kernel sample
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "out_dir": str(tmp_path / "out"),
                                   "n_kernel_samples": 8, "tol": 3e-16}))
        assert run_main(["szego", "--config", str(cfg)]) == 1
        assert ("error: kernel quadrature did not reach tol = 3e-16"
                in capsys.readouterr().err)

    def test_missed_tol_leaves_no_out_dir(self, tmp_path):
        # the files are written only once every result is in
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "out_dir": str(tmp_path / "out"),
                                   "n_kernel_samples": 8, "tol": 3e-16}))
        assert run_main(["szego", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_subprocess_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "conekit.cli", "ratio", "--config",
             "/nonexistent/cfg.json"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_benchmark_tracer_installs(self, tmp_path):
        # the benchmark's tracer wraps conekit attributes by name and reads
        # their arguments; a rename, a deletion or a signature change that
        # breaks a hook must fail here, not in a traced run
        code = "\n".join([
            "import json, sys",
            "sys.path[:0] = ['perfbench', 'src']",
            "import tracer",
            "from conekit import cli",
            "recorder = tracer.Recorder()",
            "recorder.install()",
            f"argv = ['besicovitch', '--k', '2', '--out', {str(tmp_path)!r}]",
            "assert cli.main(argv) == 0",
            "assert recorder.report()['besicovitch.union_calls'] == 1",
            f"cfg = {str(tmp_path / 'ratio.json')!r}",
            "open(cfg, 'w').write(json.dumps({'k_list': [3],",
            "    'p_list': [1.0, 2.0], 'mc_samples': 10_000, 'seed': 1,",
            f"    'out_dir': {str(tmp_path / 'ratio')!r}}}))",
            "assert cli.main(['ratio', '--config', cfg]) == 0",
            "assert recorder.report()['multiplier.mc_samples'] == 10_000",
        ])
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "conekit.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
