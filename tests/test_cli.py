"""Tests for the command-line driver: outputs, determinism, exit codes."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conekit import besicovitch as bs
from conekit import cli
from conekit import multiplier as mp

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
            f"k{k}": min(mp.translate_image_minimum(f, n)
                         for f, n in zip(b.boxes_f, b.normals))
            for k, b in boxes.items()}

    def test_report_columns_are_the_report_fields(self):
        fields = [f.name for f in dataclasses.fields(mp.ExperimentReport)]
        assert ([c for c in cli.REPORT_COLUMNS if c != "wall_ms"]
                == [f for f in fields if f != "kappa"])

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

    def test_usage_error_for_unknown_suite(self):
        with pytest.raises(SystemExit) as err:
            run_main(["validate", "--suite", "nonsense"])
        assert err.value.code == 2


class TestSzegoCommand:
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
        assert report["kernel_relation"]["max_residual"] < 5e-2

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "out_dir": str(tmp_path / "out"),
                                   "n_kernel_samples": 1, "tol": 3e-16}))
        assert run_main(["szego", "--config", str(cfg)]) == 1
        assert ("error: kernel quadrature did not reach tol = 3e-16"
                in capsys.readouterr().err)

    def test_missed_tol_leaves_no_out_dir(self, tmp_path):
        # the files are written only once every result is in
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "out_dir": str(tmp_path / "out"),
                                   "n_kernel_samples": 1, "tol": 3e-16}))
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
