"""conekit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load is a closed loop from this single
process: one iteration at a time, each in a fresh child process
(``child.py``), until the next one would end after ``--seconds``; at least
one iteration always runs.  The workload's inputs are generated from
``--seed`` and written to a temporary directory inside the checkout; the
program receives only those files.  Every output is checked against the
certificates of ``reference.json``.

``--trace 0`` reports the end-to-end metrics (medians over iterations):

* ``wall_s``       time from the first workload call to the end of the last
* ``setup_s``      process start, imports and input loading, up to the
                   first workload call; also sampled by SETUP_SAMPLES
                   children that stop there
* ``peak_rss_mb``  peak resident memory of the iteration's own child process
                   (``os.wait4``, not the high-water mark over all children)

Both times are calibrated: each child times a fixed kernel that does not use
conekit (``child.calibration_seconds``) right after set-up and right after
the workload, and a time is reported as measured * CALIBRATION_NOMINAL_S /
(its child's calibration).  The speed of the machines this was built on
drifts by tens of percent within minutes; the raw medians go to stderr.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``tracer.py`` (medians over traced iterations), the
untraced children's CPU time as ``cli.cpu_s``, and the tracing overhead
``trace.overhead_s`` = traced ``wall_s`` - untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details go to
standard error.  Exit status 2, with no result, means the run could not
start (no conekit sources, unknown workload, stale reference).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
REFERENCE = HERE / "reference.json"
# children still running this long after the run started are killed, so
# that the run ends within its 180 s limit
HARD_LIMIT_S = 150.0
# set-up-only children per run, so that setup_s is a median even when a
# single iteration fills the run
SETUP_SAMPLES = 3
# calibration time that defines a calibrated second (the kernel's typical
# time on a 2-vCPU x86-64 VM)
CALIBRATION_NOMINAL_S = 0.35
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "CONEKIT_THREADS")


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Thread pools capped at nproc for BLAS/FFT."""
    env = dict(os.environ)
    env.update({var: str(nproc()) for var in THREAD_VARS})
    return env


def environment():
    info = {"nproc": nproc(), "thread_cap": nproc(),
            "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    try:
        with open("/proc/meminfo") as handle:
            kib = int(handle.readline().split()[1])
        info["mem_total_gb"] = round(kib / 2**20, 2)
    except (OSError, ValueError, IndexError):
        info["mem_total_gb"] = None
    return info


def load_reference(name, params):
    if not (ROOT / "src" / "conekit" / "__init__.py").is_file():
        raise SetupError(f"no conekit sources under {ROOT / 'src'}")
    try:
        recorded = json.loads(REFERENCE.read_text())["workloads"][name]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"no reference for {name}: {exc!r}") from exc
    if recorded["params"] != params:
        raise SetupError(f"{REFERENCE.name} was recorded for other sizes of "
                         f"{name}; run record_reference.py")
    return recorded


def _reap(proc, deadline):
    """Wait for the child, killing it at the deadline; returns its own
    rusage and whether it was killed."""
    killed = False
    reaped = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                killed = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        reaped = True
    finally:
        if not reaped:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, killed


def spawn_child(spec, spec_path, iter_dir, mode, env, deadline):
    """Run child.py once; returns its result, exit status, own rusage,
    whether it was killed, and the instant it was started."""
    iter_dir.mkdir()
    workloads.kind(spec["params"]).write_inputs(spec, iter_dir)
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path),
           str(iter_dir), mode]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr.fileno())
    usage, killed = _reap(proc, deadline)
    try:
        result = json.loads((iter_dir / "result.json").read_text())
    except (OSError, ValueError):
        result = {"error": f"no result (exit {proc.returncode})"}
    if killed:
        result["error"] = "killed at the run's time limit"
    return result, proc.returncode, usage, killed, t_spawn


def setup_sample(spec, spec_path, iter_dir, env, deadline):
    """Calibrated set-up time of a child that stops before the workload."""
    result, status, _, _, t_spawn = spawn_child(spec, spec_path, iter_dir,
                                                "setup", env, deadline)
    shutil.rmtree(iter_dir)
    if status != 0 or result.get("error") is not None:
        return None
    return ((result["t_setup"] - t_spawn) * CALIBRATION_NOMINAL_S
            / result["calibration"][0])


def run_iteration(spec, reference, spec_path, iter_dir, traced, env,
                  deadline):
    """One child process; returns its timings, resources and checks."""
    kind = workloads.kind(spec["params"])
    result, status, usage, killed, t_spawn = spawn_child(
        spec, spec_path, iter_dir, "trace" if traced else "run", env,
        deadline)
    clean = result.get("error") is None and status == 0
    attempted, failures = kind.check(spec, iter_dir, result.get("exits") or {},
                                     reference)
    calibration = result.get("calibration") or [CALIBRATION_NOMINAL_S]
    raw_wall = result.get("t_done", 0.0) - result.get("t_ready", 0.0)
    it = {
        "traced": traced,
        "setup_s": (result.get("t_setup", t_spawn) - t_spawn)
        * CALIBRATION_NOMINAL_S / calibration[0],
        "wall_s": raw_wall * CALIBRATION_NOMINAL_S
        / statistics.mean(calibration),
        "raw_wall_s": raw_wall,
        "calibration_s": statistics.mean(calibration),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "attempted": attempted,
        "failed": attempted if not clean else min(len(failures), attempted),
        "failures": failures[:5],
        "error": result.get("error"),
        "killed": killed,
        "trace": result.get("trace"),
        "data": workloads.data_files(iter_dir / "out"),
    }
    shutil.rmtree(iter_dir)
    return it


def measure(name, reference, seed, seconds, traced):
    params = workloads.WORKLOADS[name]
    spec = workloads.kind(params).make_spec(params, seed)
    env = child_env()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    rounds = []
    try:
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec))
        start = time.monotonic()
        setups = [setup_sample(spec, spec_path, tmp / f"setup-{i}", env,
                               start + HARD_LIMIT_S)
                  for i in range(0 if traced else SETUP_SAMPLES)]
        modes = (False, True) if traced else (False,)
        loop_start = time.monotonic()
        while True:
            rounds.append([
                run_iteration(spec, reference, spec_path,
                              tmp / f"iter-{len(rounds)}-{int(mode)}", mode,
                              env, start + HARD_LIMIT_S)
                for mode in modes
            ])
            now = time.monotonic()
            if any(it["killed"] for it in rounds[-1]):
                break
            if now - start + (now - loop_start) / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return rounds, [s for s in setups if s is not None]


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_reuse", "_acceptance")):
        return "ratio"
    return "count"


def summarize(name, reference, seed, traced, rounds, setups):
    iterations = [it for rnd in rounds for it in rnd]
    plain = [it for it in iterations if not it["traced"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    # traced children must write the same data files as untraced ones
    transparent = all(rnd[0]["data"] == rnd[-1]["data"] for rnd in rounds)
    correct = failed == 0 and transparent and all(
        it["error"] is None for it in iterations)

    def med(key, its):
        return statistics.median(it[key] for it in its)

    if traced:
        with_trace = [it for it in iterations if it["traced"]]
        names = next((it["trace"] for it in with_trace if it["trace"]), {})
        metrics = {
            metric: {"value": statistics.median(
                it["trace"][metric] if it["trace"] else 0
                for it in with_trace), "unit": unit(metric)}
            for metric in names
        }
        metrics["cli.cpu_s"] = {"value": med("cpu_s", plain), "unit": "s"}
        traced_wall = med("wall_s", with_trace)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - med("wall_s", plain), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": med("wall_s", plain), "unit": "s"},
            "setup_s": {"value": statistics.median(
                setups + [it["setup_s"] for it in plain]), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", plain), "unit": "MB"},
        }

    info = {
        "workload": name, "seed": seed, "trace": int(traced),
        "iterations": len(iterations),
        "raw_wall_s": med("raw_wall_s", plain),
        "calibration_s": med("calibration_s", plain),
        "data_identical_across_iterations": all(
            it["data"] == iterations[0]["data"] for it in iterations),
        "traced_data_identical": transparent if traced else None,
    }
    recorded = reference.get("report_csv_sha256", {})
    if "report.csv" in iterations[0]["data"]:
        expected = recorded.get(str(seed))
        info["report_csv_matches_recorded"] = (
            None if expected is None
            else iterations[0]["data"]["report.csv"] == expected
        )
    for it in iterations:
        print(json.dumps({key: it[key] for key in (
            "traced", "setup_s", "wall_s", "raw_wall_s", "calibration_s",
            "peak_rss_mb", "cpu_s", "attempted", "failed", "failures",
            "error")}), file=sys.stderr)
    print(json.dumps(info), file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    # on SIGTERM, unwind so that _reap kills and waits for the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    print(json.dumps({"environment": environment()}), file=sys.stderr)
    params = workloads.WORKLOADS[args.workload]
    try:
        reference = load_reference(args.workload, params)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    rounds, setups = measure(args.workload, reference, args.seed,
                             args.seconds, bool(args.trace))
    print(json.dumps(summarize(args.workload, reference, args.seed,
                               bool(args.trace), rounds, setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
