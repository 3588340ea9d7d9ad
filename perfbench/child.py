"""One benchmark iteration in a fresh process.

Usage: child.py SPEC_JSON ITER_DIR MODE

MODE is ``run``, ``trace`` (install the tracer first) or ``setup`` (stop
before the workload call, to sample set-up time alone).  Imports conekit
from the checkout's ``src/``, then runs the workload once.  Writes
ITER_DIR/result.json with the CLOCK_MONOTONIC instants at the end of set-up
and around the workload call (the benchmark process shares that clock and
records the instant it started this process), the calibration times measured
right after set-up and right after the workload, the exit status of every
CLI call and, when traced, the per-layer figures.
"""

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# imported here so that their import time counts as set-up
import numpy as np  # noqa: E402
from conekit import besicovitch, cli, jordan, multiplier, szego  # noqa

import workloads  # noqa: E402


def calibration_seconds():
    """Seconds for a fixed kernel that does not touch conekit.

    It measures only how fast the machine runs at that moment; run.py
    rescales the times next to it by it.  Its four parts, about 0.1 s each,
    stand for the kinds of work the workloads do (interpreted loops, small
    numpy calls as in the SAT and Jordan code, large sorts, 3D FFTs): each
    kind slows by its own amount when the machine is loaded.
    """
    rng = np.random.default_rng(0)
    data = rng.normal(size=2**18)
    grid = rng.normal(size=(64, 64, 64)) + 0j
    axes = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    vec = np.array([0.3, -0.2, 0.5])
    half = np.array([0.5, 0.2, 0.1])
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_200_000):
        acc += i * i % 7
    for _ in range(3_000):
        np.sum(half * np.abs(axes @ vec))
        np.cross(axes[0], vec)
    for _ in range(50):
        np.sort(data)
    for _ in range(6):
        np.fft.ifftn(np.fft.fftn(grid))
    return time.perf_counter() - t0


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    iter_dir = Path(argv[2])
    mode = argv[3]
    recorder = None
    if mode == "trace":
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    workload = workloads.kind(spec["params"])
    result = {"error": None, "t_setup": time.monotonic(),
              "calibration": [calibration_seconds()]}
    if mode != "setup":
        result["t_ready"] = time.monotonic()
        try:
            result["exits"] = workload.run(spec, iter_dir)
        except Exception:                  # reported, counted as failed ops
            result["error"] = traceback.format_exc()
        result["t_done"] = time.monotonic()
        result["calibration"].append(calibration_seconds())
    result["trace"] = recorder.report() if recorder else None
    (iter_dir / "result.json").write_text(json.dumps(result))
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
