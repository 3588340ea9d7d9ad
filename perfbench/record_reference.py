"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run at the commit whose outputs are to be trusted; rewrites the named
workloads' entries (default: all) in reference.json.  What is recorded:

* ratio: per k the lhs, the union measure and its error bound at the
  workload's eps_resolution, and per (k, p) a reference rhs_exact with its
  standard error from 10^7 stratified samples on its own stream; plus
  the sha256 of report.csv for seeds 0..23 (informational byte identity).
* geometry: union measure and error bound of the CLI family, the sum of its
  rectangle centers, and box_geometry_check's max_vertex_norm.
* modulation: the distance per box for every candidate R.
* symcone: the TAP plan size, and the kernel power-law constant
  |S(z, u)| |det((z - u)/i)|^(3/2) at one point.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from conekit import __version__  # noqa: E402

import workloads  # noqa: E402
from run import TMP_ROOT  # noqa: E402

REFERENCE = HERE / "reference.json"
REPORT_SEEDS = range(24)


def report_hashes(params):
    """sha256 of report.csv per seed, from the CLI at this commit."""
    kind = workloads.KINDS["ratio"]
    hashes = {}
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        for seed in REPORT_SEEDS:
            iter_dir = Path(tmp) / f"seed-{seed}"
            iter_dir.mkdir()
            spec = kind.make_spec(params, seed)
            kind.write_inputs(spec, iter_dir)
            with contextlib.redirect_stdout(io.StringIO()):
                kind.run(spec, iter_dir)
            hashes[str(seed)] = hashlib.sha256(
                (iter_dir / "out" / "report.csv").read_bytes()).hexdigest()
    with contextlib.suppress(OSError):
        TMP_ROOT.rmdir()
    return hashes


def record(name):
    params = workloads.WORKLOADS[name]
    entry = {"params": params, **workloads.kind(params).record(params)}
    if params["kind"] == "ratio":
        entry["report_csv_sha256"] = report_hashes(params)
    return entry


def main(names):
    doc = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
           else {"workloads": {}})
    doc["recorded_with"] = {
        "conekit": __version__,
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    for name in names or list(workloads.WORKLOADS):
        print(f"recording {name}", file=sys.stderr)
        doc["workloads"][name] = record(name)
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
