"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload, at the sizes of ``workloads.TOY_WORKLOADS``, against a
reference recorded in-process at those sizes:

1. an untraced child iteration passes every check;
2. a value injected past its certificate (``corrupt``) counts as a failed
   operation;
3. two traced child iterations write data files byte-identical to the
   untraced one, and every count metric repeats exactly between them.

Prints one line per check and exits 1 if any fails.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402

SEED = 7


def selftest(name, params, tmp):
    kind = workloads.kind(params)
    reference = kind.record(params)
    spec = kind.make_spec(params, SEED)
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = run.child_env()
    deadline = time.monotonic() + run.HARD_LIMIT_S

    def iteration(label, traced):
        return run.run_iteration(spec, reference, spec_path, tmp / label,
                                 traced, env, deadline)

    plain = iteration("plain", False)
    traced = [iteration(f"traced-{i}", True) for i in range(2)]

    bad_dir = tmp / "bad"
    bad_dir.mkdir()
    kind.write_inputs(spec, bad_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        exits = kind.run(spec, bad_dir)
    _, before = kind.check(spec, bad_dir, exits, reference)
    kind.corrupt(bad_dir / "out")
    _, after = kind.check(spec, bad_dir, exits, reference)

    counts = [{m: it["trace"][m] for m in COUNT_METRICS} for it in traced]
    return {
        "untraced iteration passes its checks": (
            plain["failed"] == 0 and plain["error"] is None,
            plain["failures"] or plain["error"]),
        "injected bad value counts as a failed operation": (
            not before and len(after) >= 1, after or before),
        "traced data files are byte-identical to untraced": (
            all(it["data"] == plain["data"] and it["failed"] == 0
                for it in traced), None),
        "count metrics repeat exactly": (
            counts[0] == counts[1] and any(counts[0].values()),
            {m: v for m, v in counts[0].items() if v}),
    }


def main():
    failed = 0
    run.TMP_ROOT.mkdir(exist_ok=True)
    try:
        for name, params in workloads.TOY_WORKLOADS.items():
            tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_ROOT))
            try:
                results = selftest(name, params, tmp)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            for label, (ok, detail) in results.items():
                failed += not ok
                print(f"{'ok' if ok else 'FAIL'} {name}: {label}"
                      + ("" if ok or detail is None else f" ({detail})"))
    finally:
        with contextlib.suppress(OSError):
            run.TMP_ROOT.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
