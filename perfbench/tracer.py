"""Outside-in tracing of conekit for the traced benchmark run.

``Recorder.install`` replaces public module attributes (and
``JordanFrame.validate``) with wrappers.  conekit looks these names up at
call time (``bs.union_measure``, ``mp.stratified_count_moment``, the
module-global ``cayley`` inside ``szego``), so every call from the CLI, from
other modules and from the benchmark itself goes through a wrapper.  Nothing
in ``src/`` is changed and the wrapped functions receive the same arguments,
so traced runs write the same data files as untraced ones.

Coarse boundaries are timed (inclusive wall time, so ``besicovitch.build_s``
contains the separating-axis tests run inside the build).  The hot
per-element calls ``in_cone``, ``primitive_idempotent_check`` and
``JordanFrame.validate`` are only counted: they take a few microseconds, and
timing them would distort the run it measures.  ``cayley`` does enough work
per call (tens of microseconds) to be both counted and timed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from collections import defaultdict

import numpy as np

from conekit import besicovitch as bs
from conekit import cli
from conekit import jordan as jd
from conekit import multiplier as mp
from conekit import szego as sz

# (module, attribute, metric): calls timed into ``<metric>``
TIMED = (
    (bs, "build_perron_rectangles", "besicovitch.build_s"),
    (bs, "build_boxes", "besicovitch.build_s"),
    (bs, "box_geometry_check", "besicovitch.geometry_check_s"),
    (bs, "family_to_json", "besicovitch.emit_s"),
    (bs, "family_to_svg", "besicovitch.emit_s"),
    (mp, "translate_image_integral", "multiplier.lhs_quad_s"),
    (mp, "indicator_box", "multiplier.grid_build_s"),
    (mp, "indicator_interval", "multiplier.grid_build_s"),
    (mp, "box_image_grid", "multiplier.grid_build_s"),
    (jd, "cone_contains", "jordan.cone_contains_s"),
    (jd, "filling_radius", "jordan.filling_s"),
    (jd, "det_identity_residual", "jordan.det_identity_s"),
    (jd, "slice_test", "jordan.slice_test_s"),
    (sz, "conformal_consistency_check", "szego.consistency_s"),
    (cli, "cmd_ratio", "cli.ratio_s"),
    (cli, "cmd_besicovitch", "cli.besicovitch_s"),
    (cli, "cmd_validate", "cli.validate_s"),
    (cli, "cmd_szego", "cli.szego_s"),
    (cli, "write_csv", "cli.write_s"),
    (cli, "write_manifest", "cli.write_s"),
)

# (owner, attribute, counter): hot calls, counted only
COUNTED = (
    (jd, "in_cone", "jordan.in_cone_calls"),
    (jd, "primitive_idempotent_check", "jordan.idempotent_check_calls"),
    (jd.JordanFrame, "validate", "jordan.frame_validate_calls"),
)

# every per-layer metric the recorder reports, in report order
METRICS = (
    "besicovitch.build_s", "besicovitch.sat_s", "besicovitch.sat_pairs",
    "besicovitch.geometry_check_s", "besicovitch.union_s",
    "besicovitch.union_calls", "besicovitch.union_rows",
    "besicovitch.union_useful_ratio", "besicovitch.emit_s",
    "multiplier.count_moment_s", "multiplier.contains_evals",
    "multiplier.mc_samples", "multiplier.lhs_quad_s",
    "multiplier.fft_apply_s", "multiplier.fft_apply_calls",
    "multiplier.fft_points", "multiplier.fft_input_reuse",
    "multiplier.grid_build_s",
    "jordan.frame_validate_calls", "jordan.idempotent_check_calls",
    "jordan.in_cone_calls", "jordan.cone_contains_s", "jordan.filling_s",
    "jordan.det_identity_s", "jordan.slice_test_s",
    "szego.lie_ball_sample_s", "szego.lie_ball_acceptance",
    "szego.cayley_calls", "szego.cayley_s", "szego.consistency_s",
    "szego.kernel_quad_calls", "szego.kernel_quad_s",
    "cli.ratio_s", "cli.besicovitch_s", "cli.validate_s", "cli.szego_s",
    "cli.write_s",
)

# metrics that count work; they must repeat exactly for a fixed input
COUNT_METRICS = tuple(
    m for m in METRICS
    if m.endswith(("_calls", "_pairs", "_evals", "_samples", "_points",
                   "_rows"))
)


class _CountingRng:
    """Delegates to a numpy Generator and counts the values ``uniform``
    draws, so the sampler sees the same stream as without the proxy."""

    def __init__(self, rng):
        self._rng = rng
        self.uniform_draws = 0

    def uniform(self, *args, **kwargs):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self.uniform_draws += 1 if size is None else int(np.prod(size))
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _n_shapes(family):
    for attr in ("n_rects", "n_boxes"):
        if hasattr(family, attr):
            return getattr(family, attr)
    return len(family)


def _planar_rects(shapes):
    """Centers and half-heights (extent along y) of the planar rectangles
    ``union_measure`` scans, from public attributes only."""
    if isinstance(shapes, bs.BoxFamily):
        # planar projection drops the first coordinate of the E_j boxes
        centers = np.array([b.center[1:] for b in shapes.boxes_e])
        axes = np.array([b.axes[:, 1:] for b in shapes.boxes_e])
        half = np.array([b.half_extents for b in shapes.boxes_e])
        y_half = np.sum(half * np.abs(axes[:, :, 1]), axis=1)
        return centers, y_half
    rects = shapes.rects if isinstance(shapes, bs.RectangleFamily) else shapes
    centers = np.array([r.center for r in rects])
    y_half = np.array([
        0.5 * r.length * abs(r.direction[1]) + 0.5 * r.width
        * abs(r.direction[0]) for r in rects
    ])
    return centers, y_half


class Recorder:
    """Accumulates seconds and counts for one traced process."""

    def __init__(self):
        self.values = defaultdict(float)
        self._union_inputs = set()
        # id -> array; holding the arrays keeps their ids unique
        self._fft_inputs = {}
        self._lie_accepted = 0
        self._lie_candidates = 0

    def _timed(self, fn, metric, before=None):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                values[metric] += time.perf_counter() - t0

        return wrapper

    def _counted(self, fn, metric):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- per-call work counters ------------------------------------------------

    def _on_sat(self, family, *args, **kwargs):
        n = _n_shapes(family)
        self.values["besicovitch.sat_pairs"] += n * (n - 1) // 2

    def _on_union(self, shapes, resolution, *args, **kwargs):
        centers, y_half = _planar_rects(shapes)
        span = float(np.max(centers[:, 1] + y_half)
                     - np.min(centers[:, 1] - y_half))
        self.values["besicovitch.union_calls"] += 1
        self.values["besicovitch.union_rows"] += math.ceil(span / resolution)
        key = hashlib.sha1(centers.tobytes() + y_half.tobytes()
                           + repr(float(resolution)).encode()).hexdigest()
        self._union_inputs.add(key)

    def _on_count_moment(self, boxes, power, n_samples, *args, **kwargs):
        self.values["multiplier.contains_evals"] += boxes.n_boxes ** 2
        self.values["multiplier.mc_samples"] += n_samples

    def _on_fft(self, f, *args, **kwargs):
        self.values["multiplier.fft_apply_calls"] += 1
        self.values["multiplier.fft_points"] += f.values.size
        self._fft_inputs[id(f.values)] = f.values

    def _count(self, metric):
        def before(*args, **kwargs):
            self.values[metric] += 1

        return before

    def _lie_ball_sampler(self, fn):
        timed = self._timed(fn, "szego.lie_ball_sample_s")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            if len(args) > 2:
                args[2] = proxy = _CountingRng(args[2])
            else:
                kwargs["rng"] = proxy = _CountingRng(kwargs["rng"])
            out = timed(*args, **kwargs)
            self._lie_candidates += proxy.uniform_draws
            self._lie_accepted += len(out)
            return out

        return wrapper

    # --- installation and report ---------------------------------------------

    def install(self):
        for module, name, metric in TIMED:
            setattr(module, name, self._timed(getattr(module, name), metric))
        for owner, name, metric in COUNTED:
            setattr(owner, name, self._counted(getattr(owner, name), metric))
        hooks = (
            (bs, "translates_disjoint", "besicovitch.sat_s", self._on_sat),
            (bs, "union_measure", "besicovitch.union_s", self._on_union),
            (mp, "stratified_count_moment", "multiplier.count_moment_s",
             self._on_count_moment),
            (mp, "fft_multiplier_apply", "multiplier.fft_apply_s",
             self._on_fft),
            (sz, "cayley", "szego.cayley_s",
             self._count("szego.cayley_calls")),
            (sz, "szego_kernel_quadrature", "szego.kernel_quad_s",
             self._count("szego.kernel_quad_calls")),
        )
        for module, name, metric, before in hooks:
            setattr(module, name,
                    self._timed(getattr(module, name), metric, before))
        sz.sample_lie_ball = self._lie_ball_sampler(sz.sample_lie_ball)

    def report(self):
        values = dict(self.values)
        calls = values.get("besicovitch.union_calls", 0)
        values["besicovitch.union_useful_ratio"] = (
            len(self._union_inputs) / calls if calls else 0.0
        )
        calls = values.get("multiplier.fft_apply_calls", 0)
        values["multiplier.fft_input_reuse"] = (
            len(self._fft_inputs) / calls if calls else 0.0
        )
        values["szego.lie_ball_acceptance"] = (
            self._lie_accepted / self._lie_candidates
            if self._lie_candidates else 0.0
        )
        return {m: int(values.get(m, 0)) if m in COUNT_METRICS
                else values.get(m, 0.0) for m in METRICS}
