"""Outside-in layer timing for the traced benchmark run.

Each public velometer function below is replaced, for the duration of the
traced run, by a wrapper that records a span (name, start, end, parent span)
and derives counts from the arguments and return values. A wrapper is
installed on the attribute the caller looks up: the pipeline calls
``process_batch`` through ``velometer.pipeline``, so that is the attribute
patched. Nothing in the package changes.

A name that no longer exists leaves its metrics unmeasured, with the reason,
instead of stopping the run.
"""

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (span name, module the caller looks the name up in, attribute path)
TARGETS = (
    ("pipeline.run", "velometer.pipeline", "VelocityPipeline.run"),
    ("events.batch_by_count", "velometer.pipeline", "batch_by_count"),
    ("time_surface.update", "velometer.time_surface", "SurfacePair.update"),
    ("time_surface.combined", "velometer.time_surface", "SurfacePair.combined"),
    ("normal_flow.process_batch", "velometer.pipeline", "process_batch"),
    ("normal_flow.select_candidates", "velometer.normal_flow", "select_candidates"),
    ("normal_flow.fit_planes", "velometer.normal_flow", "fit_planes"),
    ("stereo.associate", "velometer.pipeline", "associate"),
    ("stereo.match_blocks", "velometer.stereo", "match_blocks"),
    ("initializer.ransac", "velometer.estimator", "ransac_initialize"),
    ("imu.preintegrate", "velometer.estimator", "preintegrate"),
    ("imu.orientation_extend", "velometer.imu", "OrientationTrack.extend"),
    ("imu.orientation_quat", "velometer.imu", "OrientationTrack.quat"),
    ("estimator.step", "velometer.estimator", "Estimator.step"),
    ("estimator.optimize", "velometer.estimator", "Estimator.optimize"),
    ("estimator.imu_residual", "velometer.estimator", "Estimator.imu_residual"),
    ("estimator.flow_residual_block", "velometer.estimator",
     "Estimator.flow_residual_block"),
    ("simulator.generate_stereo_events", "velometer.simulator",
     "generate_stereo_events"),
    ("simulator.generate_imu", "velometer.simulator", "generate_imu"),
    ("simulator.ground_truth", "velometer.simulator", "ground_truth"),
    ("simulator.exact_observations", "velometer.simulator", "exact_observations"),
    ("dataio.write_events_csv", "velometer.dataio", "write_events_csv"),
    ("dataio.write_imu_csv", "velometer.dataio", "write_imu_csv"),
    ("dataio.write_velocity_csv", "velometer.dataio", "write_velocity_csv"),
    ("dataio.write_orientation_csv", "velometer.dataio", "write_orientation_csv"),
    ("dataio.write_calibration", "velometer.dataio", "write_calibration"),
    ("dataio.write_manifest", "velometer.dataio", "write_manifest"),
    ("dataio.read_events_csv", "velometer.dataio", "read_events_csv"),
)


def _file_size(args, result):
    return os.path.getsize(args[0])


# counter -> (span whose call feeds it, value from (args, result))
RETURN_COUNTERS = {
    "normal_flow.candidates": ("normal_flow.select_candidates",
                               lambda a, r: len(r)),
    "normal_flow.flows": ("normal_flow.process_batch", lambda a, r: len(r)),
    "stereo.flows_in": ("stereo.associate", lambda a, r: len(a[0])),
    "stereo.observations": ("stereo.associate", lambda a, r: len(r)),
    "estimator.lm_iterations": ("estimator.optimize", lambda a, r: r.iterations),
    "simulator.events": ("simulator.generate_stereo_events",
                         lambda a, r: len(r[0]) + len(r[1])),
}
RETURN_COUNTERS |= {f"bytes.{name}": (name, _file_size)
                    for name, _, _ in TARGETS if name.startswith("dataio.write_")}

# counter -> span whose raised exceptions it counts
RAISE_COUNTERS = {"initializer.failures": "initializer.ransac"}


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters, kept in memory while the wrappers are installed."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.missing = {}           # span name -> why it could not be wrapped
        self.broken = {}            # counter -> why it could not be derived
        self._stack = []
        self._installed = []

    def install(self):
        for name, module, path in TARGETS:
            try:
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module}.{path} not found: {exc}"
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original, own))
        return self

    def uninstall(self):
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = [(c, f) for c, (s, f) in RETURN_COUNTERS.items() if s == name]
        on_raise = [c for c, s in RAISE_COUNTERS.items() if s == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                for counter in on_raise:
                    self.counts[counter] += 1
                raise
            span[2] = clock()
            stack.pop()
            for counter, value in on_return:
                self._count(counter, value, args, result)
            return result

        return wrapper

    def _count(self, counter, value, args, result):
        if counter in self.broken:
            return
        try:
            self.counts[counter] += value(args, result)
        except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
            self.broken[counter] = f"cannot derive from the call: {exc!r}"


class _Aggregate:
    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        child_time = defaultdict(float)
        for name, start, end, parent in tracer.spans:
            self.total[name] += end - start
            self.calls[name] += 1
            self.durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self.run_self = 0.0
        self.batches = 0
        run_ids = set()
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            if name == "pipeline.run":
                run_ids.add(i)
                self.run_self += end - start - child_time[i]
        for name, _, _, parent in tracer.spans:
            if name == "estimator.step" and parent in run_ids:
                self.batches += 1

    def count(self, counter):
        return self.t.counts[counter]


def _ratio(num, den):
    return num / den if den else 0.0


def step_percentiles(durations_s):
    """(p50 ms, high ms, high percentile, samples).

    The high percentile is the highest one with at least ten samples beyond
    it, 100 * (1 - 10 / n); with fewer than 20 samples it falls back to p50.
    """
    ms = np.asarray(durations_s) * 1e3
    n = len(ms)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n))
    return (float(np.percentile(ms, 50)), float(np.percentile(ms, pct)), pct, n)


def _step(g, k):
    return step_percentiles(g.durations["estimator.step"])[k]


def _bytes_written(g):
    return sum(g.count(c) for c in RETURN_COUNTERS if c.startswith("bytes."))


# name, unit, better, spans or counters it needs, value from the aggregate
LAYER_METRICS = (
    ("stereo.associate_s", "s", "lower", ("stereo.associate",),
     lambda g: g.total["stereo.associate"]),
    ("stereo.match_blocks_s", "s", "lower", ("stereo.match_blocks",),
     lambda g: g.total["stereo.match_blocks"]),
    ("stereo.observations", "count", "higher", ("stereo.observations",),
     lambda g: g.count("stereo.observations")),
    ("stereo.match_ratio", "ratio", "higher",
     ("stereo.observations", "stereo.flows_in"),
     lambda g: _ratio(g.count("stereo.observations"), g.count("stereo.flows_in"))),
    ("normal_flow.process_batch_s", "s", "lower", ("normal_flow.process_batch",),
     lambda g: g.total["normal_flow.process_batch"]),
    ("normal_flow.select_candidates_s", "s", "lower",
     ("normal_flow.select_candidates",),
     lambda g: g.total["normal_flow.select_candidates"]),
    ("normal_flow.fit_planes_s", "s", "lower", ("normal_flow.fit_planes",),
     lambda g: g.total["normal_flow.fit_planes"]),
    ("normal_flow.candidates", "count", "higher", ("normal_flow.candidates",),
     lambda g: g.count("normal_flow.candidates")),
    ("normal_flow.flows", "count", "higher", ("normal_flow.flows",),
     lambda g: g.count("normal_flow.flows")),
    ("normal_flow.flows_per_candidate", "ratio", "higher",
     ("normal_flow.flows", "normal_flow.candidates"),
     lambda g: _ratio(g.count("normal_flow.flows"),
                      g.count("normal_flow.candidates"))),
    ("time_surface.update_s", "s", "lower", ("time_surface.update",),
     lambda g: g.total["time_surface.update"]),
    ("time_surface.combined_s", "s", "lower", ("time_surface.combined",),
     lambda g: g.total["time_surface.combined"]),
    ("time_surface.update_calls", "count", "lower", ("time_surface.update",),
     lambda g: g.calls["time_surface.update"]),
    ("events.batch_by_count_s", "s", "lower", ("events.batch_by_count",),
     lambda g: g.total["events.batch_by_count"]),
    ("initializer.ransac_s", "s", "lower", ("initializer.ransac",),
     lambda g: g.total["initializer.ransac"]),
    ("initializer.attempts", "count", "lower", ("initializer.ransac",),
     lambda g: g.calls["initializer.ransac"]),
    ("initializer.failures", "count", "lower", ("initializer.failures",),
     lambda g: g.count("initializer.failures")),
    ("imu.preintegrate_s", "s", "lower", ("imu.preintegrate",),
     lambda g: g.total["imu.preintegrate"]),
    ("imu.preintegrate_calls", "count", "lower", ("imu.preintegrate",),
     lambda g: g.calls["imu.preintegrate"]),
    ("imu.orientation_extend_s", "s", "lower", ("imu.orientation_extend",),
     lambda g: g.total["imu.orientation_extend"]),
    ("imu.orientation_quat_s", "s", "lower", ("imu.orientation_quat",),
     lambda g: g.total["imu.orientation_quat"]),
    ("imu.orientation_quat_calls", "count", "lower", ("imu.orientation_quat",),
     lambda g: g.calls["imu.orientation_quat"]),
    ("estimator.step_s", "s", "lower", ("estimator.step",),
     lambda g: g.total["estimator.step"]),
    ("estimator.step_ms_p50", "ms", "lower", ("estimator.step",),
     lambda g: _step(g, 0)),
    ("estimator.step_ms_phigh", "ms", "lower", ("estimator.step",),
     lambda g: _step(g, 1)),
    ("estimator.step_phigh_pct", "%", "higher", ("estimator.step",),
     lambda g: _step(g, 2)),
    ("estimator.step_samples", "count", "higher", ("estimator.step",),
     lambda g: _step(g, 3)),
    ("estimator.optimize_s", "s", "lower", ("estimator.optimize",),
     lambda g: g.total["estimator.optimize"]),
    ("estimator.imu_residual_s", "s", "lower", ("estimator.imu_residual",),
     lambda g: g.total["estimator.imu_residual"]),
    ("estimator.imu_residual_calls", "count", "lower", ("estimator.imu_residual",),
     lambda g: g.calls["estimator.imu_residual"]),
    ("estimator.flow_residual_block_s", "s", "lower",
     ("estimator.flow_residual_block",),
     lambda g: g.total["estimator.flow_residual_block"]),
    ("estimator.lm_iterations", "count", "lower", ("estimator.lm_iterations",),
     lambda g: g.count("estimator.lm_iterations")),
    ("estimator.optimizations", "count", "lower", ("estimator.optimize",),
     lambda g: g.calls["estimator.optimize"]),
    ("pipeline.run_s", "s", "lower", ("pipeline.run",),
     lambda g: g.total["pipeline.run"]),
    ("pipeline.self_s", "s", "lower", ("pipeline.run",), lambda g: g.run_self),
    ("pipeline.batches", "count", "higher", ("pipeline.run", "estimator.step"),
     lambda g: g.batches),
    ("simulator.generate_stereo_events_s", "s", "lower",
     ("simulator.generate_stereo_events",),
     lambda g: g.total["simulator.generate_stereo_events"]),
    ("simulator.events", "count", "higher", ("simulator.events",),
     lambda g: g.count("simulator.events")),
    ("simulator.generate_imu_s", "s", "lower", ("simulator.generate_imu",),
     lambda g: g.total["simulator.generate_imu"]),
    ("simulator.ground_truth_s", "s", "lower", ("simulator.ground_truth",),
     lambda g: g.total["simulator.ground_truth"]),
    ("simulator.exact_observations_s", "s", "lower",
     ("simulator.exact_observations",),
     lambda g: g.total["simulator.exact_observations"]),
    ("dataio.write_events_csv_s", "s", "lower", ("dataio.write_events_csv",),
     lambda g: g.total["dataio.write_events_csv"]),
    ("dataio.read_events_csv_s", "s", "lower", ("dataio.read_events_csv",),
     lambda g: g.total["dataio.read_events_csv"]),
    ("dataio.write_manifest_s", "s", "lower", ("dataio.write_manifest",),
     lambda g: g.total["dataio.write_manifest"]),
    ("dataio.bytes_written", "bytes", "higher",
     tuple(c for c in RETURN_COUNTERS if c.startswith("bytes.")), _bytes_written),
)

# Reported by run.py from the traced and the untraced pass of one run:
# overhead_frac compares their walls (noise included), overhead_est_frac is
# spans * wrapper_cost_s() / traced wall.
TRACE_METRICS = (
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.overhead_est_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def wrapper_cost_s(calls=20000):
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    return max(clock() - t0 - bare, 0.0) / calls


def _why_unmeasured(tracer: Tracer, needs):
    for need in needs:
        if need in tracer.broken:
            return f"{need}: {tracer.broken[need]}"
        span = RETURN_COUNTERS.get(need, (None,))[0] or RAISE_COUNTERS.get(need, need)
        if span in tracer.missing:
            return tracer.missing[span]
    return None


def layer_metrics(tracer: Tracer):
    """({metric: value}, {metric: reason it is unmeasured})."""
    g = _Aggregate(tracer)
    values, unmeasured = {}, {}
    for name, _unit, _better, needs, value in LAYER_METRICS:
        reason = _why_unmeasured(tracer, needs)
        if reason is None:
            values[name] = float(value(g))
        else:
            unmeasured[name] = reason
    return values, unmeasured
