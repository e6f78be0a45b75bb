"""The three benchmark workloads: set-up, one measured pass, and checks.

Every workload is a closed loop with one caller: the sequences of a pass run
one after another in this process. A pass is a fixed amount of work, so its
wall time is comparable between runs and commits.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import sequences
from velometer import dataio, simulator
from velometer.config import PipelineConfig
from velometer.estimator import Estimator
from velometer.evaluation import VelocityTrack, align_and_compare
from velometer.pipeline import VelocityPipeline

# A sequence whose mean AVE exceeds this has diverged. The shipped presets
# move at 2.0 to 5.7 m/s, and sequences that track stay below 0.3 m/s.
DIVERGENCE_LIMIT_MPS = 1.0

# Statuses that mean the operation itself failed, as opposed to an estimate
# that ran to completion but diverged.
OPERATION_FAILURES = ("raised", "no_output", "non_finite", "mismatch")

WORK_DIR = os.path.join(sequences.BENCH_DIR, ".work")


@dataclass
class Outcome:
    """One sequence (or one export) of a pass."""

    name: str
    wall_s: float           # the timed operation
    data_s: float           # seconds of data it covers
    status: str             # tracked | diverged | ok | one of OPERATION_FAILURES
    detail: str = ""
    digests: dict = field(default_factory=dict)
    ave_sum: float = 0.0    # sum of per-sample AVE, m/s
    ave_samples: int = 0
    t: np.ndarray = None
    v: np.ndarray = None
    extra: dict = field(default_factory=dict)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _velocity_outcome(seq, wall, ts, vs):
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    out = Outcome(seq.spec.name, wall, seq.duration, "tracked", t=ts, v=vs,
                  digests={"velocity": _digest(ts, vs)})
    if len(ts) == 0 or vs.shape != (len(ts), 3):
        out.status, out.detail = "no_output", f"velocity shape {vs.shape}"
    elif not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
        out.status, out.detail = "non_finite", "non-finite velocity output"
    elif np.any(np.diff(ts) <= 0):
        out.status, out.detail = "non_finite", "output times not increasing"
    else:
        m = align_and_compare(VelocityTrack(ts, vs),
                              VelocityTrack(seq.gt_t, seq.gt_v_body))
        out.ave_sum, out.ave_samples = float(m.ave.sum()), len(m.ave)
        if m.mean_ave > DIVERGENCE_LIMIT_MPS:
            out.status = "diverged"
        out.detail = f"mean AVE {m.mean_ave:.6g} m/s over {len(m.ave)} samples"
    return out


def _raised(name, wall, data_s, exc):
    return Outcome(name, wall, data_s, "raised", f"{type(exc).__name__}: {exc}")


def ensure_inputs():
    """Simulate missing cached inputs in a child process; seconds spent."""
    if not sequences.missing():
        return 0.0
    t0 = time.perf_counter()
    subprocess.run([sys.executable,
                    os.path.join(sequences.BENCH_DIR, "sequences.py")], check=True)
    return time.perf_counter() - t0


class _EstimateWorkload:
    """Shared by the two workloads that run the estimator on cached inputs."""

    def summarize(self, passes):
        first = passes[0]
        n_samples = sum(o.ave_samples for o in first)
        return {
            "failed_frac": _failed_frac(first),
            "ave_mean_mps": (
                sum(o.ave_sum for o in first) / n_samples if n_samples
                else float("nan"), "m/s",
                f"mean over {n_samples} output samples; a sequence above "
                f"{DIVERGENCE_LIMIT_MPS} m/s counts as diverged"),
        }


class PipelineWorkload(_EstimateWorkload):
    name = "pipeline"
    why = ("full front end and back end on corridor, boxes and spin, 2.5 s "
           "each; stereo matching dominates")
    setup_repeats = 9
    items = len(sequences.WORKLOAD_SPECS["pipeline"])

    def setup(self):
        return [sequences.load(s) for s in sequences.WORKLOAD_SPECS[self.name]]

    def run_pass(self, seqs, order):
        return [self._run(seqs[i]) for i in order]

    @staticmethod
    def _run(seq):
        pipe = VelocityPipeline(seq.rig, PipelineConfig())
        t0 = time.perf_counter()
        try:
            ts, vs, _ = pipe.run(seq.events_left, seq.events_right, seq.imu,
                                 q0=seq.q0)
        except Exception as exc:  # a failing sequence is counted, not fatal
            return _raised(seq.spec.name, time.perf_counter() - t0,
                           seq.duration, exc)
        return _velocity_outcome(seq, time.perf_counter() - t0, ts, vs)


class BackendLongWorkload(_EstimateWorkload):
    name = "backend-long"
    why = ("estimator alone on exact observations every 0.2 s of a 15 s "
           "corridor with noisy IMU; the front end is idle")
    setup_repeats = 3
    items = 1
    batch_dt = 0.2

    def setup(self):
        (spec,) = sequences.WORKLOAD_SPECS[self.name]
        seq = sequences.load(spec)
        t0 = float(seq.imu.t[0])
        steps = int(np.ceil(seq.duration / self.batch_dt - 1e-9))
        times = [t0 + self.batch_dt * k for k in range(1, steps)]
        obs = [simulator.exact_observations(seq.scene, seq.traj, seq.rig, t)
               for t in times]
        return seq, times, obs

    def run_pass(self, state, order):
        seq, times, obs = state
        est = Estimator(seq.rig, PipelineConfig())
        t0 = time.perf_counter()
        try:
            est.set_initial_orientation(seq.imu.t[0], seq.q0)
            est.feed_imu(seq.imu)
            for t, batch in zip(times, obs):
                est.step(batch, t)
            est.finalize()
        except Exception as exc:  # a failing sequence is counted, not fatal
            return [_raised(seq.spec.name, time.perf_counter() - t0,
                            seq.duration, exc)]
        wall = time.perf_counter() - t0
        return [_velocity_outcome(seq, wall, *est.velocity_track())]


class _WriteCapture:
    """Keeps the arrays handed to dataio.write_events_csv, by file name, so
    the read-back can be compared with what was written."""

    def __init__(self):
        self.written = {}
        self.original = None

    def __enter__(self):
        self.original = getattr(dataio, "write_events_csv", None)
        if self.original is not None:
            original = self.original

            def capture(*args, **kwargs):
                result = original(*args, **kwargs)
                path = kwargs.get("path", args[0] if args else None)
                events = kwargs.get("events", args[1] if len(args) > 1 else None)
                if path is not None and events is not None:
                    self.written[os.path.basename(path)] = events
                return result

            dataio.write_events_csv = capture
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            dataio.write_events_csv = self.original
        return False


def _check_export(paths, digests, reads, written):
    """Problems with one export: manifest checksums, counts, round trip."""
    problems = []
    manifest = dataio.read_manifest(paths["manifest"])
    for key, path in paths.items():
        if key == "manifest":
            continue
        base = os.path.basename(path)
        if manifest.get(f"file.{base}.sha256") != digests[key]:
            problems.append(f"{base}: checksum differs from the manifest")
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        if manifest.get(f"file.{base}.lines") != str(lines):
            problems.append(f"{base}: line count differs from the manifest")
    for side in ("left", "right"):
        got = reads[side]
        if manifest.get(f"events_{side}") != str(len(got)):
            problems.append(f"events_{side}: read {len(got)} events, manifest "
                            f"says {manifest.get(f'events_{side}')}")
        sent = written.get(f"events_{side}.csv")
        if sent is None:
            continue
        same = (len(sent) == len(got)
                and np.array_equal(np.round(sent["t"] * 1e9).astype(np.int64),
                                   np.round(got["t"] * 1e9).astype(np.int64))
                and all(np.array_equal(sent[k], got[k]) for k in ("x", "y", "p")))
        if not same:
            problems.append(f"events_{side}: read-back differs from the "
                            f"written stream")
    if len(reads["imu"]) == 0:
        problems.append("imu: no samples read back")
    return problems


class SimulateExportWorkload:
    name = "simulate-export"
    why = ("export_dataset for 0.8 s const-vel and boxes plus CSV read-back; "
           "the simulator and dataio do all the work")
    setup_repeats = 15
    exports = (sequences.Spec("const-vel", 0.8, True),
               sequences.Spec("boxes", 0.8, True))
    items = len(exports)

    def setup(self):
        """A clean output directory, and the edge count of each scene
        export_dataset will draw (recorded as the input size)."""
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        os.makedirs(WORK_DIR)
        cfg = PipelineConfig()
        edges = {}
        for spec in self.exports:
            rng_scene = np.random.default_rng(spec.seed).spawn(3)[0]
            traj = simulator.make_trajectory(spec.preset, duration=spec.duration)
            edges[spec.name] = len(simulator.make_scene(spec.preset, traj,
                                                        cfg.sim, rng_scene))
        return edges

    def run_pass(self, scene_edges, order):
        return [self._run(self.exports[i], scene_edges[self.exports[i].name])
                for i in order]

    @staticmethod
    def _run(spec, scene_edges):
        cfg = PipelineConfig()
        out_dir = os.path.join(WORK_DIR, spec.preset)
        shutil.rmtree(out_dir, ignore_errors=True)
        name, duration = spec.name, spec.duration
        with _WriteCapture() as capture:
            t0 = time.perf_counter()
            try:
                paths = simulator.export_dataset(
                    out_dir, spec.preset, cfg.sim, cfg.imu, cfg.gravity_vec(),
                    seed=spec.seed, duration=duration)
            except Exception as exc:  # a failing export is counted, not fatal
                return _raised(name, time.perf_counter() - t0, duration, exc)
            export_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            reads = {"left": dataio.read_events_csv(paths["events_left"]),
                     "right": dataio.read_events_csv(paths["events_right"]),
                     "imu": dataio.read_imu_csv(paths["imu"])}
        except Exception as exc:  # a failing read is counted, not fatal
            return _raised(name, export_s + time.perf_counter() - t0, duration, exc)
        read_s = time.perf_counter() - t0
        digests = {key: dataio.sha256_file(path) for key, path in paths.items()
                   if key != "manifest"}
        problems = _check_export(paths, digests, reads, capture.written)
        n_events = len(reads["left"]) + len(reads["right"])
        out = Outcome(
            name, export_s + read_s, duration,
            "mismatch" if problems else "ok", "; ".join(problems),
            digests={k: digests[k] for k in ("events_left", "events_right")},
            extra={"export_s": export_s, "read_s": read_s, "events": n_events,
                   "scene_edges": scene_edges,
                   "round_trip_checked": len(capture.written) == 2})
        shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def summarize(self, passes):
        def rate(key):
            return float(np.median([
                sum(o.extra.get("events", 0) for o in p)
                / (sum(o.extra.get(key, 0.0) for o in p) or float("nan"))
                for p in passes]))
        return {
            "failed_frac": _failed_frac(passes[0]),
            "sim_events_per_s": (rate("export_s"), "events/s",
                                 "events written (as read back and checked) "
                                 "/ export_dataset wall"),
            "load_events_per_s": (rate("read_s"), "events/s",
                                  "events read back / CSV read wall"),
        }


def _failed_frac(outcomes):
    bad = sum(o.status not in ("tracked", "ok") for o in outcomes)
    return (bad / len(outcomes), "failures/attempts",
            f"{bad} of {len(outcomes)} per pass: "
            + ", ".join(f"{o.name} {o.status}" for o in outcomes))


WORKLOADS = {w.name: w for w in (PipelineWorkload, BackendLongWorkload,
                                 SimulateExportWorkload)}
