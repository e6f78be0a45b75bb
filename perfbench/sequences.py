"""Benchmark input sequences: simulated once, cached on disk, loaded per run.

Every sequence uses the seed scheme of ``simulator.export_dataset``: one
``default_rng(seed)`` spawned into scene, event and IMU generators. A cache
entry is keyed on the generation parameters and on the source of the
simulator and the modules it builds on, so a simulator change regenerates
the inputs instead of feeding stale ones to the estimate workloads.

Filling the cache runs in a child process (``python3 perfbench/sequences.py``)
so that the memory the simulator needs does not count towards the benchmark
process's peak RSS. The first run of any workload fills the cache of every
workload, so that later runs never pay for it.
"""

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_PKG = os.path.join(ROOT, "src", "velometer")
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(SRC_PKG))

from velometer import simulator  # noqa: E402
from velometer.config import PipelineConfig  # noqa: E402
from velometer.events import EVENT_DTYPE, ImuData  # noqa: E402

# Modules whose code decides what the simulator emits.
SIM_SOURCES = ("simulator.py", "geometry.py", "rotations.py", "events.py")

SEQUENCE_SEED = 0


@dataclass(frozen=True)
class Spec:
    """What to simulate; with_events=False skips the (costly) event streams."""

    preset: str
    duration: float
    with_events: bool
    seed: int = SEQUENCE_SEED

    @property
    def name(self):
        return f"{self.preset}-{self.duration:g}s-seed{self.seed}"


# Sequences of the estimate workloads. The presets and lengths are part of
# the workload definitions in README.md.
WORKLOAD_SPECS = {
    "pipeline": (Spec("corridor", 2.5, True), Spec("boxes", 2.5, True),
                 Spec("spin", 2.5, True)),
    "backend-long": (Spec("corridor", 15.0, False),),
}


@dataclass
class Sequence:
    spec: Spec
    events_left: np.ndarray
    events_right: np.ndarray
    imu: ImuData
    gt_t: np.ndarray
    gt_v_body: np.ndarray
    q0: np.ndarray
    scene: simulator.Scene
    traj: object
    rig: object

    @property
    def duration(self):
        return float(self.imu.t[-1] - self.imu.t[0])


def _source_digest():
    h = hashlib.sha256()
    for name in SIM_SOURCES:
        with open(os.path.join(SRC_PKG, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def cache_path(spec: Spec):
    cfg = PipelineConfig()
    params = {
        "spec": dataclasses.asdict(spec),
        "sim": dataclasses.asdict(cfg.sim),
        "imu": dataclasses.asdict(cfg.imu),
        "gravity": list(cfg.gravity),
        "imu_noise": True,
        "source": _source_digest(),
    }
    key = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
    return os.path.join(CACHE_DIR, f"{spec.name}-{key[:16]}.npz")


def _generate(spec: Spec):
    cfg = PipelineConfig()
    rng_scene, rng_events, rng_imu = np.random.default_rng(spec.seed).spawn(3)
    traj = simulator.make_trajectory(spec.preset, duration=spec.duration)
    scene = simulator.make_scene(spec.preset, traj, cfg.sim, rng_scene)
    rig = simulator.default_rig(cfg.sim)
    arrays = {"scene_edges": scene.edges, "scene_contrast": scene.contrast}
    if spec.with_events:
        left, right = simulator.generate_stereo_events(scene, traj, rig,
                                                       cfg.sim, rng_events)
        arrays |= {"events_left": left, "events_right": right}
    imu, bias_a, bias_w = simulator.generate_imu(traj, cfg.imu,
                                                 cfg.gravity_vec(), rng_imu)
    gt = simulator.ground_truth(traj, rate=cfg.imu.rate_hz, bias_acc=bias_a,
                                bias_gyro=bias_w)
    arrays |= {"imu_t": imu.t, "imu_accel": imu.accel, "imu_gyro": imu.gyro,
               "gt_t": gt.t, "gt_v_body": gt.v_body, "gt_quat_wb": gt.quat_wb}
    return arrays


def missing():
    """Specs of every workload whose cache entry does not exist yet."""
    return [spec for specs in WORKLOAD_SPECS.values() for spec in specs
            if not os.path.exists(cache_path(spec))]


def fill():
    """Simulate and store every missing sequence."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    for spec in missing():
        path = cache_path(spec)
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        np.savez(tmp, **_generate(spec))
        os.replace(tmp, path)


def load(spec: Spec) -> Sequence:
    """Read one cached sequence into memory (the timed set-up of a run)."""
    with np.load(cache_path(spec), allow_pickle=False) as z:
        a = {k: z[k] for k in z.files}
    cfg = PipelineConfig()
    empty = np.empty(0, dtype=EVENT_DTYPE)
    return Sequence(
        spec=spec,
        events_left=a.get("events_left", empty),
        events_right=a.get("events_right", empty),
        imu=ImuData(a["imu_t"], a["imu_accel"], a["imu_gyro"]),
        gt_t=a["gt_t"], gt_v_body=a["gt_v_body"], q0=a["gt_quat_wb"][0],
        scene=simulator.Scene(a["scene_edges"], a["scene_contrast"]),
        traj=simulator.make_trajectory(spec.preset, duration=spec.duration),
        rig=simulator.default_rig(cfg.sim))


if __name__ == "__main__":
    fill()
