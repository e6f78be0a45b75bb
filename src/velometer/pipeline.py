"""Offline pipeline: events + IMU in, velocity track + run report out.

Batches the left event stream by count and keeps per-polarity time surfaces
for the left camera. Per batch, the left camera's plane fits yield one
FlowBatch of normal flows; stereo block matching against the right camera's
surface keeps the rows it can match and attaches their depth; the estimator
takes that batch as it is. The right camera serves depth only, so it keeps
one surface with the latest stamp of either polarity.
"""

import time
from collections import deque

import numpy as np

from .config import PipelineConfig, validate_config
from .estimator import Estimator
from .events import EventBatch, ImuData, batch_by_count
from .geometry import StereoRig
from .normal_flow import process_batch
from .rotations import quat_between, quat_identity
from .stereo import associate, block_rows
from .time_surface import SurfacePair, TimeSurface

_WARMUP_BATCHES = 1     # leading batches that only build the surfaces


class EstimationFailure(RuntimeError):
    """The pipeline never reached tracking state."""


def static_initial_orientation(imu: ImuData, gravity, window=0.5):
    """Roll/pitch from averaged specific force over an assumed-static window.

    A resting accelerometer measures -R^T g; the returned world-from-body
    quaternion maps that direction onto -g (yaw is unobservable and left
    zero).
    """
    mask = imu.t <= imu.t[0] + window
    mean_acc = imu.accel[mask].mean(axis=0)
    g = np.asarray(gravity, dtype=float)
    if np.linalg.norm(mean_acc) < 1e-6:
        return quat_identity()
    # want R @ mean_acc == -g  =>  rotate mean_acc onto -g
    return quat_between(mean_acc, -g)


class VelocityPipeline:
    def __init__(self, rig: StereoRig, config: PipelineConfig = None):
        self.rig = rig
        self.cfg = config or PipelineConfig()
        validate_config(self.cfg)
        w, h = rig.left.width, rig.left.height
        self.left_surfaces = SurfacePair(w, h)
        self.right_surface = TimeSurface(w, h)
        self.estimator = Estimator(rig, self.cfg)

    def run(self, events_left, events_right, imu: ImuData, q0=None):
        """Process complete streams; returns (times, velocities, report)."""
        cfg = self.cfg
        est = self.estimator
        t_start = time.perf_counter()
        if q0 is None:
            q0 = static_initial_orientation(imu, cfg.gravity_vec())
        est.set_initial_orientation(imu.t[0], q0)
        est.feed_imu(imu)

        # a batch leaves the queue when processed, so the event columns it
        # builds are freed with it instead of accumulating over the run
        batches = deque(batch_by_count(events_left, cfg.flow.batch_size))
        right_cursor = 0
        right_t = events_right["t"] if len(events_right) else np.empty(0)
        # one search for every batch end: a search on the strided field view
        # copies the whole column, and a copy kept for the run raises the
        # peak memory
        right_ends = np.searchsorted(right_t, [b.t_end for b in batches],
                                     side="right")
        for batch_idx, hi in enumerate(right_ends.tolist()):
            batch = batches.popleft()
            if batch.t_end > imu.t[-1]:
                break
            # bring the right camera's surface up to this batch's window
            if hi > right_cursor:
                chunk = events_right[right_cursor:hi]
                # start where the last right update ended, so the window has a
                # positive duration even when every event sits at batch.t_end
                t0 = min(float(chunk["t"][0]), self.right_surface.t_ref)
                self.right_surface.update(EventBatch(
                    chunk, t0, max(float(chunk["t"][-1]), batch.t_end)))
                right_cursor = hi
            self.left_surfaces.update(batch)
            if batch_idx < _WARMUP_BATCHES:
                continue    # surfaces need history before plane fits mean much

            flows = process_batch(batch, self.left_surfaces, cfg.flow)
            window = (batch.t_start, batch.t_end)
            left = self.left_surfaces.combined(block_rows(flows.y, cfg.depth))
            obs = associate(flows, left, self.right_surface, window, self.rig,
                            cfg.depth)
            est.report.flows += len(flows)
            est.step(obs, batch.t_end)

        est.finalize()
        est.report.wall_time = time.perf_counter() - t_start
        if len(events_left):
            est.report.data_duration = float(events_left["t"][-1]
                                             - events_left["t"][0])
        ts, vs = est.velocity_track()
        if est.status != "tracking" or len(ts) == 0:
            raise EstimationFailure("pipeline never reached tracking state")
        return ts, vs, est.report
