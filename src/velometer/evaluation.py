"""Velocity-error metrics and dead reckoning.

AVE is the norm of the velocity error per sample; RVE is AVE divided by the
ground-truth speed (in percent), with very slow samples excluded to avoid
dividing by near-zero. Dead reckoning integrates the body velocity rotated
into the world frame with the trapezoid rule; the IMU-only baseline double
integrates the accelerometer instead (gravity compensated through
gyro-propagated orientation).
"""

from dataclasses import dataclass

import numpy as np

from .events import ImuData
from .imu import OrientationTrack


class MetricError(RuntimeError):
    """Raised when tracks cannot be compared (no overlap, no orientation)."""


@dataclass
class VelocityTrack:
    """Body-frame velocities `v` (N, 3) at sorted times `t` (N,)."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if np.any(np.diff(self.t) < 0):
            raise ValueError("track must be sorted in time")
        if not np.all(np.isfinite(self.v)):
            raise ValueError("track velocities must be finite")

    def interp(self, ts):
        return np.stack([np.interp(ts, self.t, self.v[:, k]) for k in range(3)],
                        axis=1)


@dataclass
class MetricsReport:
    t: np.ndarray
    ave: np.ndarray               # m/s per sample
    rve: np.ndarray               # percent, low-speed samples excluded
    mean_ave: float
    median_ave: float
    rve_percentiles: dict
    drift: float = None           # m, dead-reckoned end-point error

    def to_text(self):
        lines = [
            f"samples: {len(self.t)}",
            f"mean_ave_mps: {self.mean_ave:.6f}",
            f"median_ave_mps: {self.median_ave:.6f}",
            f"rve_samples: {len(self.rve)}",
        ]
        for k, v in self.rve_percentiles.items():
            lines.append(f"rve_p{k}_percent: {v:.3f}")
        if self.drift is not None:
            lines.append(f"deadreckon_drift_m: {self.drift:.6f}")
        return "\n".join(lines) + "\n"


def align_and_compare(est: VelocityTrack, gt: VelocityTrack,
                      min_speed=0.05) -> MetricsReport:
    """Interpolate ground truth to the estimate's timestamps and compare."""
    t0 = max(est.t[0], gt.t[0])
    t1 = min(est.t[-1], gt.t[-1])
    if t1 <= t0:
        raise MetricError("tracks do not overlap in time")
    mask = (est.t >= t0) & (est.t <= t1)
    ts = est.t[mask]
    v_est = est.v[mask]
    v_gt = gt.interp(ts)
    ave = np.linalg.norm(v_gt - v_est, axis=1)
    speed = np.linalg.norm(v_gt, axis=1)
    ok = speed >= min_speed
    rve = 100.0 * ave[ok] / speed[ok]
    percentiles = {k: float(np.percentile(rve, k)) if len(rve) else float("nan")
                   for k in (25, 50, 75, 95)}
    return MetricsReport(t=ts, ave=ave, rve=rve,
                         mean_ave=float(ave.mean()),
                         median_ave=float(np.median(ave)),
                         rve_percentiles=percentiles)


def dead_reckon(est: VelocityTrack, orientation: OrientationTrack, p0):
    """Position by single trapezoidal integration of rotated body velocity."""
    if est.t[0] < orientation.t_start - 1e-9 or est.t[-1] > orientation.t_end + 1e-9:
        raise MetricError("orientation does not cover the velocity track")
    # on contiguous matrices matvec rounds as a product per sample does; on
    # the strided stack of quat_to_matrix it can differ in the last bit
    v_world = np.matvec(np.ascontiguousarray(orientation.rotation(est.t)), est.v)
    p = np.zeros((len(est.t), 3))
    p[0] = np.asarray(p0, dtype=float)
    dt = np.diff(est.t)
    steps = 0.5 * (v_world[1:] + v_world[:-1]) * dt[:, None]
    p[1:] = p[0] + np.cumsum(steps, axis=0)
    return est.t.copy(), p


def imu_dead_reckon(imu: ImuData, q0, v0_world, p0, gravity_world):
    """Double-integration baseline from raw IMU only.

    Orientation is propagated from the gyro, the accelerometer is rotated to
    the world frame, gravity removed, then velocity and position integrate
    forward (midpoint). Biases are unknown to this baseline.
    """
    track = OrientationTrack(imu.t[0], q0, gravity_world)
    track.extend(imu)
    g = np.asarray(gravity_world, dtype=float)
    n = len(imu.t)
    v = np.zeros((n, 3))
    p = np.zeros((n, 3))
    v[0] = np.asarray(v0_world, dtype=float)
    p[0] = np.asarray(p0, dtype=float)
    acc_w = np.matvec(np.ascontiguousarray(track.rotation(imu.t)), imu.accel) + g
    for k in range(n - 1):
        dt = imu.t[k + 1] - imu.t[k]
        a_mid = 0.5 * (acc_w[k] + acc_w[k + 1])
        p[k + 1] = p[k] + v[k] * dt + 0.5 * a_mid * dt * dt
        v[k + 1] = v[k] + a_mid * dt
    return imu.t.copy(), p, v, track


def gt_velocity_track(gt):
    """VelocityTrack from simulator ground truth."""
    return VelocityTrack(gt.t.copy(), gt.v_body.copy())
