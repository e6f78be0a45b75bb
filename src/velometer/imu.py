"""IMU measurement model, pre-integration and orientation propagation.

An accelerometer measures specific force: with world gravity g (pointing
down, e.g. (0, 0, -9.81)), a stationary sensor reads -R_bw @ g. Integrating
the bias-corrected specific force, rotated into the body frame at the start
of the interval, yields a velocity-increment observation that is independent
of the global state:

    delta_v = integral R(t) (accel(t) - bias_a) dt        (start frame)
    delta_q = relative rotation over the interval (gyro integration)

Per-interval covariance of delta_v is propagated from per-sample white-noise
standard deviations of the accelerometer and the gyro (the gyro enters
through the rotation error). Bias random walk is handled by the estimator
(biases are explicit states), not here. A bias is one row [accel | gyro] of
six numbers.
"""

from dataclasses import dataclass, fields

import numpy as np

from .config import ImuConfig
from .events import ImuData
from .rotations import (hat, quat_conj, quat_from_rotvec, quat_identity,
                        quat_mul, quat_normalize, quat_to_matrix, quat_to_rotvec,
                        right_jacobian_so3)


class IntegrationError(RuntimeError):
    """Raised when an interval cannot be integrated (gaps, no coverage)."""


@dataclass
class Preintegration:
    """One interval; `stack` gives every field a leading interval axis."""

    t0: float
    t1: float
    delta_v: np.ndarray          # m/s, integrated specific force in the start frame
    delta_q: np.ndarray          # unit quaternion, start frame <- end frame
    cov: np.ndarray              # 3x3 covariance of delta_v
    bias_ref: np.ndarray         # [accel | gyro] bias used during integration
    jac_dv_ba: np.ndarray        # d(delta_v)/d(accel bias)
    jac_dv_bw: np.ndarray        # d(delta_v)/d(gyro bias)
    jac_dq_bw: np.ndarray        # d(rotation vector)/d(gyro bias)

    @classmethod
    def stack(cls, preints):
        return cls(**{f.name: np.array([getattr(p, f.name) for p in preints])
                      for f in fields(cls)})

    @property
    def dt(self):
        return self.t1 - self.t0

    def corrected(self, bias):
        """First-order delta_v / delta_q / rotation-vector correction at a
        bias row other than bias_ref (rows per interval when stacked)."""
        db = bias - self.bias_ref
        dv = (self.delta_v
              + np.einsum("...ij,...j->...i", self.jac_dv_ba, db[..., :3])
              + np.einsum("...ij,...j->...i", self.jac_dv_bw, db[..., 3:]))
        phi = np.einsum("...ij,...j->...i", self.jac_dq_bw, db[..., 3:])
        dq = quat_normalize(quat_mul(self.delta_q, quat_from_rotvec(phi)))
        return dv, dq, phi


def _with_boundary_samples(imu: ImuData, t0, t1, max_gap):
    """Samples covering [t0, t1], with interpolated endpoints when needed."""
    if t0 < imu.t[0] - 1e-9 or t1 > imu.t[-1] + 1e-9:
        raise IntegrationError(f"IMU data does not cover [{t0}, {t1}]")
    inner = imu.slice(t0, t1)
    ts = list(inner.t)
    acc = list(inner.accel)
    gyr = list(inner.gyro)
    if not ts or ts[0] > t0 + 1e-12:
        ts.insert(0, t0)
        acc.insert(0, imu.interp_accel(max(t0, imu.t[0])))
        gyr.insert(0, imu.interp_gyro(max(t0, imu.t[0])))
    if ts[-1] < t1 - 1e-12:
        ts.append(t1)
        acc.append(imu.interp_accel(min(t1, imu.t[-1])))
        gyr.append(imu.interp_gyro(min(t1, imu.t[-1])))
    ts = np.asarray(ts)
    gaps = np.diff(ts)
    if len(gaps) == 0:
        raise IntegrationError("need at least two samples to integrate")
    if gaps.max() > max_gap:
        raise IntegrationError(f"sample gap {gaps.max():.4f}s exceeds {max_gap:.4f}s")
    return ts, np.asarray(acc), np.asarray(gyr)


def preintegrate(imu: ImuData, t0: float, t1: float, bias,
                 cfg: ImuConfig = None) -> Preintegration:
    """Midpoint integration of the IMU over [t0, t1] at a bias row."""
    cfg = cfg or ImuConfig()
    if t1 <= t0:
        raise IntegrationError("interval must have positive duration")
    max_gap = cfg.max_gap_factor / cfg.rate_hz
    ts, acc, gyr = _with_boundary_samples(imu, t0, t1, max_gap)
    bias = np.array(bias, dtype=float)

    # per-step terms that do not depend on the running rotation
    dts = np.diff(ts)
    w_step = (0.5 * (gyr[:-1] + gyr[1:]) - bias[3:]) * dts[:, None]
    q_steps = quat_from_rotvec(w_step)
    step_rots_t = np.swapaxes(quat_to_matrix(q_steps), 1, 2)
    jrs = right_jacobian_so3(w_step)
    acc = acc - bias[:3]
    acc_hats = hat(acc)

    q = quat_identity()
    dv = np.zeros(3)
    j_dv_ba = np.zeros((3, 3))
    j_dv_bw = np.zeros((3, 3))
    j_phi_bw = np.zeros((3, 3))
    cov6 = np.zeros((6, 6))          # error state [rotation, delta_v]
    var_a = cfg.acc_noise ** 2
    var_w = cfg.gyro_noise ** 2
    r1 = quat_to_matrix(q)

    for k, dt in enumerate(dts):
        if dt <= 0:
            continue
        q = quat_normalize(quat_mul(q, q_steps[k]))
        r0, r1 = r1, quat_to_matrix(q)

        dv += 0.5 * (r0 @ acc[k] + r1 @ acc[k + 1]) * dt

        # bias Jacobians (first order, midpoint-consistent)
        j_phi_bw_next = step_rots_t[k] @ j_phi_bw - jrs[k] * dt
        j_dv_ba += -0.5 * (r0 + r1) * dt
        j_dv_bw += -0.5 * (r0 @ acc_hats[k] @ j_phi_bw
                           + r1 @ acc_hats[k + 1] @ j_phi_bw_next) * dt

        # covariance: d(phi)' = A d(phi) + noise, d(dv)' += coupling * d(phi)
        f = np.eye(6)
        f[:3, :3] = step_rots_t[k]
        f[3:, :3] = -0.5 * (r0 @ acc_hats[k] + r1 @ acc_hats[k + 1] @ step_rots_t[k]) * dt
        g_w = jrs[k] * dt
        g_a = 0.5 * (r0 + r1) * dt
        q_noise = np.zeros((6, 6))
        q_noise[:3, :3] = var_w * (g_w @ g_w.T)
        q_noise[3:, 3:] = var_a * (g_a @ g_a.T)
        cov6 = f @ cov6 @ f.T + q_noise
        j_phi_bw = j_phi_bw_next

    return Preintegration(t0=float(t0), t1=float(t1), delta_v=dv,
                          delta_q=q, cov=cov6[3:, 3:].copy(), bias_ref=bias,
                          jac_dv_ba=j_dv_ba, jac_dv_bw=j_dv_bw,
                          jac_dq_bw=j_phi_bw)


def predicted_velocity_increment(pre: Preintegration, v_start, v_end, g_body_start):
    """Residual between the measured and the predicted velocity increment.

    The prediction from body-frame velocities at both interval ends and the
    gravity term expressed in the start frame is

        R(delta_q) @ v_end + g_body_start * dt - v_start

    and the returned value is measured delta_v minus that prediction.
    """
    r = quat_to_matrix(pre.delta_q)
    predicted = r @ np.asarray(v_end, float) \
        + np.asarray(g_body_start, float) * pre.dt - np.asarray(v_start, float)
    return pre.delta_v - predicted


def propagate_velocity_world(pre: Preintegration, v_world_start, r_wb_start, gravity_world):
    """World-frame velocity at the interval end from the start state."""
    return (np.asarray(v_world_start, float)
            + np.asarray(gravity_world, float) * pre.dt
            + r_wb_start @ pre.delta_v)


class OrientationTrack:
    """Piecewise orientation from gyro integration, plus gravity queries.

    Stores the world-from-body quaternion at sample times (`times` (N,),
    `quats` (N, 4)); between samples the rotation is continued analytically
    with the local angular rate (`rates` (N-1, 3)), so queries are
    continuous. Gravity is the physical world vector (z up, negative z
    component); `gravity_in_body` simply rotates it.
    """

    def __init__(self, t0, q0, gravity_world):
        self.times = np.array([float(t0)])
        self.quats = quat_normalize(np.asarray(q0, dtype=float))[None]
        self.rates = np.empty((0, 3))
        self.gravity_world = np.asarray(gravity_world, dtype=float)

    @classmethod
    def from_samples(cls, times, quats, gravity_world):
        """Track through given world-from-body samples; rates from the
        relative rotations, so queries between samples interpolate. A sample
        not later than every earlier one is skipped."""
        times = np.asarray(times, dtype=float)
        keep = np.append(True, times[1:] > np.maximum.accumulate(times)[:-1])
        track = cls(times[0], quats[0], gravity_world)
        track.times = times[keep]
        track.quats = quat_normalize(np.asarray(quats, dtype=float)[keep])
        rel = quat_mul(quat_conj(track.quats[:-1]), track.quats[1:])
        track.rates = (np.reshape([quat_to_rotvec(r) for r in rel], (-1, 3))
                       / np.diff(track.times)[:, None])
        return track

    @property
    def t_start(self):
        return self.times[0]

    @property
    def t_end(self):
        return self.times[-1]

    def extend(self, imu: ImuData):
        """Integrate gyro samples forward from the current end time."""
        t = self.t_end
        if imu.t[-1] <= t + 1e-12:
            return self
        ts = np.concatenate([[t], imu.t[imu.t > t + 1e-12]])
        # before the first sample np.interp holds the first gyro reading
        w = np.stack([np.interp(ts, imu.t, imu.gyro[:, k]) for k in range(3)],
                     axis=1)
        w_mid = 0.5 * (w[:-1] + w[1:])
        q = self.quats[-1]
        quats = []
        for step in quat_from_rotvec(w_mid * np.diff(ts)[:, None]):
            q = quat_normalize(quat_mul(q, step))
            quats.append(q)
        self.times = np.concatenate([self.times, ts[1:]])
        self.quats = np.concatenate([self.quats, quats])
        self.rates = np.concatenate([self.rates, w_mid])
        return self

    def quat(self, t):
        """World-from-body quaternion at time t, or one row per time of an
        array t, within the covered span."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0] - 1e-9) or np.any(t > self.times[-1] + 1e-9):
            raise ValueError(f"time {t} outside orientation coverage "
                             f"[{self.times[0]}, {self.times[-1]}]")
        last = len(self.times) - 1
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, last)
        dt = t - self.times[k]
        rate = self.rates[np.minimum(k, last - 1)] if last else np.zeros(3)
        q = quat_normalize(quat_mul(self.quats[k],
                                    quat_from_rotvec(rate * dt[..., None])))
        # at or past the last sample, or exactly on one: the stored sample
        return np.where(((k < last) & (dt > 0))[..., None], q, self.quats[k])

    def rotation(self, t):
        return quat_to_matrix(self.quat(t))

    def gravity_in_body(self, t):
        return np.swapaxes(self.rotation(t), -1, -2) @ self.gravity_world


def split_intervals(t0, t1, preint_dt, knots=None):
    """Cut [t0, t1] into pre-integration intervals, splitting at knot times."""
    cuts = [t0]
    t = t0
    while t < t1 - 1e-9:
        nxt = min(t + preint_dt, t1)
        if knots is not None:
            above = knots[(knots > t + 1e-9) & (knots < nxt - 1e-9)]
            if len(above):
                nxt = float(above[0])
        cuts.append(nxt)
        t = nxt
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
