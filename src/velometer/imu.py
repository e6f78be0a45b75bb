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
(biases are explicit states), not here.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import ImuConfig
from .events import ImuData
from .rotations import (hat, quat_from_rotvec, quat_identity, quat_mul,
                        quat_normalize, quat_to_matrix, right_jacobian_so3)


class IntegrationError(RuntimeError):
    """Raised when an interval cannot be integrated (gaps, no coverage)."""


@dataclass
class ImuBias:
    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)

    def copy(self):
        return ImuBias(self.accel.copy(), self.gyro.copy())


@dataclass
class Preintegration:
    t0: float
    t1: float
    delta_v: np.ndarray          # m/s, integrated specific force in the start frame
    delta_q: np.ndarray          # unit quaternion, start frame <- end frame
    cov: np.ndarray              # 3x3 covariance of delta_v
    bias_ref: ImuBias            # bias used during integration
    jac_dv_ba: np.ndarray        # d(delta_v)/d(accel bias)
    jac_dv_bw: np.ndarray        # d(delta_v)/d(gyro bias)
    jac_dq_bw: np.ndarray        # d(rotation vector)/d(gyro bias)

    @property
    def dt(self):
        return self.t1 - self.t0

    def corrected(self, bias: ImuBias):
        """First-order delta_v / delta_q at a bias different from bias_ref."""
        dba = bias.accel - self.bias_ref.accel
        dbw = bias.gyro - self.bias_ref.gyro
        dv = self.delta_v + self.jac_dv_ba @ dba + self.jac_dv_bw @ dbw
        phi = self.jac_dq_bw @ dbw
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


def preintegrate(imu: ImuData, t0: float, t1: float, bias: ImuBias,
                 cfg: ImuConfig = None) -> Preintegration:
    """Midpoint integration of the IMU over [t0, t1] at the given bias."""
    cfg = cfg or ImuConfig()
    if t1 <= t0:
        raise IntegrationError("interval must have positive duration")
    max_gap = cfg.max_gap_factor / cfg.rate_hz
    ts, acc, gyr = _with_boundary_samples(imu, t0, t1, max_gap)

    q = quat_identity()
    dv = np.zeros(3)
    j_dv_ba = np.zeros((3, 3))
    j_dv_bw = np.zeros((3, 3))
    j_phi_bw = np.zeros((3, 3))
    cov6 = np.zeros((6, 6))          # error state [rotation, delta_v]
    var_a = cfg.acc_noise ** 2
    var_w = cfg.gyro_noise ** 2

    for k in range(len(ts) - 1):
        dt = ts[k + 1] - ts[k]
        if dt <= 0:
            continue
        w_mid = 0.5 * (gyr[k] + gyr[k + 1]) - bias.gyro
        a0 = acc[k] - bias.accel
        a1 = acc[k + 1] - bias.accel
        r0 = quat_to_matrix(q)
        q_next = quat_normalize(quat_mul(q, quat_from_rotvec(w_mid * dt)))
        r1 = quat_to_matrix(q_next)

        dv += 0.5 * (r0 @ a0 + r1 @ a1) * dt

        # bias Jacobians (first order, midpoint-consistent)
        step_rot = quat_to_matrix(quat_from_rotvec(w_mid * dt))
        jr = right_jacobian_so3(w_mid * dt)
        j_phi_bw_next = step_rot.T @ j_phi_bw - jr * dt
        j_dv_ba += -0.5 * (r0 + r1) * dt
        j_dv_bw += -0.5 * (r0 @ hat(a0) @ j_phi_bw
                           + r1 @ hat(a1) @ j_phi_bw_next) * dt

        # covariance: d(phi)' = A d(phi) + noise, d(dv)' += coupling * d(phi)
        f = np.eye(6)
        f[:3, :3] = step_rot.T
        f[3:, :3] = -0.5 * (r0 @ hat(a0) + r1 @ hat(a1) @ step_rot.T) * dt
        g_w = jr * dt
        g_a = 0.5 * (r0 + r1) * dt
        q_noise = np.zeros((6, 6))
        q_noise[:3, :3] = var_w * (g_w @ g_w.T)
        q_noise[3:, 3:] = var_a * (g_a @ g_a.T)
        cov6 = f @ cov6 @ f.T + q_noise

        q = q_next
        j_phi_bw = j_phi_bw_next

    return Preintegration(t0=float(t0), t1=float(t1), delta_v=dv,
                          delta_q=q, cov=cov6[3:, 3:].copy(), bias_ref=bias.copy(),
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

    Stores the world-from-body quaternion at sample times; between samples
    the rotation is continued analytically with the local angular rate, so
    queries are continuous. Gravity is the physical world vector (z up,
    negative z component); `gravity_in_body` simply rotates it.
    """

    def __init__(self, t0, q0, gravity_world):
        self.times = [float(t0)]
        self.quats = [quat_normalize(np.asarray(q0, dtype=float))]
        self.rates = []              # per-interval angular rate (body frame)
        self.gravity_world = np.asarray(gravity_world, dtype=float)

    @classmethod
    def from_samples(cls, times, quats, gravity_world):
        """Track through given world-from-body samples; rates from the
        relative rotations, so queries between samples interpolate."""
        from .rotations import quat_conj, quat_to_rotvec
        track = cls(times[0], quats[0], gravity_world)
        for k in range(1, len(times)):
            q_prev = track.quats[-1]
            q_next = quat_normalize(np.asarray(quats[k], dtype=float))
            dt = float(times[k]) - track.times[-1]
            if dt <= 0:
                continue
            rel = quat_mul(quat_conj(q_prev), q_next)
            track.times.append(float(times[k]))
            track.quats.append(q_next)
            track.rates.append(quat_to_rotvec(rel) / dt)
        return track

    @property
    def t_start(self):
        return self.times[0]

    @property
    def t_end(self):
        return self.times[-1]

    def extend(self, imu: ImuData, bias: ImuBias = None, t_to=None):
        """Integrate gyro samples forward from the current end time."""
        bias = bias or ImuBias()
        t_to = imu.t[-1] if t_to is None else min(t_to, imu.t[-1])
        t = self.t_end
        if t_to <= t + 1e-12:
            return self
        ts = imu.t[(imu.t > t + 1e-12) & (imu.t <= t_to)]
        ts = np.concatenate([ts, [t_to]]) if (len(ts) == 0 or ts[-1] < t_to - 1e-12) else ts
        for tk in ts:
            w0 = imu.interp_gyro(min(max(t, imu.t[0]), imu.t[-1])) - bias.gyro
            w1 = imu.interp_gyro(min(max(tk, imu.t[0]), imu.t[-1])) - bias.gyro
            w_mid = 0.5 * (w0 + w1)
            dt = tk - t
            q = quat_normalize(quat_mul(self.quats[-1], quat_from_rotvec(w_mid * dt)))
            self.times.append(float(tk))
            self.quats.append(q)
            self.rates.append(w_mid)
            t = tk
        return self

    def quat(self, t):
        """World-from-body quaternion at time t (within the covered span)."""
        if t < self.times[0] - 1e-9 or t > self.times[-1] + 1e-9:
            raise ValueError(f"time {t} outside orientation coverage "
                             f"[{self.times[0]}, {self.times[-1]}]")
        times = np.asarray(self.times)
        k = int(np.searchsorted(times, t, side="right")) - 1
        k = min(max(k, 0), len(self.times) - 1)
        if k == len(self.times) - 1:
            return self.quats[-1]
        dt = t - self.times[k]
        if dt <= 0:
            return self.quats[k]
        return quat_normalize(quat_mul(self.quats[k],
                                       quat_from_rotvec(self.rates[k] * dt)))

    def rotation(self, t):
        return quat_to_matrix(self.quat(t))

    def gravity_in_body(self, t):
        return self.rotation(t).T @ self.gravity_world


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
