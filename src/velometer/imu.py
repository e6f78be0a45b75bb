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

`preintegrate` takes N intervals at once. Their samples are gathered into
one (N, M) stack: inner samples by searchsorted, interpolated ends by one
np.interp per axis, and short rows padded by repeating their last sample.
A single loop over the sample index then advances the rotation, the
rotation-vector Jacobian and the covariance of all N intervals together;
padded and zero-length steps leave their interval unchanged. Everything
that does not recurse is computed over the whole (N, M) stack.
"""

from dataclasses import dataclass

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
    """Pre-integrated intervals; `preintegrate` returns N of them stacked,
    with a leading interval axis on every field."""

    t0: float
    t1: float
    delta_v: np.ndarray          # m/s, integrated specific force in the start frame
    delta_q: np.ndarray          # unit quaternion, start frame <- end frame
    cov: np.ndarray              # 3x3 covariance of delta_v
    bias_ref: np.ndarray         # [accel | gyro] bias used during integration
    jac_dv_ba: np.ndarray        # d(delta_v)/d(accel bias)
    jac_dv_bw: np.ndarray        # d(delta_v)/d(gyro bias)
    jac_dq_bw: np.ndarray        # d(rotation vector)/d(gyro bias)

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


def _gather(imu: ImuData, t0, t1, max_gap):
    """Samples of N intervals [t0, t1] at once: times (N, M), accel and gyro
    (N, M, 3).

    Row n holds the samples inside [t0[n], t1[n]] (ImuData.slice), plus an
    interpolated sample at an end that no sample lies within 1e-12 s of.
    A row with fewer than M samples repeats its last one, so its padded
    steps have dt == 0.
    """
    ts = imu.t
    uncovered = (t0 < ts[0] - 1e-9) | (t1 > ts[-1] + 1e-9)
    if np.any(uncovered):
        i = np.argmax(uncovered)
        raise IntegrationError(f"IMU data does not cover [{t0[i]}, {t1[i]}]")
    last = len(ts) - 1
    i0 = np.searchsorted(ts, t0, side="left")
    i1 = np.searchsorted(ts, t1, side="left")
    # a sample exactly at t1 belongs to the interval, as in ImuData.slice
    i1 += (i1 <= last) & (ts[np.minimum(i1, last)] == t1)
    inner = i1 - i0
    head = (inner == 0) | (ts[np.minimum(i0, last)] > t0 + 1e-12)
    tail = np.where(inner > 0, ts[np.maximum(i1 - 1, 0)], t0) < t1 - 1e-12
    count = head + inner + tail
    if np.any(count < 2):
        raise IntegrationError("need at least two samples to integrate")

    # sample k of row n, as a row of [the samples lo..hi-1 that the rows
    # read | t0 ends | t1 ends]; nothing outside that span is copied
    lo, hi = i0.min(), i1.max()
    n, span = len(t0), hi - lo
    k = np.minimum(np.arange(count.max()), count[:, None] - 1)
    src = np.where(k < head[:, None], span + np.arange(n)[:, None],
                   np.where(k < (head + inner)[:, None],
                            (i0 - head - lo)[:, None] + k,
                            span + n + np.arange(n)[:, None]))
    # an end within the coverage slack outside the stream takes its edge reading
    ends = np.clip(np.concatenate([t0, t1]), ts[0], ts[-1])
    times = np.concatenate([ts[lo:hi], t0, t1])[src]
    gaps = np.diff(times, axis=1).max(axis=1)
    if np.any(gaps > max_gap):
        raise IntegrationError(f"sample gap {gaps.max():.4f}s exceeds {max_gap:.4f}s")
    return (times,
            np.concatenate([imu.accel[lo:hi], imu.interp_accel(ends)])[src],
            np.concatenate([imu.gyro[lo:hi], imu.interp_gyro(ends)])[src])


def preintegrate(imu: ImuData, t0, t1, bias,
                 cfg: ImuConfig = None) -> Preintegration:
    """Midpoint integration of the IMU over the intervals [t0, t1].

    Takes ends t0, t1 (N,) and bias rows (N, 6); returns the N intervals as
    one stacked Preintegration. All N intervals advance together, one sample
    step per pass; a step with dt <= 0 (a repeated timestamp, or padding
    after a row's last sample) leaves its interval unchanged.
    """
    cfg = cfg or ImuConfig()
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if np.any(t1 <= t0):
        raise IntegrationError("interval must have positive duration")
    bias = np.array(bias, dtype=float).reshape(len(t0), 6)
    ts, acc, gyr = _gather(imu, t0, t1, cfg.max_gap_factor / cfg.rate_hz)
    n, m = ts.shape

    # per-step terms that do not depend on the running rotation, (N, M - 1)
    dts = np.diff(ts, axis=1)
    live = dts > 0
    dt = dts[..., None, None]
    w_step = (0.5 * (gyr[:, :-1] + gyr[:, 1:]) - bias[:, None, 3:]) * dts[..., None]
    q_steps = quat_from_rotvec(w_step)
    step_rots_t = np.swapaxes(quat_to_matrix(q_steps), -1, -2)
    g_w = right_jacobian_so3(w_step) * dt
    acc = acc - bias[:, None, :3]
    acc_hats = hat(acc)

    # the two recursions: the rotation at each sample, and the rotation
    # vector's gyro-bias Jacobian
    qs = np.empty((n, m, 4))
    qs[:, 0] = quat_identity()
    j_phi_bw = np.zeros((n, m, 3, 3))
    for k in range(m - 1):
        on = live[:, k]
        qs[:, k + 1] = np.where(on[:, None],
                                quat_normalize(quat_mul(qs[:, k], q_steps[:, k])),
                                qs[:, k])
        j_phi_bw[:, k + 1] = np.where(
            on[:, None, None], step_rots_t[:, k] @ j_phi_bw[:, k] - g_w[:, k],
            j_phi_bw[:, k])
    # contiguous, so that its products round as the one-interval ones do
    rots = np.ascontiguousarray(quat_to_matrix(qs))
    r0, r1 = rots[:, :-1], rots[:, 1:]
    ra0 = r0 @ acc_hats[:, :-1]
    ra1 = r1 @ acc_hats[:, 1:]

    def total(steps):
        """Sum over the steps of each interval in step order, as the
        recursion adds them (cumsum; a pairwise sum rounds differently).
        Every step term carries a factor dt, so a dt == 0 step adds zero."""
        return np.cumsum(steps, axis=1)[:, -1]

    dv = total(0.5 * (np.matvec(r0, acc[:, :-1]) + np.matvec(r1, acc[:, 1:]))
               * dts[..., None])
    g_a = 0.5 * (r0 + r1) * dt
    # bias Jacobians (first order, midpoint-consistent)
    j_dv_ba = -total(g_a)
    j_dv_bw = total(-0.5 * (ra0 @ j_phi_bw[:, :-1] + ra1 @ j_phi_bw[:, 1:]) * dt)

    # covariance: d(phi)' = A d(phi) + noise, d(dv)' += coupling * d(phi)
    f = np.zeros(dts.shape + (6, 6))
    f[..., :3, :3] = step_rots_t
    f[..., 3:, :3] = -0.5 * (ra0 + ra1 @ step_rots_t) * dt
    f[..., 3:, 3:] = np.eye(3)
    q_noise = np.zeros_like(f)
    q_noise[..., :3, :3] = cfg.gyro_noise ** 2 * (g_w @ np.swapaxes(g_w, -1, -2))
    q_noise[..., 3:, 3:] = cfg.acc_noise ** 2 * (g_a @ np.swapaxes(g_a, -1, -2))
    f_t = np.swapaxes(f, -1, -2)
    cov6 = np.zeros((n, 6, 6))          # error state [rotation, delta_v]
    for k in range(m - 1):
        cov6 = np.where(live[:, k, None, None],
                        f[:, k] @ cov6 @ f_t[:, k] + q_noise[:, k], cov6)

    return Preintegration(t0=t0, t1=t1, delta_v=dv, delta_q=qs[:, -1],
                          cov=cov6[:, 3:, 3:].copy(), bias_ref=bias,
                          jac_dv_ba=j_dv_ba, jac_dv_bw=j_dv_bw,
                          jac_dq_bw=j_phi_bw[:, -1])


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
        track.rates = quat_to_rotvec(rel) / np.diff(track.times)[:, None]
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
