"""Sliding-window MAP estimation of the velocity spline and IMU biases.

Two residual families are stacked into one damped Gauss-Newton problem:

  * normal-flow rows: measured flow speed minus the speed predicted from the
    spline velocity, the depth and the bias-corrected gyro rate, whitened by
    a fixed flow standard deviation and per-observation quality weights,
    optionally robustified with a Huber loss;
  * pre-integration rows: measured velocity increment minus the increment
    predicted from the spline at both interval ends and the gravity
    direction, whitened by the propagated measurement covariance.

States are the spline control points plus one [accel | gyro] bias row per
spline segment; a weak random-walk tie couples neighboring biases and a
wide prior keeps unobserved biases bounded. The window's pre-integrations
are evaluated together, as arrays with a leading interval axis.
Orientation is not estimated: it comes from gyro integration and only
feeds the gravity direction and the rotational flow component.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .events import ImuData, SequencingError
from .geometry import StereoRig, flow_rows
from .imu import (OrientationTrack, Preintegration, preintegrate,
                  split_intervals)
from .initializer import InitializationError, ransac_initialize
from .normal_flow import FlowBatch
from .rotations import hat, quat_to_matrix, right_jacobian_so3
from .spline import VelocitySpline

DV_STD_FLOOR = 1e-5     # m/s, keeps whitening finite for noise-free config


def huber_weights(r, delta):
    """IRLS weights and robust cost for a Huber loss on whitened residuals."""
    a = np.abs(r)
    w = np.where(a <= delta, 1.0, delta / np.maximum(a, 1e-300))
    rho = np.where(a <= delta, r * r, 2.0 * delta * a - delta * delta)
    return w, rho


@dataclass
class OptimizeReport:
    cost_before: float
    cost_after: float
    iterations: int
    converged: bool
    lambda_final: float


@dataclass
class RunReport:
    init_time: float = None
    init_attempts: int = 0
    init_failure: str = None         # reason of the last failed initialization
    batches: int = 0
    flows: int = 0
    observations: int = 0
    imu_intervals: int = 0
    lm_iterations: int = 0
    optimizations: int = 0
    cost_drops: list = field(default_factory=list)
    wall_time: float = 0.0
    data_duration: float = 0.0

    def to_text(self):
        lines = [
            f"init_time_s: {self.init_time}",
            f"init_attempts: {self.init_attempts}",
            f"init_failure: {self.init_failure}",
            f"batches: {self.batches}",
            f"flow_measurements: {self.flows}",
            f"flow_depth_observations: {self.observations}",
            f"imu_intervals: {self.imu_intervals}",
            f"optimizations: {self.optimizations}",
            f"lm_iterations: {self.lm_iterations}",
            f"wall_time_s: {self.wall_time:.3f}",
            f"data_duration_s: {self.data_duration:.3f}",
        ]
        if self.data_duration > 0 and self.wall_time > 0:
            lines.append(f"realtime_factor: {self.wall_time / self.data_duration:.3f}")
        if self.cost_drops:
            drops = np.asarray(self.cost_drops)
            lines.append(f"mean_cost_drop: {drops.mean():.6g}")
        return "\n".join(lines) + "\n"


class Estimator:
    """Owns the spline window, the buffers and the optimization."""

    def __init__(self, rig: StereoRig, config: PipelineConfig):
        self.rig = rig
        self.cfg = config
        self.gravity = config.gravity_vec()
        self.spline: VelocitySpline = None
        self.orientation: OrientationTrack = None
        self.imu: ImuData = None
        self.flow_batches = []
        self.preints = []
        self.status = "uninitialized"
        self.rng = np.random.default_rng(config.estimator.seed)
        self.last_batch_t = -np.inf
        self.last_preint_end = None
        self.velocity_samples = []       # (t, v) emitted at the output rate
        self._next_emit_idx = 0
        self.report = RunReport()

    # ------------------------------------------------------------------
    # data feeding
    # ------------------------------------------------------------------

    def set_initial_orientation(self, t0, q0):
        self.orientation = OrientationTrack(t0, q0, self.gravity)

    def feed_imu(self, imu: ImuData):
        if self.imu is None:
            self.imu = imu
        else:
            if imu.t[0] < self.imu.t[-1] - 1e-12:
                raise SequencingError("IMU chunk overlaps already-fed data")
            self.imu = ImuData(np.concatenate([self.imu.t, imu.t]),
                               np.vstack([self.imu.accel, imu.accel]),
                               np.vstack([self.imu.gyro, imu.gyro]))
        if self.orientation is None:
            raise RuntimeError("set_initial_orientation before feeding IMU")
        self.orientation.extend(self.imu)

    # ------------------------------------------------------------------
    # residual builders
    # ------------------------------------------------------------------

    def _flow_constants(self, batch: FlowBatch):
        """State-independent terms of a flow batch: (gyro, n^T A, n^T B)."""
        a_rows, b_rows = flow_rows(self.rig.left, batch.x, batch.y,
                                   batch.direction)
        return self.imu.interp_gyro(batch.t), a_rows, b_rows

    def flow_residual_block(self, batch: FlowBatch, control_points=None,
                            biases=None, constants=None):
        """Whitened flow residuals and Jacobians for one depth-matched batch.

        `constants` is _flow_constants(batch), computed here when not given.
        Returns (r (K,), jac_cp (K, 12), jac_bw (K, 3), segment index).
        """
        sp = self.spline
        cp = sp.control_points if control_points is None else control_points
        bs = sp.biases if biases is None else biases
        gyro, a_rows, b_rows = (self._flow_constants(batch) if constants is None
                                else constants)
        j, w = sp.weights(batch.t)
        v = w @ cp[j:j + 4]
        omega = gyro - bs[j, 3:]
        cfg = self.cfg.estimator
        sigma = np.maximum(cfg.flow_sigma, cfg.flow_sigma_rel * batch.magnitude)
        scale = batch.weight / sigma
        pred = a_rows @ v / batch.depth + b_rows @ omega
        r = (batch.magnitude - pred) * scale
        a_scaled = -(a_rows / batch.depth[:, None]) * scale[:, None]
        jac_cp = (a_scaled[:, None, :] * w[None, :, None]).reshape(len(batch), 12)
        jac_bw = b_rows * scale[:, None]
        return r, jac_cp, jac_bw, j

    def _imu_constants(self, preints):
        """State-independent terms of pre-integrations: (stacked, segment and
        weights at t0, at t1, bias segment, inverse Cholesky factor of the
        floored covariance, -gravity in the body frame at t0)."""
        pre = Preintegration.stack(preints)
        if np.any(pre.dt < self.cfg.estimator.min_imu_dt):
            raise ValueError(f"interval of {pre.dt.min()}s too short")
        sp = self.spline
        j0, w0 = zip(*map(sp.weights, pre.t0))
        j1, w1 = zip(*map(sp.weights, pre.t1))
        seg = [sp.segment_of(t)[0] for t in 0.5 * (pre.t0 + pre.t1)]
        l_mat = np.linalg.cholesky(pre.cov + (DV_STD_FLOOR ** 2) * np.eye(3))
        g_hat = -self.orientation.gravity_in_body(pre.t0)
        return (pre, np.array(j0), np.array(w0), np.array(j1), np.array(w1),
                np.array(seg), np.linalg.inv(l_mat), g_hat)

    def imu_residual(self, preints, control_points=None, biases=None,
                     constants=None):
        """Whitened residuals and Jacobians of N pre-integrations at once.

        `constants` is _imu_constants(preints), computed here when not given.
        Returns (r (N, 3), jac_cp0 (N, 3, 12), seg0 (N,), jac_cp1 (N, 3, 12),
        seg1 (N,), jac_bias (N, 3, 6), bias segment index (N,)).
        """
        sp = self.spline
        cp = sp.control_points if control_points is None else control_points
        bs = sp.biases if biases is None else biases
        pre, j0, w0, j1, w1, seg, l_inv, g_hat = (
            self._imu_constants(preints) if constants is None else constants)
        v0 = np.einsum("nk,nkc->nc", w0, cp[j0[:, None] + np.arange(4)])
        v1 = np.einsum("nk,nkc->nc", w1, cp[j1[:, None] + np.arange(4)])
        dv, dq, phi = pre.corrected(bs[seg])
        rot = quat_to_matrix(dq)
        e = dv - (np.einsum("nij,nj->ni", rot, v1)
                  + g_hat * pre.dt[:, None] - v0)
        r = np.einsum("nij,nj->ni", l_inv, e)
        n = len(r)
        jac_cp0 = (l_inv[:, :, None, :] * w0[:, None, :, None]).reshape(n, 3, 12)
        lr = -l_inv @ rot
        jac_cp1 = (lr[:, :, None, :] * w1[:, None, :, None]).reshape(n, 3, 12)
        jac_ba = l_inv @ pre.jac_dv_ba
        jac_bw = l_inv @ (pre.jac_dv_bw
                          + rot @ hat(v1) @ right_jacobian_so3(phi) @ pre.jac_dq_bw)
        jac_bias = np.concatenate([jac_ba, jac_bw], axis=-1)
        return r, jac_cp0, j0, jac_cp1, j1, jac_bias, seg

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------

    def _pack(self):
        return np.concatenate([self.spline.control_points.ravel(),
                               self.spline.biases.ravel()])

    def _unpack(self, x):
        """(control points (n, 3), bias rows (m, 6)), views of x."""
        n = self.spline.num_controls
        return x[:3 * n].reshape(n, 3), x[3 * n:].reshape(-1, 6)

    def _assemble(self, x, anchor=None, flow_constants=None,
                  imu_constants=None):
        """Stacked whitened residual, Jacobian and robust cost at state x.

        `anchor` optionally ties every control point to a reference value
        with a wide prior, giving otherwise-unconstrained directions a
        diagonal and bounding excursions of barely-observed tail states.
        `flow_constants` holds _flow_constants() of each window batch and
        `imu_constants` is _imu_constants(self.preints).
        """
        est_cfg = self.cfg.estimator
        sp = self.spline
        n = sp.num_controls
        m = sp.num_segments
        ncols = 3 * n + 6 * m
        cp, biases = self._unpack(x)

        rows_r = []
        rows_j = []
        cost = 0.0

        if anchor is not None and est_cfg.anchor_sigma > 0:
            inv = 1.0 / est_cfg.anchor_sigma
            r = (cp - anchor).ravel() * inv
            jmat = np.zeros((3 * n, ncols))
            jmat[:, :3 * n] = np.eye(3 * n) * inv
            cost += float(r @ r)
            rows_r.append(r)
            rows_j.append(jmat)

        if flow_constants is None:
            flow_constants = [self._flow_constants(b) for b in self.flow_batches]
        for batch, consts in zip(self.flow_batches, flow_constants):
            r, jac_cp, jac_bw, j = self.flow_residual_block(batch, cp, biases,
                                                            consts)
            jmat = np.zeros((len(batch), ncols))
            jmat[:, 3 * j:3 * j + 12] = jac_cp
            col = 3 * n + 6 * j
            jmat[:, col + 3:col + 6] = jac_bw
            if est_cfg.robust:
                w, rho = huber_weights(r, est_cfg.huber_delta)
                cost += float(rho.sum())
                sw = np.sqrt(w)
                r = r * sw
                jmat = jmat * sw[:, None]
            else:
                cost += float(r @ r)
            rows_r.append(r)
            rows_j.append(jmat)

        if self.preints:
            r, jc0, j0, jc1, j1, jb, seg = self.imu_residual(
                self.preints, cp, biases, imu_constants)
            # row 3i + c belongs to interval i; scatter its column blocks
            rows = np.arange(r.size)[:, None]
            j0, j1, seg = (np.repeat(a, 3)[:, None] for a in (j0, j1, seg))
            jmat = np.zeros((r.size, ncols))
            jmat[rows, 3 * j0 + np.arange(12)] = jc0.reshape(-1, 12)
            jmat[rows, 3 * j1 + np.arange(12)] += jc1.reshape(-1, 12)
            jmat[rows, 3 * n + 6 * seg + np.arange(6)] = jb.reshape(-1, 6)
            r = r.ravel()
            cost += float(r @ r)
            rows_r.append(r)
            rows_j.append(jmat)

        imu_cfg = self.cfg.imu
        if m > 1:
            # random walk: rows 6k..6k+5 whiten biases[k + 1] - biases[k]
            n_seg_samples = max(self.cfg.spline.knot_dt * imu_cfg.rate_hz, 1.0)
            sig_a = imu_cfg.acc_bias_std * np.sqrt(n_seg_samples)
            sig_w = imu_cfg.gyro_bias_std * np.sqrt(n_seg_samples)
            inv = np.repeat([1.0 / sig_a, 1.0 / sig_w], 3)
            r = ((biases[1:] - biases[:-1]) * inv).ravel()
            jmat = np.zeros((6 * (m - 1), ncols))
            jmat[:, 3 * n:] = np.kron(np.eye(m - 1, m, 1) - np.eye(m - 1, m),
                                      np.diag(inv))
            cost += float(r @ r)
            rows_r.append(r)
            rows_j.append(jmat)

        inv_prior = np.repeat([1.0 / est_cfg.bias_prior_acc,
                               1.0 / est_cfg.bias_prior_gyro], 3)
        r = (biases * inv_prior).ravel()
        jmat = np.zeros((6 * m, ncols))
        jmat[:, 3 * n:] = np.diag(np.tile(inv_prior, m))
        cost += float(r @ r)
        rows_r.append(r)
        rows_j.append(jmat)

        return np.concatenate(rows_r), np.vstack(rows_j), cost

    def optimize(self, max_iters=None, lambda0=None) -> OptimizeReport:
        """Damped Gauss-Newton on the current window; state kept on failure."""
        est_cfg = self.cfg.estimator
        max_iters = est_cfg.lm_max_iters if max_iters is None else max_iters
        lam = est_cfg.lm_lambda0 if lambda0 is None else lambda0

        x = self._pack()
        anchor = self.spline.control_points.copy()
        n_cp = 3 * self.spline.num_controls
        consts = ([self._flow_constants(b) for b in self.flow_batches],
                  self._imu_constants(self.preints) if self.preints else None)
        r, jmat, cost = self._assemble(x, anchor, *consts)
        cost0 = cost
        iters = 0
        converged = False
        while iters < max_iters:
            iters += 1
            g = jmat.T @ r
            h = jmat.T @ jmat
            d = np.diag(h).copy() + 1e-9
            accepted = False
            while lam <= est_cfg.lm_lambda_max:
                try:
                    step = np.linalg.solve(h + lam * np.diag(d), -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                if np.linalg.norm(step) < est_cfg.step_tol:
                    converged = True
                    accepted = True
                    break
                # trust region: reject steps that move any state implausibly far
                if (np.max(np.abs(step[:n_cp])) > est_cfg.max_step_velocity
                        or np.max(np.abs(step[n_cp:]), initial=0.0)
                        > est_cfg.max_step_bias):
                    lam *= 10.0
                    continue
                x_new = x + step
                r_new, j_new, cost_new = self._assemble(x_new, anchor, *consts)
                if cost_new < cost:
                    rel_drop = (cost - cost_new) / max(cost, 1e-300)
                    x, r, jmat, cost = x_new, r_new, j_new, cost_new
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    if rel_drop < est_cfg.cost_tol:
                        converged = True
                    break
                lam *= 10.0
            if not accepted:
                break
            if converged:
                break

        success = converged or cost < cost0 or iters == 0
        if cost <= cost0:
            cp, biases = self._unpack(x)
            self.spline.control_points = cp
            self.spline.biases = biases
        self.report.lm_iterations += iters
        self.report.optimizations += 1
        self.report.cost_drops.append(cost0 - cost)
        return OptimizeReport(cost_before=cost0, cost_after=min(cost, cost0),
                              iterations=iters, converged=bool(success),
                              lambda_final=lam)

    # ------------------------------------------------------------------
    # incremental interface
    # ------------------------------------------------------------------

    def _try_initialize(self, flows: FlowBatch, t):
        self.report.init_attempts += 1
        result = ransac_initialize(flows, self.imu.interp_gyro(t), self.rig.left,
                                   self.cfg.estimator, self.rng)
        dt = self.cfg.spline.knot_dt
        self.spline = VelocitySpline(
            t - 3.0 * dt, dt, np.tile(result.velocity, (4, 1)))
        self.last_preint_end = t
        self.status = "initialized"
        if self.report.init_time is None:
            self.report.init_time = t
        return result

    def _extend_preints(self, t_to):
        knots = self.spline.knots()
        t_from = self.last_preint_end
        if t_to <= t_from + self.cfg.estimator.min_imu_dt:
            return
        for a, b in split_intervals(t_from, t_to, self.cfg.imu.preint_dt, knots):
            if b - a < self.cfg.estimator.min_imu_dt:
                continue
            t_mid = 0.5 * (a + b)
            seg, _ = self.spline.segment_of(t_mid)
            pre = preintegrate(self.imu, a, b, self.spline.biases[seg],
                               self.cfg.imu)
            self.preints.append(pre)
            self.last_preint_end = b
            self.report.imu_intervals += 1

    def _emit_velocity(self, t_to):
        hz = self.cfg.estimator.output_hz
        t_to = t_to - self.cfg.estimator.output_lag
        # start near the span, not at t = 0: real timestamps are large
        self._next_emit_idx = max(self._next_emit_idx,
                                  int(np.floor(self.spline.t_min * hz)))
        while True:
            t = self._next_emit_idx / hz
            if t > t_to or t >= self.spline.t_max:
                break
            if t >= self.spline.t_min:
                self.velocity_samples.append((t, self.spline.velocity(t)))
            self._next_emit_idx += 1

    def finalize(self):
        """Emit the remaining lagged samples after the last batch."""
        if self.status == "tracking":
            self._emit_velocity(self.last_batch_t
                                + self.cfg.estimator.output_lag)

    def step(self, flows: FlowBatch, t_batch):
        """Ingest one depth-matched flow batch, stamped at t_batch == flows.t.

        An empty batch adds IMU residuals only. IMU data fed through
        feed_imu must already cover t_batch. Returns the OptimizeReport, or
        None while initialization has not succeeded.
        """
        if t_batch <= self.last_batch_t:
            raise SequencingError(
                f"batch at {t_batch} not after previous {self.last_batch_t}")
        if self.imu is None or self.imu.t[-1] < t_batch - 1e-9:
            raise SequencingError("IMU data does not cover the batch time")
        self.last_batch_t = t_batch
        self.report.batches += 1
        self.report.observations += len(flows)

        if self.status == "uninitialized":
            if len(flows) < 3:
                return None
            try:
                self._try_initialize(flows, t_batch)
            except InitializationError as exc:
                self.report.init_failure = exc.reason
                return None

        self.spline.extend_to(t_batch + 1e-9,
                              max_dv=self.cfg.spline.max_extrap_dv)
        if len(flows):
            self.flow_batches.append(flows)
        self._extend_preints(t_batch)
        report = self.optimize()
        self.status = "tracking"
        self._emit_velocity(t_batch)

        horizon = t_batch - self.cfg.spline.window_segments * self.cfg.spline.knot_dt
        if horizon > self.spline.t_min:
            before = self.spline.num_controls
            self.spline.drop_oldest(horizon)
            if self.spline.num_controls < before:
                t_min = self.spline.t_min
                self.preints = [p for p in self.preints if p.t0 >= t_min - 1e-9]
                self.flow_batches = [b for b in self.flow_batches
                                     if b.t >= t_min - 1e-9]
        return report

    def velocity_track(self):
        if not self.velocity_samples:
            return np.empty(0), np.empty((0, 3))
        ts = np.array([s[0] for s in self.velocity_samples])
        vs = np.stack([s[1] for s in self.velocity_samples])
        return ts, vs
