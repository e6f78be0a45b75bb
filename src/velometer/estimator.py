"""Sliding-window MAP estimation of the velocity spline and IMU biases.

Damped Gauss-Newton on the normal equations H dx = -g of two whitened
residual families. H = J^T J and g = J^T r are accumulated block by block;
the stacked Jacobian J is never formed:

  * normal-flow rows: measured flow speed minus the speed predicted from the
    spline velocity, the depth and the bias-corrected gyro rate, whitened by
    a fixed flow standard deviation and per-observation quality weights,
    robustified with a Huber loss (as IRLS weights). Depth and gyro are
    fixed, so each row is linear in the four active control points and its
    segment's gyro bias: a 15-column Jacobian, built once per optimize. A
    trial point only re-evaluates the residuals and Huber weights and adds
    one 15x15 block per segment;
  * pre-integration rows: measured velocity increment minus the increment
    predicted from the spline at both interval ends and the gravity
    direction, whitened by the propagated measurement covariance. The
    window's pre-integrations are evaluated together, as arrays with a
    leading interval axis, and each adds one 30x30 block (both control-point
    quadruples and its bias row), scattered by flat-index bincount.

The window holds both families as stacked rows (WindowFlows, ImuConstants).
Their state-independent terms are computed once, when the rows are
appended, and rows the span no longer covers are dropped by slicing; each
optimize recomputes only the spline weights and the state indices.

States are the spline control points plus one [accel | gyro] bias row per
spline segment; a weak random-walk tie couples neighboring biases and a
wide prior keeps unobserved biases bounded.

A smoothness prior on the second differences c[k] - 2 c[k+1] + c[k+2] of
the control points keeps the window well posed. For a uniform B-spline that
difference is the velocity's second derivative times knot_dt^2, so a motion
model whose jerk stays within `spline.max_jerk` gives the standard deviation
sigma = max_jerk * knot_dt^2 (1 m/s at 100 m/s^3 and 0.1 s knots). Without
it the newest control point, whose weight at the batch time is only u^3/6,
has no constraint of its own and Gauss-Newton steps along it are unbounded.
All three priors go straight onto H's bands through strided views.
Orientation is not estimated: it comes from gyro integration and only
feeds the gravity direction and the rotational flow component.
"""

from dataclasses import dataclass, field, fields, is_dataclass

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
_WINDOW_SEGMENTS = 10   # spline segments kept in the sliding window
_COST_TOL = 1e-6        # stop: predicted decrease < this times the cost
_STEP_TOL = 1e-8        # stop: step norm below this
_MIN_IMU_DT = 1e-3      # s, shorter pre-integration intervals are skipped


def huber_weights(r, delta):
    """IRLS weights and robust cost for a Huber loss on whitened residuals."""
    a = np.abs(r)
    w = np.where(a <= delta, 1.0, delta / np.maximum(a, 1e-300))
    rho = np.where(a <= delta, r * r, 2.0 * delta * a - delta * delta)
    return w, rho


@dataclass
class BlockIndex:
    """Where dense (B, c, c) blocks and (B, c) gradient pieces over the
    state index sets `states` (B, c) land in H and g."""

    states: np.ndarray
    flat: np.ndarray        # (B * c * c,) flat indices into H (size, size)

    @classmethod
    def of(cls, states, size):
        return cls(states, (states[:, :, None] * size
                            + states[:, None, :]).ravel())

    def add(self, h, g, blocks, vecs):
        """h += the blocks, g += the pieces; repeated indices sum."""
        size = len(g)
        h += np.bincount(self.flat, blocks.ravel(),
                         size * size).reshape(size, size)
        g += np.bincount(self.states.ravel(), vecs.ravel(), size)


def _map_rows(fn, rows, *others):
    """fn over the arrays of `rows` (and of `others`, field by field),
    through nested dataclasses, as a new object of the same type."""
    if not is_dataclass(rows):
        return fn(rows, *others)
    return type(rows)(**{f.name: _map_rows(fn, getattr(rows, f.name),
                                           *(getattr(o, f.name) for o in others))
                         for f in fields(rows)})


class _Rows:
    """Arrays (or dataclasses of arrays) that share one leading row axis."""

    def append(self, rows):
        """These rows followed by those of `rows`."""
        return _map_rows(lambda a, b: np.concatenate([a, b]), self, rows)

    def keep(self, mask):
        """The rows where `mask` is true."""
        return _map_rows(lambda a: a[mask], self)


@dataclass
class WindowFlows(_Rows):
    """The window's flow rows, in arrival order, so their times never decrease.

    Depth and gyro are fixed, so a whitened flow residual is linear in
    z = [c_j .. c_j+3 | gyro bias of segment j], the 15 states it touches:
    r = c + [w_0 a | w_1 a | w_2 a | w_3 a | b] z, with w the spline weights
    at the row's time, a = `a_scaled` and b = `b_scaled`.
    """

    t: np.ndarray           # (K,) time of each row
    a_scaled: np.ndarray    # (K, 3) whitened d r / d velocity
    b_scaled: np.ndarray    # (K, 3) whitened d r / d gyro bias
    c: np.ndarray           # (K,)

    @classmethod
    def empty(cls):
        return cls(np.empty(0), np.empty((0, 3)), np.empty((0, 3)), np.empty(0))


@dataclass
class ImuConstants(_Rows):
    """The window's pre-integration intervals and their state-independent
    terms, one row per interval."""

    pre: Preintegration     # stacked
    l_inv: np.ndarray       # (N, 3, 3) inverse Cholesky factor of the floored cov
    g_hat: np.ndarray       # (N, 3) -gravity in the body frame at t0
    jac_ba: np.ndarray      # (N, 3, 3) whitened d r / d accel bias
    jac_bw0: np.ndarray     # (N, 3, 3) d r / d gyro bias, less the rotation term

    @classmethod
    def empty(cls):
        m = np.empty((0, 3, 3))
        return cls(Preintegration(np.empty(0), np.empty(0), np.empty((0, 3)),
                                  np.empty((0, 4)), m, np.empty((0, 6)), m, m, m),
                   m, np.empty((0, 3)), m, m)


@dataclass
class ImuSpan:
    """Where the window's intervals sit on the current spline span."""

    j0: np.ndarray          # (N,) segment at t0
    w0: np.ndarray          # (N, 4) weights at t0
    j1: np.ndarray
    w1: np.ndarray
    seg: np.ndarray         # (N,) bias segment
    jac_cp0: np.ndarray     # (N, 3, 12) whitened d r / d c_j0..c_j0+3
    blocks: BlockIndex      # states (N, 30): c_j0.., c_j1.., bias row seg


@dataclass
class OptimizeReport:
    cost_before: float
    cost_after: float
    iterations: int
    converged: bool


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
        self.flows = WindowFlows.empty()
        self.intervals = ImuConstants.empty()
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

    def _flow_rows(self, batch: FlowBatch):
        """The state-independent terms of a depth-matched batch's rows."""
        t = np.full(len(batch), batch.t)
        a_rows, b_rows = flow_rows(self.rig.left, batch.x, batch.y,
                                   batch.direction)
        cfg = self.cfg.estimator
        sigma = np.maximum(cfg.flow_sigma, cfg.flow_sigma_rel * batch.magnitude)
        scale = batch.weight / sigma
        gyro = self.imu.interp_gyro(t)
        c = (batch.magnitude - np.einsum("kc,kc->k", b_rows, gyro)) * scale
        return WindowFlows(t, -(a_rows / batch.depth[:, None]) * scale[:, None],
                           b_rows * scale[:, None], c)

    def _flow_span(self, flows: WindowFlows):
        """The (K, 15) Jacobian of `flows` over z at the current span, the
        first row of each segment's group (then K), and the BlockIndex of the
        groups' states (S, 15)."""
        sp = self.spline
        j, w = sp.weights(flows.t)
        jac = np.concatenate([
            (flows.a_scaled[:, None, :] * w[:, :, None]).reshape(-1, 12),
            flows.b_scaled], axis=1)
        segments, first = np.unique(j, return_index=True)
        seg = segments[:, None]
        states = np.concatenate([
            3 * seg + np.arange(12),
            3 * sp.num_controls + 6 * seg + np.arange(3, 6)], axis=1)
        return (jac, np.append(first, len(j)),
                BlockIndex.of(states, 3 * sp.num_controls + 6 * sp.num_segments))

    def flow_residual_block(self, batch: FlowBatch, control_points=None,
                            biases=None):
        """Whitened flow residuals and Jacobians for one depth-matched batch.

        Returns (r (K,), jac_cp (K, 12), jac_bw (K, 3), segment index).
        """
        sp = self.spline
        cp = sp.control_points if control_points is None else control_points
        bs = sp.biases if biases is None else biases
        flows = self._flow_rows(batch)
        jac, _, _ = self._flow_span(flows)
        j, _ = sp.segment_of(batch.t)
        z = np.concatenate([cp[j:j + 4].ravel(), bs[j, 3:]])
        return flows.c + jac @ z, jac[:, :12], jac[:, 12:], j

    def _interval_terms(self, pre: Preintegration):
        """The state-independent terms of stacked pre-integrations."""
        l_inv = np.linalg.inv(np.linalg.cholesky(
            pre.cov + (DV_STD_FLOOR ** 2) * np.eye(3)))
        return ImuConstants(pre, l_inv, -self.orientation.gravity_in_body(pre.t0),
                            l_inv @ pre.jac_dv_ba, l_inv @ pre.jac_dv_bw)

    def _imu_span(self):
        """The window's intervals on the current span, as an ImuSpan."""
        sp = self.spline
        pre = self.intervals.pre
        j0, w0 = sp.weights(pre.t0)
        j1, w1 = sp.weights(pre.t1)
        seg, _ = sp.segment_of(0.5 * (pre.t0 + pre.t1))
        l_inv = self.intervals.l_inv
        states = np.concatenate([3 * j0[:, None] + np.arange(12),
                                 3 * j1[:, None] + np.arange(12),
                                 3 * sp.num_controls + 6 * seg[:, None]
                                 + np.arange(6)], axis=1)
        return ImuSpan(
            j0, w0, j1, w1, seg,
            jac_cp0=(l_inv[:, :, None, :] * w0[:, None, :, None]).reshape(-1, 3, 12),
            blocks=BlockIndex.of(states, 3 * sp.num_controls + 6 * sp.num_segments))

    def imu_residual(self, span: ImuSpan, cp, bs):
        """Whitened residuals and Jacobians of the window's N intervals at
        control points `cp` and bias rows `bs`; `span` is _imu_span().

        Returns (r (N, 3), jac (N, 3, 30)), the columns of jac in the order
        of `span.blocks.states`: c_j0.., c_j1.., bias row seg.
        """
        k = self.intervals
        pre = k.pre
        v0 = np.einsum("nk,nkc->nc", span.w0, cp[span.j0[:, None] + np.arange(4)])
        v1 = np.einsum("nk,nkc->nc", span.w1, cp[span.j1[:, None] + np.arange(4)])
        dv, dq, phi = pre.corrected(bs[span.seg])
        rot = quat_to_matrix(dq)
        e = dv - (np.einsum("nij,nj->ni", rot, v1)
                  + k.g_hat * pre.dt[:, None] - v0)
        r = np.einsum("nij,nj->ni", k.l_inv, e)
        lr = -k.l_inv @ rot
        jac_cp1 = (lr[:, :, None, :] * span.w1[:, None, :, None]).reshape(-1, 3, 12)
        jac_bw = k.jac_bw0 - lr @ hat(v1) @ right_jacobian_so3(phi) @ pre.jac_dq_bw
        return r, np.concatenate([span.jac_cp0, jac_cp1, k.jac_ba, jac_bw],
                                 axis=2)

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

    def _normal_equations(self, x, flow_span, imu_span):
        """Gauss-Newton normal equations (H, g) and robust cost at state x.

        H = J^T J and g = J^T r of the whitened stacked residual, summed one
        block at a time: a 15x15 block per flow segment group, a 30x30 block
        per pre-integration, and the smoothness and bias priors straight on
        H's bands. Huber weights enter as IRLS weights.
        `flow_span` is _flow_span(self.flows) and `imu_span` is _imu_span().
        """
        est_cfg = self.cfg.estimator
        sp = self.spline
        n = sp.num_controls
        m = sp.num_segments
        size = 3 * n + 6 * m
        cp, biases = self._unpack(x)
        h = np.zeros((size, size))
        g = np.zeros(size)
        cost = 0.0
        # strided views of the flat H: its diagonal, and the band six entries
        # off the bias diagonal (one bias component in consecutive segments)
        flat_h = h.reshape(-1)
        diag = flat_h[::size + 1]
        corner = 3 * n * (size + 1)         # H[3n, 3n], the first bias entry
        upper = flat_h[corner + 6::size + 1][:6 * (m - 1)]
        lower = flat_h[corner + 6 * size::size + 1][:6 * (m - 1)]

        # smoothness: whitened c[k] - 2 c[k + 1] + c[k + 2], for k < n - 2.
        # Row k puts coef[p] * coef[q] / sigma^2 on H[c_k+p, c_k+q] for each
        # axis; over all k that is a diagonal run of 3 (n - 2) entries.
        sp_cfg = self.cfg.spline
        inv = 1.0 / (sp_cfg.max_jerk * sp_cfg.knot_dt ** 2)
        coef = np.array([1.0, -2.0, 1.0]) * inv
        run = 3 * (n - 2)
        for p in range(3):
            for q in range(3):
                start = 3 * p * (size + 1) + 3 * (q - p)
                flat_h[start::size + 1][:run] += coef[p] * coef[q]
        r = (cp[:-2] - 2.0 * cp[1:-1] + cp[2:]) * inv
        g_cp = g[:3 * n].reshape(n, 3)
        for p in range(3):
            g_cp[p:p + n - 2] += coef[p] * r
        r = r.ravel()
        cost += float(r @ r)

        jac, starts, blocks = flow_span
        if len(jac):
            z = np.repeat(x[blocks.states], np.diff(starts), axis=0)
            r = self.flows.c + np.einsum("kc,kc->k", jac, z)
            w, rho = huber_weights(r, est_cfg.huber_delta)
            cost += float(rho.sum())
            sw = np.sqrt(w)
            r = r * sw
            jac = jac * sw[:, None]
            blocks.add(h, g, np.stack([jac[a:b].T @ jac[a:b]
                                       for a, b in zip(starts[:-1], starts[1:])]),
                       np.add.reduceat(jac * r[:, None], starts[:-1]))

        if len(imu_span.seg):
            r, jac = self.imu_residual(imu_span, cp, biases)
            # a contiguous transpose: batched matmul is slow on strided input
            jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))
            imu_span.blocks.add(h, g, jac_t @ jac,
                                np.einsum("nij,ni->nj", jac, r))
            r = r.ravel()
            cost += float(r @ r)

        diag_bias = diag[3 * n:]
        g_bias = g[3 * n:].reshape(m, 6)
        imu_cfg = self.cfg.imu
        if m > 1:
            # random walk: whitened biases[k + 1] - biases[k]
            n_seg_samples = max(self.cfg.spline.knot_dt * imu_cfg.rate_hz, 1.0)
            sig_a = imu_cfg.acc_bias_std * np.sqrt(n_seg_samples)
            sig_w = imu_cfg.gyro_bias_std * np.sqrt(n_seg_samples)
            inv = np.repeat([1.0 / sig_a, 1.0 / sig_w], 3)
            tie = np.tile(inv * inv, m - 1)
            diag_bias[:-6] += tie
            diag_bias[6:] += tie
            upper -= tie
            lower -= tie
            r = (biases[1:] - biases[:-1]) * inv
            g_bias[:-1] -= inv * r
            g_bias[1:] += inv * r
            r = r.ravel()
            cost += float(r @ r)

        inv_prior = np.repeat([1.0 / est_cfg.bias_prior_acc,
                               1.0 / est_cfg.bias_prior_gyro], 3)
        diag_bias += np.tile(inv_prior * inv_prior, m)
        r = biases * inv_prior
        g_bias += inv_prior * r
        r = r.ravel()
        cost += float(r @ r)

        return h, g, cost

    def optimize(self, max_iters=None, lambda0=None) -> OptimizeReport:
        """Levenberg-Marquardt on the current window; the state only moves
        by steps that lower the cost.

        Each trial solves (H + lam diag(H)) step = -g. Before the trial point
        is evaluated, the Gauss-Newton model predicts the cost decrease
        -2 step^T g - step^T H step (the cost is the plain sum of squares,
        without a factor 1/2). If that is below `_COST_TOL` times the cost, or
        the step is shorter than `_STEP_TOL`, the window has converged and the
        loop stops without evaluating the trial. A trial that lowers the cost
        is accepted and divides lam by 10; one that does not multiplies it by
        10. `converged` in the report is true only when the stopping rule
        ended the loop, not when the iteration cap or `lm_lambda_max` did.
        """
        est_cfg = self.cfg.estimator
        max_iters = est_cfg.lm_max_iters if max_iters is None else max_iters
        lam = est_cfg.lm_lambda0 if lambda0 is None else lambda0

        x = self._pack()
        spans = self._flow_span(self.flows), self._imu_span()
        h, g, cost = self._normal_equations(x, *spans)
        cost0 = cost
        iters = 0
        converged = False
        while iters < max_iters:
            iters += 1
            d = np.diag(h).copy() + 1e-9
            accepted = False
            while lam <= est_cfg.lm_lambda_max:
                damped = h.copy()
                damped.flat[::len(d) + 1] += lam * d
                try:
                    step = np.linalg.solve(damped, -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                predicted = -step @ (2.0 * g + h @ step)
                if (predicted < _COST_TOL * cost
                        or np.linalg.norm(step) < _STEP_TOL):
                    converged = True
                    break
                x_new = x + step
                h_new, g_new, cost_new = self._normal_equations(x_new, *spans)
                if cost_new < cost:
                    x, h, g, cost = x_new, h_new, g_new, cost_new
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    break
                lam *= 10.0
            if not accepted:
                break

        cp, biases = self._unpack(x)
        self.spline.control_points = cp
        self.spline.biases = biases
        self.report.lm_iterations += iters
        self.report.optimizations += 1
        self.report.cost_drops.append(cost0 - cost)
        return OptimizeReport(cost_before=cost0, cost_after=cost,
                              iterations=iters, converged=converged)

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
        t_from = self.last_preint_end
        if t_to <= t_from + _MIN_IMU_DT:
            return
        spans = [(a, b) for a, b in split_intervals(
            t_from, t_to, self.cfg.imu.preint_dt, self.spline.knots())
            if b - a >= _MIN_IMU_DT]
        if not spans:
            return
        t0, t1 = np.array(spans).T
        segs, _ = self.spline.segment_of(0.5 * (t0 + t1))
        # one call for all new intervals; if it raises, nothing is appended
        pre = preintegrate(self.imu, t0, t1, self.spline.biases[segs],
                           self.cfg.imu)
        self.intervals = self.intervals.append(self._interval_terms(pre))
        self.last_preint_end = t1[-1]
        self.report.imu_intervals += len(spans)

    def _emit_velocity(self, t_to):
        hz = self.cfg.estimator.output_hz
        t_to = t_to - self.cfg.estimator.output_lag
        sp = self.spline
        # start near the span, not at t = 0: real timestamps are large
        self._next_emit_idx = max(self._next_emit_idx,
                                  int(np.floor(sp.t_min * hz)))
        ts = []
        while True:
            t = self._next_emit_idx / hz
            if t > t_to or t >= sp.t_max:
                break
            if t >= sp.t_min:
                ts.append(t)
            self._next_emit_idx += 1
        if ts:
            self.velocity_samples.extend(zip(ts, sp.velocity(np.array(ts))))

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

        self.spline.extend_to(t_batch + 1e-9)
        if len(flows):
            self.flows = self.flows.append(self._flow_rows(flows))
        self._extend_preints(t_batch)
        report = self.optimize()
        self.status = "tracking"
        self._emit_velocity(t_batch)

        horizon = t_batch - _WINDOW_SEGMENTS * self.cfg.spline.knot_dt
        if horizon > self.spline.t_min:
            before = self.spline.num_controls
            self.spline.drop_oldest(horizon)
            if self.spline.num_controls < before:
                # the spline's own rule decides what is still in the window
                covers = self.spline.covers
                self.intervals = self.intervals.keep(covers(self.intervals.pre.t0))
                self.flows = self.flows.keep(covers(self.flows.t))
        return report

    def velocity_track(self):
        if not self.velocity_samples:
            return np.empty(0), np.empty((0, 3))
        ts = np.array([s[0] for s in self.velocity_samples])
        vs = np.stack([s[1] for s in self.velocity_samples])
        return ts, vs
