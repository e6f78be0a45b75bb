import dataclasses

import numpy as np
import pytest

from velometer.config import PipelineConfig
from velometer.estimator import (DV_STD_FLOOR, Estimator, ImuConstants,
                                 WindowFlows, huber_weights)
from velometer.events import ImuData, SequencingError
from velometer.geometry import flow_rows
import velometer.estimator
from velometer.imu import (IntegrationError, OrientationTrack, Preintegration,
                           preintegrate)
from velometer.normal_flow import FlowBatch
from velometer.rotations import (hat, matrix_to_quat, quat_from_rotvec,
                                 quat_mul, quat_normalize, quat_to_matrix,
                                 right_jacobian_so3)
from velometer.simulator import (body_motion, default_rig,
                                 exact_observations, generate_imu, make_scene,
                                 make_trajectory, ground_truth)
from velometer.spline import VelocitySpline

GRAVITY = np.array([0.0, 0.0, -9.81])
ZERO_BIAS = np.zeros(6)     # [accel | gyro]


def make_setup(preset="corridor", speed=3.0, omega=0.8, duration=1.2,
               seed=3, **cfg_kw):
    cfg = PipelineConfig(**cfg_kw)
    cfg.sim.jitter_std = 0.0
    rig = default_rig(cfg.sim)
    traj = make_trajectory(preset, speed=speed, omega=omega, duration=duration)
    scene = make_scene(preset, traj, cfg.sim, np.random.default_rng(seed))
    return cfg, rig, traj, scene


def initial_quat(traj):
    """World-from-body quaternion of the trajectory at t = 0."""
    return matrix_to_quat(traj.pose_batch(0.0)[0][0])


def estimator_with_truth(cfg, rig, traj, t_end, knot0=0.0):
    """Estimator fed with ideal IMU, spline seeded from ground truth."""
    est = Estimator(rig, cfg)
    est.set_initial_orientation(0.0, initial_quat(traj))
    est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
    dt = cfg.spline.knot_dt
    n = int(np.ceil((t_end - knot0) / dt)) + 4
    cp = body_motion(traj, knot0 + dt * (np.arange(n) - 3) + 0.5 * dt)[1]
    est.spline = VelocitySpline(knot0 - 3 * dt, dt, cp)
    est.status = "initialized"
    est.last_preint_end = knot0
    return est


def random_biases(est, rng, acc_std, gyro_std):
    """One [accel | gyro] row per segment, drawn accel first."""
    for k in range(est.spline.num_segments):
        est.spline.biases[k] = np.concatenate([rng.normal(0, acc_std, 3),
                                               rng.normal(0, gyro_std, 3)])


def add_batches(est, batches):
    """Append the rows of each non-empty batch to the window, as step does;
    returns the batches, the test's own copy of the window's flow inputs."""
    for batch in batches:
        if len(batch):
            est.flows = est.flows.append(est._flow_rows(batch))
    return batches


def add_interval(est, t0, t1, bias):
    """Append the pre-integration of [t0, t1] at the bias row to the window."""
    pre = preintegrate(est.imu, np.array([t0]), np.array([t1]),
                       np.reshape(bias, (1, 6)), est.cfg.imu)
    est.intervals = est.intervals.append(est._interval_terms(pre))


def window_preints(est):
    """The window's pre-integrations as stored, one interval each."""
    pre = est.intervals.pre
    return [Preintegration(**{f.name: getattr(pre, f.name)[i]
                              for f in dataclasses.fields(pre)})
            for i in range(len(pre.t0))]


def normal_equations(est, x):
    return est._normal_equations(x, est._flow_span(est.flows), est._imu_span())


def imu_residual(est, span=None):
    """The window's stacked IMU residuals at the spline's current state."""
    span = est._imu_span() if span is None else span
    return est.imu_residual(span, est.spline.control_points, est.spline.biases)


def reference_imu_residual(est, pre, cp=None, biases=None):
    """One pre-integration's whitened residual and Jacobians at the control
    points and bias rows (the spline's when not given), evaluated on its own
    with the per-interval arithmetic the stacked form replaces.

    Returns (r (3,), jac_cp0 (3, 12), seg0, jac_cp1 (3, 12), seg1,
    jac_bias (3, 6), bias segment index).
    """
    sp = est.spline
    cp = sp.control_points if cp is None else cp
    biases = sp.biases if biases is None else biases
    seg_b, _ = sp.segment_of(0.5 * (pre.t0 + pre.t1))
    j0, w0 = sp.weights(pre.t0)
    j1, w1 = sp.weights(pre.t1)
    v0 = w0 @ cp[j0:j0 + 4]
    v1 = w1 @ cp[j1:j1 + 4]
    dba = biases[seg_b, :3] - pre.bias_ref[:3]
    dbw = biases[seg_b, 3:] - pre.bias_ref[3:]
    dv = pre.delta_v + pre.jac_dv_ba @ dba + pre.jac_dv_bw @ dbw
    phi = pre.jac_dq_bw @ dbw
    rot = quat_to_matrix(quat_normalize(quat_mul(pre.delta_q,
                                                 quat_from_rotvec(phi))))
    g_hat = -est.orientation.gravity_in_body(pre.t0)
    e = dv - (rot @ v1 + g_hat * pre.dt - v0)
    l_inv = np.linalg.inv(np.linalg.cholesky(pre.cov
                                             + DV_STD_FLOOR ** 2 * np.eye(3)))
    jac_cp0 = (l_inv[:, None, :] * w0[None, :, None]).reshape(3, 12)
    jac_cp1 = ((-l_inv @ rot)[:, None, :] * w1[None, :, None]).reshape(3, 12)
    jac_ba = l_inv @ pre.jac_dv_ba
    jac_bw = l_inv @ (pre.jac_dv_bw
                      + rot @ hat(v1) @ right_jacobian_so3(phi) @ pre.jac_dq_bw)
    return (l_inv @ e, jac_cp0, j0, jac_cp1, j1,
            np.concatenate([jac_ba, jac_bw], axis=1), seg_b)


def reference_flow_rows(est, batch, cp, biases):
    """One batch's whitened flow residual and Jacobians, from the predicted
    flow as the per-batch form computed it.

    Returns (r (K,), jac_cp (K, 12), jac_bw (K, 3), segment index).
    """
    a_rows, b_rows = flow_rows(est.rig.left, batch.x, batch.y, batch.direction)
    j, w = est.spline.weights(batch.t)
    v = w @ cp[j:j + 4]
    omega = est.imu.interp_gyro(batch.t) - biases[j, 3:]
    cfg = est.cfg.estimator
    sigma = np.maximum(cfg.flow_sigma, cfg.flow_sigma_rel * batch.magnitude)
    scale = batch.weight / sigma
    pred = a_rows @ v / batch.depth + b_rows @ omega
    r = (batch.magnitude - pred) * scale
    a_scaled = -(a_rows / batch.depth[:, None]) * scale[:, None]
    jac_cp = (a_scaled[:, None, :] * w[None, :, None]).reshape(len(batch), 12)
    return r, jac_cp, b_rows * scale[:, None], j


def smoothness_rows(est, cp):
    """The whitened second differences c[k] - 2 c[k + 1] + c[k + 2] and their
    dense Jacobian over the control-point columns, one row block per k."""
    sp = est.spline
    n = sp.num_controls
    ncols = 3 * n + 6 * sp.num_segments
    sigma = est.cfg.spline.max_jerk * est.cfg.spline.knot_dt ** 2
    rows_r, rows_j = [], []
    for k in range(n - 2):
        jmat = np.zeros((3, ncols))
        for p, coef in enumerate((1.0, -2.0, 1.0)):
            jmat[:, 3 * (k + p):3 * (k + p) + 3] = coef / sigma * np.eye(3)
        rows_r.append((cp[k] - 2.0 * cp[k + 1] + cp[k + 2]) / sigma)
        rows_j.append(jmat)
    return np.concatenate(rows_r), np.vstack(rows_j)


def reference_rows(est, x, batches, preints):
    """The dense whitened residual r, Jacobian J (rows x (3n + 6m)) and
    robust cost at state x of the flow batches and pre-integrations given,
    one row block per residual family; Huber weights enter as square roots
    on the flow rows."""
    est_cfg = est.cfg.estimator
    sp = est.spline
    n = sp.num_controls
    m = sp.num_segments
    ncols = 3 * n + 6 * m
    cp, biases = est._unpack(x)
    r, jmat = smoothness_rows(est, cp)
    rows_r, rows_j = [r], [jmat]
    cost = float(r @ r)
    for batch in batches:
        if not len(batch):
            continue
        r, jac_cp, jac_bw, j = reference_flow_rows(est, batch, cp, biases)
        jmat = np.zeros((len(batch), ncols))
        jmat[:, 3 * j:3 * j + 12] = jac_cp
        col = 3 * n + 6 * j
        jmat[:, col + 3:col + 6] = jac_bw
        w, rho = huber_weights(r, est_cfg.huber_delta)
        cost += float(rho.sum())
        sw = np.sqrt(w)
        rows_r.append(r * sw)
        rows_j.append(jmat * sw[:, None])
    for pre in preints:
        r, jc0, j0, jc1, j1, jb, seg = reference_imu_residual(est, pre, cp,
                                                              biases)
        jmat = np.zeros((3, ncols))
        jmat[:, 3 * j0:3 * j0 + 12] += jc0
        jmat[:, 3 * j1:3 * j1 + 12] += jc1
        jmat[:, 3 * n + 6 * seg:3 * n + 6 * seg + 6] = jb
        cost += float(r @ r)
        rows_r.append(r)
        rows_j.append(jmat)
    imu_cfg = est.cfg.imu
    if m > 1:
        n_seg_samples = max(est.cfg.spline.knot_dt * imu_cfg.rate_hz, 1.0)
        inv = np.repeat([1.0 / (imu_cfg.acc_bias_std * np.sqrt(n_seg_samples)),
                         1.0 / (imu_cfg.gyro_bias_std * np.sqrt(n_seg_samples))],
                        3)
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


def reference_normal_equations(est, x, batches, preints):
    """(J^T J, J^T r, cost) from the dense rows of the inputs given."""
    r, jmat, cost = reference_rows(est, x, batches, preints)
    return jmat.T @ jmat, jmat.T @ r, cost


def fit_spline_to_truth(est, traj):
    """Least-squares fit of the control points to the true body velocity."""
    sp = est.spline
    ts = np.linspace(sp.t_min, sp.t_max - 1e-9, 40 * sp.num_segments)
    rows = np.zeros((len(ts), sp.num_controls))
    for i, t in enumerate(ts):
        j, w = sp.weights(t)
        rows[i, j:j + 4] = w
    targets = body_motion(traj, ts)[1]
    sp.control_points, *_ = np.linalg.lstsq(rows, targets, rcond=None)


class TestFlowResidual:
    def test_consistent_observation_zero_residual(self):
        cfg, rig, traj, scene = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        fit_spline_to_truth(est, traj)
        obs = exact_observations(scene, traj, rig, 0.35, count=20)
        assert len(obs) >= 5
        for k in range(len(obs)):
            r, *_ = est.flow_residual_block(obs.subset([k]))
            # residual limited by the spline's representation error
            assert abs(r[0]) < 2e-2

    def test_jacobian_matches_finite_differences(self):
        cfg, rig, traj, scene = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        rng = np.random.default_rng(0)
        est.spline.control_points += rng.normal(0, 0.3, est.spline.control_points.shape)
        random_biases(est, rng, 1e-3, 1e-4)
        block = exact_observations(scene, traj, rig, 0.35, count=5)
        r0, jac_cp, jac_bw, j = est.flow_residual_block(block)
        eps = 1e-6
        for m in range(4):
            for axis in range(3):
                est.spline.control_points[j + m, axis] += eps
                r1, *_ = est.flow_residual_block(block)
                est.spline.control_points[j + m, axis] -= eps
                fd = (r1 - r0) / eps
                col = jac_cp[:, 3 * m + axis]
                assert np.allclose(col, fd, rtol=1e-5, atol=1e-7)
        for axis in range(3):
            est.spline.biases[j, 3 + axis] += eps
            r1, *_ = est.flow_residual_block(block)
            est.spline.biases[j, 3 + axis] -= eps
            fd = (r1 - r0) / eps
            assert np.allclose(jac_bw[:, axis], fd, rtol=1e-5, atol=1e-7)

    def test_whitening_scale(self):
        cfg, rig, traj, scene = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        est.spline.control_points += 0.5
        one = exact_observations(scene, traj, rig, 0.35, count=3).subset([0])
        (v1,), *_ = est.flow_residual_block(one)
        est.cfg.estimator.flow_sigma *= np.sqrt(2.0)
        (v2,), *_ = est.flow_residual_block(one)
        assert abs(v2 - v1 / np.sqrt(2.0)) < 1e-12


class TestImuResidual:
    def test_consistent_state_small_residual(self):
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        fit_spline_to_truth(est, traj)
        add_interval(est, 0.30, 0.33, ZERO_BIAS)
        (r,), _ = imu_residual(est)
        # unwhitened error is tiny; whitening divides by ~2e-4 std
        e = np.linalg.cholesky(est.intervals.pre.cov[0] + 1e-10 * np.eye(3)) @ r
        assert np.linalg.norm(e) < 1e-4

    def test_jacobians_match_finite_differences(self):
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        rng = np.random.default_rng(1)
        est.spline.control_points += rng.normal(0, 0.4, est.spline.control_points.shape)
        random_biases(est, rng, 1e-2, 1e-3)
        add_interval(est, 0.30, 0.33, ZERO_BIAS)
        span = est._imu_span()
        _, (jac_all,) = imu_residual(est, span)
        jc0, jc1, jb = jac_all[:, :12], jac_all[:, 12:24], jac_all[:, 24:]
        (j0,), (j1,), (seg,) = span.j0, span.j1, span.seg
        eps = 1e-6

        def residual():
            (r,), _ = imu_residual(est, span)
            return r

        jac_cp = {}
        for (jj, jac) in ((j0, jc0), (j1, jc1)):
            jac_cp.setdefault(jj, np.zeros((3, 12)))
            jac_cp[jj] += jac
        for jj, jac in jac_cp.items():
            for m in range(4):
                for axis in range(3):
                    est.spline.control_points[jj + m, axis] += eps
                    rp = residual()
                    est.spline.control_points[jj + m, axis] -= 2 * eps
                    rm = residual()
                    est.spline.control_points[jj + m, axis] += eps
                    fd = (rp - rm) / (2 * eps)
                    assert np.allclose(jac[:, 3 * m + axis], fd,
                                       rtol=1e-5, atol=1e-6)
        for axis in range(6):
            est.spline.biases[seg, axis] += eps
            rp = residual()
            est.spline.biases[seg, axis] -= 2 * eps
            rm = residual()
            est.spline.biases[seg, axis] += eps
            fd = (rp - rm) / (2 * eps)
            assert np.allclose(jb[:, axis], fd, rtol=1e-4, atol=5e-4)

    def test_degenerate_interval_rejected(self):
        # [0, 0.0305] splits into 0.03 s and 0.5 ms; the second is shorter
        # than the estimator's 1 ms minimum and never enters the window
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        est._extend_preints(0.0305)
        pre = est.intervals.pre
        assert pre.t0.tolist() == [0.0] and pre.t1.tolist() == [0.03]
        assert est.last_preint_end == 0.03

    def _window(self):
        """Estimator with a pre-integration window whose biases have moved
        since integration; intervals end at knots (seg1 == seg0 + 1) and
        one crosses the knot at 0.4 s."""
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        rng = np.random.default_rng(2)
        est.spline.control_points += rng.normal(
            0, 0.4, est.spline.control_points.shape)
        random_biases(est, rng, 1e-2, 1e-3)
        est._extend_preints(0.7)
        add_interval(est, 0.38, 0.42, est.spline.biases[3])
        random_biases(est, rng, 1e-2, 1e-3)
        return est

    def test_stacked_matches_per_interval(self):
        est = self._window()
        span = est._imu_span()
        r, jac = imu_residual(est, span)
        refs = [reference_imu_residual(est, pre) for pre in window_preints(est)]
        ref_r, jc0, j0, jc1, j1, jb, seg = (np.array(a) for a in zip(*refs))
        assert np.any(j0 == j1) and np.any(j0 != j1)
        for got, want in ((span.j0, j0), (span.j1, j1), (span.seg, seg)):
            np.testing.assert_array_equal(got, want)
        for got, want in ((r, ref_r),
                          (jac, np.concatenate([jc0, jc1, jb], axis=2))):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_assembled_rows_match_per_interval_loop(self):
        # no flows: the smoothness prior, the IMU rows, the bias
        # random-walk tie and the bias zero prior
        est = self._window()
        sp, cfg = est.spline, est.cfg
        n, m = sp.num_controls, sp.num_segments
        ncols = 3 * n + 6 * m
        r, jmat = smoothness_rows(est, sp.control_points)
        rows_r, rows_j = [r], [jmat]
        for pre in window_preints(est):
            r, jc0, j0, jc1, j1, jb, seg = reference_imu_residual(est, pre)
            jmat = np.zeros((3, ncols))
            jmat[:, 3 * j0:3 * j0 + 12] += jc0
            jmat[:, 3 * j1:3 * j1 + 12] += jc1
            jmat[:, 3 * n + 6 * seg:3 * n + 6 * seg + 6] += jb
            rows_r.append(r)
            rows_j.append(jmat)
        samples = max(cfg.spline.knot_dt * cfg.imu.rate_hz, 1.0)
        inv = np.repeat([1.0 / (cfg.imu.acc_bias_std * np.sqrt(samples)),
                         1.0 / (cfg.imu.gyro_bias_std * np.sqrt(samples))], 3)
        for k in range(m - 1):
            jmat = np.zeros((6, ncols))
            c0 = 3 * n + 6 * k
            jmat[:, c0:c0 + 6] = -np.diag(inv)
            jmat[:, c0 + 6:c0 + 12] = np.diag(inv)
            rows_r.append((sp.biases[k + 1] - sp.biases[k]) * inv)
            rows_j.append(jmat)
        inv_prior = np.repeat([1.0 / cfg.estimator.bias_prior_acc,
                               1.0 / cfg.estimator.bias_prior_gyro], 3)
        for k in range(m):
            jmat = np.zeros((6, ncols))
            jmat[:, 3 * n + 6 * k:3 * n + 6 * k + 6] = np.diag(inv_prior)
            rows_r.append(sp.biases[k] * inv_prior)
            rows_j.append(jmat)
        want_r, want_j = np.concatenate(rows_r), np.vstack(rows_j)
        want_h, want_g = want_j.T @ want_j, want_j.T @ want_r

        h, g, cost = normal_equations(est, est._pack())
        np.testing.assert_allclose(h, want_h, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_h).max())
        np.testing.assert_allclose(g, want_g, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_g).max())
        assert abs(cost - want_r @ want_r) < 1e-12 * cost


class TestNormalEquations:
    """H and g against J^T J and J^T r of the dense rows; the cost against
    the dense cost."""

    def _window(self, duration=1.0, **cfg_kw):
        """Perturbed window and its flow batches: three batches in the
        segment [0.1, 0.2) and one in each of three later segments;
        pre-integrations that end at knots (j1 == j0 + 1), lie inside one
        segment (j1 == j0), and one that crosses the knot at 0.4 s."""
        cfg, rig, traj, scene = make_setup(duration=duration, **cfg_kw)
        est = estimator_with_truth(cfg, rig, traj, duration)
        fit_spline_to_truth(est, traj)
        batches = add_batches(est, [
            exact_observations(scene, traj, rig, t, count=30)
            for t in (0.12, 0.15, 0.18, 0.35, 0.55, 0.75)])
        est._extend_preints(duration - 0.05)
        add_interval(est, 0.38, 0.42, est.spline.biases[3])
        rng = np.random.default_rng(4)
        est.spline.control_points += rng.normal(
            0, 0.6, est.spline.control_points.shape)
        random_biases(est, rng, 1e-2, 1e-3)
        return est, batches

    @staticmethod
    def _check(est, batches):
        x = est._pack()
        h, g, cost = normal_equations(est, x)
        want_h, want_g, want_cost = reference_normal_equations(
            est, x, batches, window_preints(est))
        for got, want in ((h, want_h), (g, want_g)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())
        assert abs(cost - want_cost) <= 1e-12 * want_cost

    @staticmethod
    def _flow_weights(est, batches):
        r = np.concatenate([reference_flow_rows(est, b, est.spline.control_points,
                                                est.spline.biases)[0]
                            for b in batches])
        return huber_weights(r, est.cfg.estimator.huber_delta)[0]

    def test_robust(self):
        est, batches = self._window()
        w = self._flow_weights(est, batches)
        assert np.any(w < 1.0) and np.any(w == 1.0)
        span = est._imu_span()
        assert np.any(span.j0 == span.j1) and np.any(span.j0 != span.j1)
        self._check(est, batches)

    def test_one_segment(self):
        # m = 1: no random-walk rows
        cfg, rig, traj, scene = make_setup(duration=1.0)
        est = estimator_with_truth(cfg, rig, traj, 0.0)
        assert est.spline.num_segments == 1
        batches = add_batches(est, [exact_observations(scene, traj, rig, t,
                                                       count=20)
                                    for t in (0.03, 0.07)])
        est._extend_preints(0.095)
        rng = np.random.default_rng(6)
        est.spline.control_points += rng.normal(0, 0.6, (4, 3))
        random_biases(est, rng, 1e-2, 1e-3)
        assert len(est.intervals.pre.t0)
        self._check(est, batches)

    def test_no_flows(self):
        est, _ = self._window()
        est.flows = WindowFlows.empty()
        self._check(est, [])

    def test_no_residuals_but_priors(self):
        est, _ = self._window()
        est.flows, est.intervals = WindowFlows.empty(), ImuConstants.empty()
        self._check(est, [])

    def test_empty_batch(self):
        # an empty batch adds IMU rows only: the flow rows stay those of
        # the non-empty batches
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        batches = [exact_observations(scene, traj, rig, 0.1, count=40),
                   FlowBatch.empty(0.2),
                   exact_observations(scene, traj, rig, 0.3, count=40)]
        for batch in batches:
            est.step(batch, batch.t)
        assert est.status == "tracking"
        np.testing.assert_array_equal(
            est.flows.t, np.concatenate([np.full(len(b), b.t) for b in batches]))
        assert est.intervals.pre.t1[-1] == 0.3
        # away from the optimum, so that g is not all rounding
        rng = np.random.default_rng(4)
        est.spline.control_points += rng.normal(
            0, 0.6, est.spline.control_points.shape)
        random_biases(est, rng, 1e-2, 1e-3)
        self._check(est, batches)


class TestOptimize:
    def _tracking_estimator(self, duration=1.0, perturb=0.0, seed=0):
        cfg, rig, traj, scene = make_setup(duration=duration)
        est = estimator_with_truth(cfg, rig, traj, duration)
        fit_spline_to_truth(est, traj)
        add_batches(est, [exact_observations(scene, traj, rig, t, count=30)
                          for t in np.arange(0.1, duration, 0.1)])
        est._extend_preints(duration - 0.05)
        if perturb:
            rng = np.random.default_rng(seed)
            est.spline.control_points += rng.normal(0, perturb,
                                                    est.spline.control_points.shape)
        return est, traj

    def test_fixed_point(self):
        est, _ = self._tracking_estimator()
        r0 = est.optimize()
        r1 = est.optimize()
        assert r1.iterations <= 1 or r1.cost_after >= r1.cost_before - 1e-10
        assert abs(r1.cost_after - r1.cost_before) < max(1e-10, 1e-8 * r1.cost_before)

    def test_recovery_from_perturbation(self):
        est, traj = self._tracking_estimator(perturb=0.5)
        report = est.optimize(max_iters=30)
        assert report.cost_after < report.cost_before
        # probe only where flow/IMU data exists: states beyond the last
        # observation have only the smoothness prior to pull them back
        ts = np.arange(0.15, 0.86, 0.1)
        for t, v_true in zip(ts, body_motion(traj, ts)[1]):
            v = est.spline.velocity(t)
            assert np.linalg.norm(v - v_true) < 2e-3

    @pytest.mark.parametrize("perturb", [0.0, 0.5])
    def test_converged(self, perturb):
        est, _ = self._tracking_estimator(perturb=perturb)
        report = est.optimize()
        assert report.converged
        assert report.iterations < est.cfg.estimator.lm_max_iters

    def test_not_converged_when_iteration_cap_stops(self):
        est, _ = self._tracking_estimator(perturb=0.5)
        report = est.optimize(max_iters=1)
        assert report.iterations == 1
        assert report.cost_after < report.cost_before
        assert not report.converged

    @pytest.mark.parametrize("max_jerk, bounded", [(100.0, True),
                                                   (np.inf, False)])
    def test_tail_step_bounded_by_smoothness_prior(self, max_jerk, bounded):
        # a batch 5 ms into a new segment weighs the newest control point by
        # u^3 / 6 = 2e-5 and nothing else observes it. On noisy IMU, one
        # Gauss-Newton step from the truth moves it by 0.06-0.24 m/s with
        # the prior; without it (infinite max_jerk) the step fits the noise
        # along that direction and throws it by 3-10 m/s.
        cfg, rig, traj, scene = make_setup(duration=1.0)
        cfg.spline.max_jerk = max_jerk
        est = estimator_with_truth(cfg, rig, traj, 0.5)
        fit_spline_to_truth(est, traj)
        est.imu, _, _ = generate_imu(traj, cfg.imu, GRAVITY,
                                     np.random.default_rng(0))
        t_new = est.spline.t_max + 0.005
        est.spline.extend_to(t_new)
        add_batches(est, [exact_observations(scene, traj, rig, t, count=30)
                          for t in (*np.arange(0.1, 0.5, 0.1), t_new)])
        est._extend_preints(t_new)
        assert est.spline.weights(t_new)[1][-1] < 1e-4
        before = est.spline.control_points.copy()
        est.optimize(max_iters=1)
        moved = np.linalg.norm(est.spline.control_points - before, axis=1)
        if bounded:
            assert moved[-1] < 0.5
        else:
            assert moved[-1] > 2.0

    def test_accepted_steps_decrease_cost(self):
        est, _ = self._tracking_estimator(perturb=0.8)
        costs = []
        for _ in range(6):
            rep = est.optimize(max_iters=1)
            costs.append((rep.cost_before, rep.cost_after))
        for before, after in costs:
            assert after <= before + 1e-12

    def test_gauge_locality_without_imu(self):
        # flows at one timestamp, no IMU residuals: only the active control
        # points are observed, so the inactive ones move only as the
        # smoothness prior moves them. From a perturbed active quadruple, the
        # optimum leaves each inactive point where the prior alone puts it
        # given the active points: the second differences minimized over the
        # inactive points with the active ones held fixed.
        est, _ = self._tracking_estimator(duration=1.0)
        t_kept = np.unique(est.flows.t)[4]
        est.flows = est.flows.keep(est.flows.t == t_kept)
        est.intervals = ImuConstants.empty()
        j_active, _ = est.spline.segment_of(t_kept)
        active = np.arange(j_active, j_active + 4)
        est.spline.control_points[active] += np.random.default_rng(0).normal(
            0, 0.3, (4, 3))
        before = est.spline.control_points.copy()
        report = est.optimize(max_iters=50)
        assert report.converged
        cp = est.spline.control_points
        n = len(cp)
        second_diff = np.zeros((n - 2, n))
        for k in range(n - 2):
            second_diff[k, k:k + 3] = [1.0, -2.0, 1.0]
        inactive = np.setdiff1d(np.arange(n), active)
        prior_only, *_ = np.linalg.lstsq(second_diff[:, inactive],
                                         -second_diff[:, active] @ cp[active],
                                         rcond=None)
        assert np.allclose(cp[inactive], prior_only, rtol=0.0, atol=1e-9)
        moved = np.linalg.norm(cp - before, axis=1)
        assert moved[inactive].max() > 1e-2     # the prior did move them


class TestHuber:
    def test_weights(self):
        r = np.array([0.5, -1.0, 4.0, -10.0])
        w, rho = huber_weights(r, 2.0)
        assert np.allclose(w[:2], 1.0)
        assert np.allclose(w[2], 0.5)
        assert np.allclose(rho[0], 0.25)
        assert np.allclose(rho[2], 2 * 2 * 4 - 4)


class TestStep:
    def test_constant_velocity_tracking(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=3.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        for t in np.arange(0.08, 3.0, 0.08):
            obs = exact_observations(scene, traj, rig, t, count=40)
            est.step(obs, t)
        assert est.status == "tracking"
        ts, vs = est.velocity_track()
        mask = ts > 0.3
        v_true = body_motion(traj, [0.0])[1]
        err = np.linalg.norm(vs[mask] - v_true, axis=1)
        speed = np.linalg.norm(v_true)
        assert err.mean() < 0.05 * speed

    def test_tracking_at_epoch_timestamps(self):
        # the same stream stamped in seconds since 1970
        shift = 1.7e9
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.5)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(shift, initial_quat(traj))
        imu = generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0]
        est.feed_imu(ImuData(imu.t + shift, imu.accel, imu.gyro))
        for t in np.arange(0.08, 1.5, 0.08):
            obs = exact_observations(scene, traj, rig, t, count=40)
            est.step(dataclasses.replace(obs, t=obs.t + shift), t + shift)
        assert est.status == "tracking"
        ts, vs = est.velocity_track()
        mask = ts > shift + 0.3
        assert mask.sum() > 10
        v_true = body_motion(traj, [0.0])[1]
        err = np.linalg.norm(vs[mask] - v_true, axis=1)
        assert err.mean() < 0.05 * np.linalg.norm(v_true)

    def test_imu_only_batches(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        obs = exact_observations(scene, traj, rig, 0.1, count=40)
        est.step(obs, 0.1)
        rep = est.step(FlowBatch.empty(0.35), 0.35)  # texture gap: IMU only
        assert rep is not None and rep.converged
        v = est.spline.velocity(0.35)
        assert np.linalg.norm(v - body_motion(traj, [0.35])[1][0]) < 0.05

    def test_out_of_order_batch_rejected(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        obs = exact_observations(scene, traj, rig, 0.5, count=40)
        est.step(obs, 0.5)
        with pytest.raises(SequencingError):
            est.step(obs, 0.4)

    def test_initialization_failure_keeps_waiting(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        assert est.step(FlowBatch.empty(0.1), 0.1) is None
        assert est.status == "uninitialized"
        obs = exact_observations(scene, traj, rig, 0.3, count=40)
        est.step(obs, 0.3)
        assert est.status == "tracking"


class TestExtendPreints:
    def test_one_call_for_all_new_intervals(self, monkeypatch):
        # the intervals of one extension are integrated by one call of the
        # name the estimator module holds, and each kept row equals its
        # own one-interval call
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        random_biases(est, np.random.default_rng(8), 1e-2, 1e-3)
        calls = []

        def counting(imu, t0, t1, bias, cfg=None):
            calls.append(len(t0))
            return preintegrate(imu, t0, t1, bias, cfg)

        monkeypatch.setattr(velometer.estimator, "preintegrate", counting)
        est._extend_preints(0.7)
        n = len(est.intervals.pre.t0)
        assert calls == [n] and n > 7
        assert est.report.imu_intervals == n
        assert est.last_preint_end == est.intervals.pre.t1[-1] == 0.7
        pre = est.intervals.pre
        segs, _ = est.spline.segment_of(0.5 * (pre.t0 + pre.t1))
        for i, seg in enumerate(segs):
            row = slice(i, i + 1)
            one = preintegrate(est.imu, pre.t0[row], pre.t1[row],
                               est.spline.biases[[seg]], cfg.imu)
            np.testing.assert_array_equal(pre.bias_ref[row], one.bias_ref)
            for name in ("delta_v", "delta_q", "cov", "jac_dv_ba",
                         "jac_dv_bw", "jac_dq_bw"):
                want = getattr(one, name)
                np.testing.assert_allclose(getattr(pre, name)[row], want,
                                           rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("fault", ["gap", "uncovered"])
    def test_failing_extension_appends_nothing(self, fault):
        # a sample gap at 0.50-0.53 s, or IMU data that ends at 0.6 s: the
        # intervals before the bad one must not enter the window either
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        full = est.imu
        keep = ((full.t < 0.5) | (full.t > 0.53) if fault == "gap"
                else full.t <= 0.6)
        est.imu = ImuData(full.t[keep], full.accel[keep], full.gyro[keep])
        with pytest.raises(IntegrationError):
            est._extend_preints(0.7)
        assert len(est.intervals.pre.t0) == 0
        assert est.last_preint_end == 0.0
        assert est.report.imu_intervals == 0
        # with the data repaired the same span integrates from its start
        est.imu = full
        est._extend_preints(0.7)
        assert est.intervals.pre.t0[0] == 0.0 and est.last_preint_end == 0.7


class TestWindowBoundary:
    def test_batch_just_before_a_knot_leaves_the_window(self):
        # a batch stamped 0.5 ns before the knot at 0.5 s: once that knot is
        # the window start the batch lies outside the spline span, by more
        # than segment_of snaps, and must leave the window with it
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=2.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        for t in (0.1, 0.3, 0.5 - 5e-10, 0.7, 0.9, 1.1, 1.3, 1.55, 1.65):
            est.step(exact_observations(scene, traj, rig, t, count=40), t)
        assert est.status == "tracking"
        sp = est.spline
        assert sp.t_min > 0.5 - 1e-9
        assert 0.5 - 5e-10 not in est.flows.t
        assert np.all(sp.covers(est.flows.t)) and len(est.flows.t)
        assert np.all(sp.covers(est.intervals.pre.t0))


class TestWindowRows:
    def test_terms_built_once_and_kept_by_the_span(self, monkeypatch):
        # a 2.2 s corridor run with noisy IMU: after every step the stored
        # terms equal those recomputed from the inputs the span still
        # covers, and each row's geometry, covariance factor and gravity
        # were computed exactly once, when it entered the window
        cfg, rig, traj, scene = make_setup(duration=2.4)
        imu, _, _ = generate_imu(traj, cfg.imu, GRAVITY,
                                 np.random.default_rng(5))
        batches = [exact_observations(scene, traj, rig, t)
                   for t in np.arange(1, 12) * 0.2]
        cholesky = np.linalg.cholesky
        gravity = OrientationTrack.gravity_in_body
        calls = {"flow_rows": 0, "cholesky": 0, "gravity_in_body": 0}
        preints = []

        def counting(name, fn, rows):
            def wrapper(*args):
                calls[name] += rows(*args)
                return fn(*args)
            return wrapper

        def recording(*args):
            preints.append(preintegrate(*args))
            return preints[-1]

        monkeypatch.setattr(velometer.estimator, "flow_rows", counting(
            "flow_rows", flow_rows, lambda intr, xs, ys, d: len(xs)))
        monkeypatch.setattr(np.linalg, "cholesky", counting(
            "cholesky", cholesky, lambda a: len(a)))
        monkeypatch.setattr(OrientationTrack, "gravity_in_body", counting(
            "gravity_in_body", gravity, lambda track, t: len(t)))
        monkeypatch.setattr(velometer.estimator, "preintegrate", recording)

        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(imu)
        dropped = False
        for k, batch in enumerate(batches):
            est.step(batch, batch.t)
            assert est.status == "tracking"
            stepped = batches[:k + 1]
            assert calls["flow_rows"] == sum(len(b) for b in stepped)
            n_pre = sum(len(p.t0) for p in preints)
            assert calls["cholesky"] == calls["gravity_in_body"] == n_pre

            covers = est.spline.covers
            kept = [b for b in stepped if covers(b.t)]
            dropped |= len(kept) < len(stepped)
            a_rows, b_rows = (np.concatenate(m) for m in zip(*[
                flow_rows(rig.left, b.x, b.y, b.direction) for b in kept]))
            t, magnitude, depth, weight = (np.concatenate(m) for m in zip(*[
                (np.full(len(b), b.t), b.magnitude, b.depth, b.weight)
                for b in kept]))
            scale = weight / np.maximum(cfg.estimator.flow_sigma,
                                        cfg.estimator.flow_sigma_rel * magnitude)
            gyro = np.stack([imu.interp_gyro(b.t) for b in kept for _ in b.x])
            want = WindowFlows(
                t, -(a_rows / depth[:, None]) * scale[:, None],
                b_rows * scale[:, None],
                (magnitude - np.einsum("kc,kc->k", b_rows, gyro)) * scale)
            for f in dataclasses.fields(WindowFlows):
                np.testing.assert_array_equal(getattr(est.flows, f.name),
                                              getattr(want, f.name), f.name)

            pre = {f.name: np.concatenate([getattr(p, f.name) for p in
                                           [ImuConstants.empty().pre, *preints]])
                   for f in dataclasses.fields(Preintegration)}
            keep = covers(pre["t0"])
            pre = {name: rows[keep] for name, rows in pre.items()}
            got = est.intervals
            for name, rows in pre.items():
                np.testing.assert_array_equal(getattr(got.pre, name), rows, name)
            l_inv = np.linalg.inv(cholesky(pre["cov"] + DV_STD_FLOOR ** 2
                                           * np.eye(3)))
            np.testing.assert_array_equal(got.l_inv, l_inv)
            np.testing.assert_array_equal(
                got.g_hat, -gravity(est.orientation, pre["t0"]))
            np.testing.assert_array_equal(got.jac_ba, l_inv @ pre["jac_dv_ba"])
            np.testing.assert_array_equal(got.jac_bw0, l_inv @ pre["jac_dv_bw"])
        assert dropped


class TestDenseEquivalence:
    def test_step_matches_dense_reference(self, monkeypatch):
        # a 3 s corridor with noisy IMU on exact flows, once with the block
        # normal equations and once with the dense J^T J reference
        cfg, rig, traj, scene = make_setup(duration=3.0)
        imu, _, _ = generate_imu(traj, cfg.imu, GRAVITY,
                                 np.random.default_rng(7))
        times = np.arange(1, 15) * 0.2
        obs = [exact_observations(scene, traj, rig, t) for t in times]

        def run():
            est = Estimator(rig, cfg)
            est.set_initial_orientation(0.0, initial_quat(traj))
            est.feed_imu(imu)
            for t, batch in zip(times, obs):
                est.step(batch, t)
            est.finalize()
            return est.velocity_track()

        def dense(est, x, *spans):
            # the stepped batches the span still covers, as the window keeps them
            kept = [b for b in obs if est.report.init_time <= b.t
                    <= est.last_batch_t and est.spline.covers(b.t)]
            return reference_normal_equations(est, x, kept, window_preints(est))

        ts, vs = run()
        monkeypatch.setattr(Estimator, "_normal_equations", dense)
        ts_ref, vs_ref = run()
        assert len(ts) > 100 and np.array_equal(ts, ts_ref)
        assert np.abs(vs - vs_ref).max() <= 1e-6


class TestEmitVelocity:
    def test_first_samples_at_epoch_timestamps(self):
        # seconds since 1970, as dataio reads them from t_ns: the output
        # index must not walk up from t = 0, and the first sample falls on
        # t_min within the rounding of t - t0
        cfg = PipelineConfig()
        est = Estimator(default_rig(cfg.sim), cfg)
        dt = cfg.spline.knot_dt
        est.spline = VelocitySpline(1.7e9 - 3 * dt, dt,
                                    np.tile([1.0, 0.0, 0.0], (12, 1)))
        t_to = est.spline.t_min + 0.5
        est._emit_velocity(t_to)
        ts, vs = est.velocity_track()
        hz, lag = cfg.estimator.output_hz, cfg.estimator.output_lag
        assert len(ts) > 0
        assert ts[0] >= est.spline.t_min and ts[-1] <= t_to - lag
        assert np.allclose(np.diff(ts), 1.0 / hz, rtol=0, atol=1e-6)
        assert ts[0] < est.spline.t_min + 1.0 / hz
        assert np.allclose(vs, [1.0, 0.0, 0.0])


class TestInitFailure:
    def test_rank_deficient_reason_recorded(self):
        cfg, rig, traj, _ = make_setup("const-vel", speed=2.0, omega=None,
                                       duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, initial_quat(traj))
        est.feed_imu(generate_imu(traj, cfg.imu, GRAVITY, noise=False)[0])
        # four flows at one pixel along one direction: one constraint row
        k = 4
        flows = FlowBatch(0.1, np.full(k, 200), np.full(k, 100),
                          np.tile([1.0, 0.0], (k, 1)), np.full(k, 50.0),
                          np.zeros(k), depth=np.full(k, 2.0), weight=np.ones(k))
        assert est.step(flows, 0.1) is None
        assert est.status == "uninitialized"
        assert est.report.init_failure == "rank_deficient"
        assert "init_failure: rank_deficient" in est.report.to_text()
