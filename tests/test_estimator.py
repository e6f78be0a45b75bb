import numpy as np
import pytest

from velometer.config import PipelineConfig
from velometer.estimator import Estimator, huber_weights
from velometer.events import SequencingError
from velometer.imu import ImuBias, preintegrate
from velometer.normal_flow import FlowBatch
from velometer.rotations import matrix_to_quat
from velometer.simulator import (default_rig, exact_observations, make_scene,
                                 make_trajectory, ground_truth)
from velometer.spline import VelocitySpline

GRAVITY = np.array([0.0, 0.0, -9.81])


def make_setup(preset="corridor", speed=3.0, omega=0.8, duration=1.2,
               seed=3, **cfg_kw):
    cfg = PipelineConfig(**cfg_kw)
    cfg.sim.jitter_std = 0.0
    rig = default_rig(cfg.sim)
    traj = make_trajectory(preset, speed=speed, omega=omega, duration=duration)
    scene = make_scene(preset, traj, cfg.sim, np.random.default_rng(seed))
    return cfg, rig, traj, scene


def estimator_with_truth(cfg, rig, traj, t_end, knot0=0.0):
    """Estimator fed with ideal IMU, spline seeded from ground truth."""
    est = Estimator(rig, cfg)
    est.set_initial_orientation(0.0, matrix_to_quat(traj.rotation(0.0)))
    est.feed_imu(traj.ideal_imu(cfg.imu.rate_hz, GRAVITY))
    dt = cfg.spline.knot_dt
    n = int(np.ceil((t_end - knot0) / dt)) + 4
    cp = np.stack([traj.velocity_body(knot0 + dt * (i - 3) + 0.5 * dt)
                   for i in range(n)])
    est.spline = VelocitySpline(knot0 - 3 * dt, dt, cp)
    est.status = "initialized"
    est.last_preint_end = knot0
    return est


def fit_spline_to_truth(est, traj):
    """Least-squares fit of the control points to the true body velocity."""
    sp = est.spline
    ts = np.linspace(sp.t_min, sp.t_max - 1e-9, 40 * sp.num_segments)
    rows = np.zeros((len(ts), sp.num_controls))
    targets = np.zeros((len(ts), 3))
    for i, t in enumerate(ts):
        j, w = sp.weights(t)
        rows[i, j:j + 4] = w
        targets[i] = traj.velocity_body(t)
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
        for k in range(est.spline.num_segments):
            est.spline.biases[k] = ImuBias(rng.normal(0, 1e-3, 3),
                                           rng.normal(0, 1e-4, 3))
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
            est.spline.biases[j].gyro[axis] += eps
            r1, *_ = est.flow_residual_block(block)
            est.spline.biases[j].gyro[axis] -= eps
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
        pre = preintegrate(est.imu, 0.30, 0.33, ImuBias(), cfg.imu)
        r, *_ = est.imu_residual(pre)
        # unwhitened error is tiny; whitening divides by ~2e-4 std
        e = np.linalg.cholesky(pre.cov + 1e-10 * np.eye(3)) @ r
        assert np.linalg.norm(e) < 1e-4

    def test_jacobians_match_finite_differences(self):
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        rng = np.random.default_rng(1)
        est.spline.control_points += rng.normal(0, 0.4, est.spline.control_points.shape)
        for k in range(est.spline.num_segments):
            est.spline.biases[k] = ImuBias(rng.normal(0, 1e-2, 3),
                                           rng.normal(0, 1e-3, 3))
        pre = preintegrate(est.imu, 0.30, 0.33, ImuBias(), cfg.imu)
        r0, jc0, j0, jc1, j1, jb, seg = est.imu_residual(pre)
        eps = 1e-6

        def residual():
            r, *_ = est.imu_residual(pre)
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
            arr = est.spline.biases[seg].accel if axis < 3 else est.spline.biases[seg].gyro
            arr[axis % 3] += eps
            rp = residual()
            arr[axis % 3] -= 2 * eps
            rm = residual()
            arr[axis % 3] += eps
            fd = (rp - rm) / (2 * eps)
            assert np.allclose(jb[:, axis], fd, rtol=1e-4, atol=5e-4)

    def test_degenerate_interval_rejected(self):
        cfg, rig, traj, _ = make_setup(duration=0.8)
        est = estimator_with_truth(cfg, rig, traj, 0.8)
        pre = preintegrate(est.imu, 0.30, 0.3005, ImuBias(), cfg.imu)
        with pytest.raises(ValueError):
            est.imu_residual(pre)


class TestOptimize:
    def _tracking_estimator(self, duration=1.0, perturb=0.0, seed=0):
        cfg, rig, traj, scene = make_setup(duration=duration)
        est = estimator_with_truth(cfg, rig, traj, duration)
        fit_spline_to_truth(est, traj)
        for t in np.arange(0.1, duration, 0.1):
            est.flow_batches.append(exact_observations(scene, traj, rig, t,
                                                       count=30))
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
        # probe only where flow/IMU data exists; states beyond the last
        # observation are held by the anchor prior and cannot recover
        for t in np.arange(0.15, 0.86, 0.1):
            v = est.spline.velocity(t)
            assert np.linalg.norm(v - traj.velocity_body(t)) < 2e-3

    def test_accepted_steps_decrease_cost(self):
        est, _ = self._tracking_estimator(perturb=0.8)
        costs = []
        for _ in range(6):
            rep = est.optimize(max_iters=1)
            costs.append((rep.cost_before, rep.cost_after))
        for before, after in costs:
            assert after <= before + 1e-12

    def test_cost_invariant_to_residual_order(self):
        est, _ = self._tracking_estimator(perturb=0.3)
        x = est._pack()
        _, _, cost1 = est._assemble(x)
        est.flow_batches = est.flow_batches[::-1]
        est.preints = est.preints[::-1]
        _, _, cost2 = est._assemble(x)
        assert abs(cost1 - cost2) < 1e-12 * max(1.0, cost1)

    def test_gauge_locality_without_imu(self):
        # flows at one timestamp, no IMU residuals: only the active control
        # points may move
        est, _ = self._tracking_estimator(duration=1.0)
        est.flow_batches = est.flow_batches[4:5]
        est.preints = []
        t_active = est.flow_batches[0].t
        j_active, _ = est.spline.segment_of(t_active)
        before = est.spline.control_points.copy()
        est.optimize(max_iters=5)
        moved = np.linalg.norm(est.spline.control_points - before, axis=1)
        for idx in range(est.spline.num_controls):
            if idx < j_active or idx > j_active + 3:
                assert moved[idx] < 1e-6


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
        est.set_initial_orientation(0.0, matrix_to_quat(traj.rotation(0.0)))
        est.feed_imu(traj.ideal_imu(cfg.imu.rate_hz, GRAVITY))
        for t in np.arange(0.08, 3.0, 0.08):
            obs = exact_observations(scene, traj, rig, t, count=40)
            est.step(obs, t)
        assert est.status == "tracking"
        ts, vs = est.velocity_track()
        mask = ts > 0.3
        err = np.linalg.norm(vs[mask] - traj.velocity_body(0.0)[None, :], axis=1)
        speed = np.linalg.norm(traj.velocity_body(0.0))
        assert err.mean() < 0.05 * speed

    def test_imu_only_batches(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, matrix_to_quat(traj.rotation(0.0)))
        est.feed_imu(traj.ideal_imu(cfg.imu.rate_hz, GRAVITY))
        obs = exact_observations(scene, traj, rig, 0.1, count=40)
        est.step(obs, 0.1)
        rep = est.step(FlowBatch.empty(0.35), 0.35)  # texture gap: IMU only
        assert rep is not None and rep.converged
        v = est.spline.velocity(0.35)
        assert np.linalg.norm(v - traj.velocity_body(0.35)) < 0.05

    def test_out_of_order_batch_rejected(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, matrix_to_quat(traj.rotation(0.0)))
        est.feed_imu(traj.ideal_imu(cfg.imu.rate_hz, GRAVITY))
        obs = exact_observations(scene, traj, rig, 0.5, count=40)
        est.step(obs, 0.5)
        with pytest.raises(SequencingError):
            est.step(obs, 0.4)

    def test_initialization_failure_keeps_waiting(self):
        cfg, rig, traj, scene = make_setup("const-vel", speed=2.0, omega=None,
                                           duration=1.0)
        est = Estimator(rig, cfg)
        est.set_initial_orientation(0.0, matrix_to_quat(traj.rotation(0.0)))
        est.feed_imu(traj.ideal_imu(cfg.imu.rate_hz, GRAVITY))
        assert est.step(FlowBatch.empty(0.1), 0.1) is None
        assert est.status == "uninitialized"
        obs = exact_observations(scene, traj, rig, 0.3, count=40)
        est.step(obs, 0.3)
        assert est.status == "tracking"
