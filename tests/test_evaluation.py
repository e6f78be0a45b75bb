import numpy as np
import pytest

from velometer.config import ImuConfig
from velometer.evaluation import (MetricError, VelocityTrack,
                                  align_and_compare, dead_reckon,
                                  gt_velocity_track, imu_dead_reckon)
from velometer.imu import OrientationTrack
from velometer.rotations import quat_from_rotvec, quat_identity, quat_to_matrix
from velometer.simulator import generate_imu, ground_truth, make_trajectory

GRAVITY = np.array([0.0, 0.0, -9.81])


def const_track(v, t0=0.0, t1=2.0, n=41):
    t = np.linspace(t0, t1, n)
    return VelocityTrack(t, np.tile(np.asarray(v, float), (n, 1)))


class TestVelocityTrack:
    def test_ground_truth_track_is_a_body_frame_copy(self):
        traj = make_trajectory("corridor", speed=2.0, omega=1.0, duration=1.0)
        gt = ground_truth(traj, rate=100.0)
        track = gt_velocity_track(gt)
        assert np.array_equal(track.t, gt.t)
        assert np.array_equal(track.v, gt.v_body)
        before = gt.v_body.copy()
        track.v[:] = 0.0
        assert np.array_equal(gt.v_body, before)

    def test_rejects_unsorted_or_non_finite(self):
        # two positional arguments, as the benchmark builds its tracks
        v = np.ones((3, 3))
        with pytest.raises(ValueError, match="sorted"):
            VelocityTrack([0.0, 0.2, 0.1], v)
        v[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            VelocityTrack([0.0, 0.1, 0.2], v)


class TestAlignAndCompare:
    def test_identical_tracks(self):
        gt = const_track([1.0, 0.5, -0.2])
        report = align_and_compare(gt, gt)
        assert np.allclose(report.ave, 0.0)
        assert np.allclose(report.rve, 0.0)

    def test_ten_percent_error(self):
        gt = const_track([1.0, 0.0, 0.0])
        est = const_track([1.1, 0.0, 0.0])
        report = align_and_compare(est, gt)
        assert np.allclose(report.rve, 10.0, atol=1e-9)

    def test_constant_offset_mean_ave(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 3, 100)
        v_gt = np.cumsum(rng.normal(0, 0.02, (100, 3)), axis=0) + [1.0, 0, 0]
        gt = VelocityTrack(t, v_gt)
        est = VelocityTrack(t, v_gt + np.array([0.09, 0.0, 0.0]))
        report = align_and_compare(est, gt)
        assert abs(report.mean_ave - 0.09) < 1e-12

    def test_low_speed_exclusion(self):
        t = np.linspace(0, 1, 11)
        v_gt = np.zeros((11, 3))
        v_gt[5:, 0] = 1.0
        gt = VelocityTrack(t, v_gt)
        est = VelocityTrack(t, v_gt + 0.01)
        report = align_and_compare(est, gt)
        assert len(report.rve) == 6   # samples with speed < 0.05 excluded

    def test_no_overlap(self):
        a = const_track([1, 0, 0], t0=0.0, t1=1.0)
        b = const_track([1, 0, 0], t0=2.0, t1=3.0)
        with pytest.raises(MetricError):
            align_and_compare(a, b)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 2, 60)
        v_gt = rng.normal(0, 1, (60, 3)) + [2, 0, 0]
        v_est = v_gt + rng.normal(0, 0.1, (60, 3))
        r = quat_to_matrix(quat_from_rotvec(np.array([0.3, -0.5, 0.8])))
        rep1 = align_and_compare(VelocityTrack(t, v_est), VelocityTrack(t, v_gt))
        rep2 = align_and_compare(VelocityTrack(t, v_est @ r.T),
                                 VelocityTrack(t, v_gt @ r.T))
        assert np.allclose(rep1.ave, rep2.ave, atol=1e-12)
        assert np.allclose(rep1.rve, rep2.rve, atol=1e-9)


class TestDeadReckon:
    def test_constant_velocity_identity_orientation(self):
        track = const_track([1.0, 0.0, 0.0], t0=0.0, t1=2.0, n=81)
        orient = OrientationTrack.from_samples(
            [0.0, 2.0], [quat_identity(), quat_identity()], GRAVITY)
        t, p = dead_reckon(track, orient, np.zeros(3))
        assert np.allclose(p[-1], [2.0, 0.0, 0.0], atol=1e-12)

    def test_circular_trajectory_closed_form(self):
        traj = make_trajectory("corridor", speed=2.0, omega=1.0, duration=3.0)
        gt = ground_truth(traj, rate=400.0)
        track = VelocityTrack(gt.t, gt.v_body)
        orient = OrientationTrack.from_samples(gt.t, gt.quat_wb, GRAVITY)
        _, p_true = traj.pose_batch(gt.t)
        t, p = dead_reckon(track, orient, p_true[0])
        for k in (len(t) // 2, len(t) - 1):
            assert np.linalg.norm(p[k] - p_true[k]) < 1e-3

    def test_trapezoid_second_order_convergence(self):
        traj = make_trajectory("corridor", speed=2.0, omega=1.0, duration=2.0)
        errs = []
        for rate in (100.0, 200.0):
            gt = ground_truth(traj, rate=rate)
            track = VelocityTrack(gt.t, gt.v_body)
            orient = OrientationTrack.from_samples(gt.t, gt.quat_wb, GRAVITY)
            _, p_true = traj.pose_batch(gt.t)
            t, p = dead_reckon(track, orient, p_true[0])
            errs.append(np.linalg.norm(p[-1] - p_true[-1]))
        assert errs[1] < errs[0] / 3.0   # ~4x for a 2nd-order rule

    def test_imu_double_integration_drifts_more(self):
        traj = make_trajectory("spin", speed=4.0, omega=8.0, duration=5.0)
        cfg = ImuConfig()
        imu, _, _ = generate_imu(traj, cfg, GRAVITY, np.random.default_rng(3))
        gt = ground_truth(traj, rate=cfg.rate_hz)
        q0 = gt.quat_wb[0]
        _, p_true = traj.pose_batch(gt.t)
        v0_world = traj.motion_batch(0.0)[0][0]
        # IMU-only double integration
        t_imu, p_imu, _, _ = imu_dead_reckon(imu, q0, v0_world, p_true[0],
                                             GRAVITY)
        assert np.array_equal(t_imu, gt.t)
        drift_imu = np.linalg.norm(p_imu[-1] - p_true[-1])
        # single integration of exact velocity with gyro-only orientation
        track = VelocityTrack(gt.t, gt.v_body)
        orient = OrientationTrack(imu.t[0], q0, GRAVITY)
        orient.extend(imu)
        t_v, p_v = dead_reckon(track, orient, p_true[0])
        drift_v = np.linalg.norm(p_v[-1] - p_true[-1])
        assert drift_v < drift_imu

    def test_coverage_gap(self):
        track = const_track([1, 0, 0], t0=0.0, t1=2.0)
        orient = OrientationTrack(0.5, quat_identity(), GRAVITY)
        with pytest.raises(MetricError):
            dead_reckon(track, orient, np.zeros(3))


class TestFrames:
    def test_reports_deterministic(self):
        gt = const_track([1.0, 0.2, 0.0])
        est = const_track([1.05, 0.18, 0.01])
        r1 = align_and_compare(est, gt)
        r2 = align_and_compare(est, gt)
        assert r1.to_text() == r2.to_text()
