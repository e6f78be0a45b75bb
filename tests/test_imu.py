import numpy as np
import pytest

from velometer.config import ImuConfig
from velometer.events import ImuData
from velometer.imu import (IntegrationError, OrientationTrack,
                           Preintegration, predicted_velocity_increment,
                           preintegrate, propagate_velocity_world,
                           split_intervals)
from velometer.rotations import (exp_so3, quat_from_rotvec, quat_identity,
                                 quat_mul, quat_normalize, quat_to_matrix,
                                 rotation_angle)
from velometer.simulator import generate_imu, make_trajectory

GRAVITY = np.array([0.0, 0.0, -9.81])
ZERO_BIAS = np.zeros(6)     # [accel | gyro]


def imu_stream(rate, duration, accel_fn, gyro_fn):
    t = np.arange(int(round(duration * rate)) + 1) / rate
    accel = np.stack([accel_fn(tk) for tk in t])
    gyro = np.stack([gyro_fn(tk) for tk in t])
    return ImuData(t, accel, gyro)


def smooth_signal(rng, amp, max_freq, n_terms=3):
    freqs = rng.uniform(0.2, max_freq, n_terms)
    phases = rng.uniform(0, 2 * np.pi, (n_terms, 3))
    amps = rng.uniform(0.2, 1.0, (n_terms, 3)) * amp

    def fn(t):
        return np.sum(amps * np.sin(2 * np.pi * freqs[:, None] * t + phases), axis=0)
    return fn


class TestPreintegrate:
    def test_constant_specific_force_no_rotation(self):
        imu = imu_stream(200.0, 0.03, lambda t: np.array([0, 0, 1.0]),
                         lambda t: np.zeros(3))
        pre = preintegrate(imu, 0.0, 0.03, ZERO_BIAS)
        assert np.allclose(pre.delta_v, [0, 0, 0.03], atol=1e-12)
        assert np.allclose(pre.delta_q, quat_identity(), atol=1e-12)

    def test_constant_rotation_closed_form(self):
        # pi rad/s about z for 0.5 s: quarter turn; body-frame accel (1,0,0)
        w = np.array([0.0, 0.0, np.pi])
        imu = imu_stream(2000.0, 0.5, lambda t: np.array([1.0, 0, 0]),
                         lambda t: w)
        pre = preintegrate(imu, 0.0, 0.5, ZERO_BIAS,
                           ImuConfig(rate_hz=2000.0))
        r_expected = exp_so3(w * 0.5)
        r_got = quat_to_matrix(pre.delta_q)
        assert rotation_angle(r_got.T @ r_expected) < 1e-6
        # integral of R_z(pi t) @ (1,0,0) dt over [0, 0.5]
        tt = 0.5
        expected = np.array([np.sin(np.pi * tt) / np.pi,
                             (1 - np.cos(np.pi * tt)) / np.pi, 0.0])
        assert np.allclose(pre.delta_v, expected, atol=1e-6)

    def test_midpoint_vs_dense_oracle(self):
        rng = np.random.default_rng(11)
        cfg = ImuConfig()
        for _ in range(20):
            acc_fn = smooth_signal(rng, amp=2.0, max_freq=1.0)
            gyr_fn = smooth_signal(rng, amp=0.3, max_freq=1.0)
            coarse = imu_stream(200.0, 0.03, acc_fn, gyr_fn)
            dense = imu_stream(2000.0, 0.03, acc_fn, gyr_fn)
            p1 = preintegrate(coarse, 0.0, 0.03, ZERO_BIAS, cfg)
            p2 = preintegrate(dense, 0.0, 0.03, ZERO_BIAS,
                              ImuConfig(rate_hz=2000.0))
            assert np.linalg.norm(p1.delta_v - p2.delta_v) < 1e-5
            r1 = quat_to_matrix(p1.delta_q)
            r2 = quat_to_matrix(p2.delta_q)
            assert rotation_angle(r1.T @ r2) < 1e-6

    def test_gap_detection(self):
        t = np.array([0.0, 0.005, 0.025, 0.03])
        imu = ImuData(t, np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(IntegrationError):
            preintegrate(imu, 0.0, 0.03, ZERO_BIAS)

    def test_no_coverage(self):
        imu = imu_stream(200.0, 0.02, lambda t: np.zeros(3), lambda t: np.zeros(3))
        with pytest.raises(IntegrationError):
            preintegrate(imu, 0.0, 0.05, ZERO_BIAS)

    def test_bias_consistency(self):
        # measurements generated with bias b, integrated with bias b ==
        # bias-free measurements integrated with zero bias
        rng = np.random.default_rng(3)
        bias = np.concatenate([rng.normal(0, 0.05, 3), rng.normal(0, 0.005, 3)])
        acc_fn = smooth_signal(rng, amp=1.0, max_freq=1.0)
        gyr_fn = smooth_signal(rng, amp=0.3, max_freq=1.0)
        clean = imu_stream(200.0, 0.03, acc_fn, gyr_fn)
        biased = ImuData(clean.t, clean.accel + bias[:3], clean.gyro + bias[3:])
        p_clean = preintegrate(clean, 0.0, 0.03, ZERO_BIAS)
        p_biased = preintegrate(biased, 0.0, 0.03, bias)
        assert np.allclose(p_clean.delta_v, p_biased.delta_v, atol=1e-9)
        assert np.allclose(p_clean.delta_q, p_biased.delta_q, atol=1e-9)

    def test_unit_quaternion_maintained(self):
        rng = np.random.default_rng(4)
        imu = imu_stream(200.0, 0.5, smooth_signal(rng, 2.0, 1.0),
                         smooth_signal(rng, 1.0, 1.0))
        pre = preintegrate(imu, 0.0, 0.5, ZERO_BIAS)
        assert abs(np.linalg.norm(pre.delta_q) - 1.0) < 1e-12

    def test_covariance_grows_with_duration(self):
        rng = np.random.default_rng(5)
        imu = imu_stream(200.0, 0.2, smooth_signal(rng, 1.0, 1.0),
                         smooth_signal(rng, 0.3, 1.0))
        traces = []
        for t1 in (0.03, 0.06, 0.12, 0.2):
            pre = preintegrate(imu, 0.0, t1, ZERO_BIAS)
            traces.append(np.trace(pre.cov))
        assert np.all(np.diff(traces) > 0)
        pre = preintegrate(imu, 0.0, 0.2, ZERO_BIAS)
        assert np.allclose(pre.cov, pre.cov.T)
        assert np.all(np.linalg.eigvalsh(pre.cov) >= -1e-18)

    def test_bias_jacobians_match_reintegration(self):
        rng = np.random.default_rng(6)
        acc_fn = smooth_signal(rng, amp=2.0, max_freq=1.0)
        gyr_fn = smooth_signal(rng, amp=0.5, max_freq=1.0)
        imu = imu_stream(200.0, 0.03, acc_fn, gyr_fn)
        pre = preintegrate(imu, 0.0, 0.03, ZERO_BIAS)
        db = 1e-4
        for axis in range(3):
            for offset in (0, 3):       # accel, gyro
                bias = np.zeros(6)
                bias[offset + axis] += db
                pre_b = preintegrate(imu, 0.0, 0.03, bias)
                dv_pred, dq_pred, _ = pre.corrected(bias)
                assert np.allclose(dv_pred, pre_b.delta_v, atol=1e-8)
                r_pred = quat_to_matrix(dq_pred)
                r_true = quat_to_matrix(pre_b.delta_q)
                assert rotation_angle(r_pred.T @ r_true) < 1e-7


class TestVelocityIncrement:
    def test_stationary_algebra(self):
        pre = Preintegration(
            t0=0.0, t1=0.1, delta_v=np.array([0, 0, -0.981]),
            delta_q=quat_identity(), cov=np.eye(3) * 1e-6,
            bias_ref=ZERO_BIAS, jac_dv_ba=np.zeros((3, 3)),
            jac_dv_bw=np.zeros((3, 3)), jac_dq_bw=np.zeros((3, 3)))
        g_body = np.array([0.0, 0.0, -9.81])
        res = predicted_velocity_increment(pre, np.zeros(3), np.zeros(3), g_body)
        # prediction is g*dt = (0,0,-0.981); residual zero iff delta_v matches
        assert np.allclose(res, 0.0, atol=1e-12)
        pre.delta_v = np.zeros(3)
        res = predicted_velocity_increment(pre, np.zeros(3), np.zeros(3), g_body)
        assert np.allclose(res, [0, 0, 0.981], atol=1e-12)

    def test_constant_velocity_zero_gravity(self):
        pre = Preintegration(
            t0=0.0, t1=0.1, delta_v=np.zeros(3), delta_q=quat_identity(),
            cov=np.eye(3) * 1e-6, bias_ref=ZERO_BIAS,
            jac_dv_ba=np.zeros((3, 3)), jac_dv_bw=np.zeros((3, 3)),
            jac_dq_bw=np.zeros((3, 3)))
        v = np.array([1.0, 0.0, 0.0])
        res = predicted_velocity_increment(pre, v, v, np.zeros(3))
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_simulator_consistency(self):
        # exact kinematics: camera on a circle, noise-free IMU; the measured
        # increment must match the prediction built from true velocities
        from velometer.config import SimConfig
        from velometer.simulator import make_trajectory
        traj = make_trajectory("corridor", speed=3.0, omega=0.8, duration=0.5)
        imu = traj.ideal_imu(200.0, GRAVITY)
        t0, t1 = 0.1, 0.13
        pre = preintegrate(imu, t0, t1, ZERO_BIAS)
        v0 = traj.velocity_body(t0)
        v1 = traj.velocity_body(t1)
        g_body = -traj.rotation(t0).T @ GRAVITY   # specific-force convention
        res = predicted_velocity_increment(pre, v0, v1, g_body)
        assert np.linalg.norm(res) < 1e-6


class TestPropagation:
    def test_chained_preintegrations_match_union(self):
        rng = np.random.default_rng(7)
        imu = imu_stream(200.0, 0.06, smooth_signal(rng, 2.0, 1.0),
                         smooth_signal(rng, 0.5, 1.0))
        pa = preintegrate(imu, 0.0, 0.03, ZERO_BIAS)
        pb = preintegrate(imu, 0.03, 0.06, ZERO_BIAS)
        pu = preintegrate(imu, 0.0, 0.06, ZERO_BIAS)
        gravity = GRAVITY
        r0 = np.eye(3)
        v0 = np.array([0.3, -0.1, 0.2])
        ra = r0 @ quat_to_matrix(pa.delta_q)
        v_mid = propagate_velocity_world(pa, v0, r0, gravity)
        v_chained = propagate_velocity_world(pb, v_mid, ra, gravity)
        v_union = propagate_velocity_world(pu, v0, r0, gravity)
        assert np.allclose(v_chained, v_union, atol=1e-5)
        q_chain = quat_mul(pa.delta_q, pb.delta_q)
        assert rotation_angle(quat_to_matrix(q_chain).T
                              @ quat_to_matrix(pu.delta_q)) < 1e-5


def reference_extend(track, imu):
    """`OrientationTrack.extend` with one `interp_gyro` call per sample, as
    the array interpolation replaces it."""
    t = track.t_end
    if imu.t[-1] <= t + 1e-12:
        return
    ts = np.concatenate([[t], imu.t[imu.t > t + 1e-12]])
    w = np.stack([imu.interp_gyro(min(max(tk, imu.t[0]), imu.t[-1]))
                  for tk in ts])
    w_mid = 0.5 * (w[:-1] + w[1:])
    q = track.quats[-1]
    quats = []
    for step in quat_from_rotvec(w_mid * np.diff(ts)[:, None]):
        q = quat_normalize(quat_mul(q, step))
        quats.append(q)
    track.times = np.concatenate([track.times, ts[1:]])
    track.quats = np.concatenate([track.quats, quats])
    track.rates = np.concatenate([track.rates, w_mid])


class TestOrientationTrack:
    def test_zero_rate_constant(self):
        imu = imu_stream(200.0, 1.0, lambda t: np.zeros(3), lambda t: np.zeros(3))
        track = OrientationTrack(0.0, quat_identity(), GRAVITY)
        track.extend(imu)
        for t in (0.1, 0.5, 0.99):
            assert np.allclose(track.quat(t), quat_identity(), atol=1e-12)

    def test_full_turn_matches_closed_form(self):
        imu = imu_stream(400.0, 2 * np.pi, lambda t: np.zeros(3),
                         lambda t: np.array([0, 0, 1.0]))
        track = OrientationTrack(0.0, quat_identity(), GRAVITY)
        track.extend(imu)
        t_end = imu.t[-1]
        r = track.rotation(t_end)
        assert rotation_angle(r.T @ exp_so3(np.array([0, 0, t_end]))) < 1e-6
        # near-complete turn: residual angle approximately 2*pi - t_end
        assert abs(rotation_angle(r) - (2 * np.pi - t_end)) < 1e-6

    def test_gravity_at_identity(self):
        track = OrientationTrack(0.0, quat_identity(), GRAVITY)
        assert np.allclose(track.gravity_in_body(0.0), GRAVITY)

    def test_out_of_span_query(self):
        track = OrientationTrack(0.0, quat_identity(), GRAVITY)
        with pytest.raises(ValueError):
            track.quat(1.0)

    def test_array_query_equals_single_queries(self):
        rng = np.random.default_rng(7)
        imu = imu_stream(200.0, 1.0, smooth_signal(rng, 1.0, 1.0),
                         smooth_signal(rng, 2.0, 1.0))
        track = OrientationTrack(0.0, quat_identity(), GRAVITY)
        track.extend(imu)
        # between samples, on samples, and at the end of the track
        ts = np.concatenate([rng.uniform(0.0, 1.0, 50), track.times[:5],
                             [track.t_end]])
        np.testing.assert_array_equal(track.quat(ts),
                                      np.stack([track.quat(t) for t in ts]))
        np.testing.assert_array_equal(
            track.gravity_in_body(ts),
            np.stack([track.gravity_in_body(t) for t in ts]))
        single = OrientationTrack(0.5, quat_identity(), GRAVITY)
        np.testing.assert_array_equal(single.quat(np.array([0.5, 0.5])),
                                      [quat_identity(), quat_identity()])

    def test_extend_matches_per_sample_interpolation(self):
        # 3 s of noisy spin IMU, appended in overlapping pieces from a start
        # before the first sample and from one between samples
        traj = make_trajectory("spin", duration=3.0)
        imu, _, _ = generate_imu(traj, ImuConfig(), GRAVITY,
                                 np.random.default_rng(2))
        pieces = [imu.slice(0.0, 1.0), imu.slice(0.5, 2.2), imu]
        for t0 in (-0.01, 0.0123):
            track = OrientationTrack(t0, quat_identity(), GRAVITY)
            ref = OrientationTrack(t0, quat_identity(), GRAVITY)
            for piece in pieces:
                track.extend(piece)
                reference_extend(ref, piece)
            np.testing.assert_array_equal(track.times, ref.times)
            np.testing.assert_array_equal(track.quats, ref.quats)
            np.testing.assert_array_equal(track.rates, ref.rates)

    def test_gravity_rotates_with_body(self):
        q = quat_from_rotvec(np.array([np.pi / 2, 0, 0]))   # roll 90 deg
        track = OrientationTrack(0.0, q, GRAVITY)
        g_b = track.gravity_in_body(0.0)
        assert np.allclose(g_b, quat_to_matrix(q).T @ GRAVITY, atol=1e-12)


def test_split_intervals_at_knots():
    knots = np.array([0.1, 0.2, 0.3])
    parts = split_intervals(0.0, 0.2, 0.03, knots)
    assert all(b > a for a, b in parts)
    assert abs(parts[0][0]) < 1e-12 and abs(parts[-1][1] - 0.2) < 1e-12
    for a, b in parts:
        assert b - a <= 0.03 + 1e-9
        inside = knots[(knots > a + 1e-9) & (knots < b - 1e-9)]
        assert len(inside) == 0
    # contiguous
    for (a0, b0), (a1, b1) in zip(parts, parts[1:]):
        assert abs(b0 - a1) < 1e-12
