import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velometer.config import ImuConfig
from velometer.events import ImuData
from velometer.imu import (IntegrationError, OrientationTrack,
                           Preintegration, preintegrate, split_intervals)
from velometer.rotations import (hat, quat_from_rotvec, quat_identity,
                                 quat_mul, quat_normalize, quat_to_matrix,
                                 right_jacobian_so3)
from velometer.simulator import generate_imu, make_trajectory

GRAVITY = np.array([0.0, 0.0, -9.81])
ZERO_BIAS = np.zeros(6)     # [accel | gyro]


def exp_so3(phi):
    """Rotation matrix from a rotation vector (Rodrigues, small-angle safe)."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    if angle < 1e-10:
        return np.eye(3) + hat(phi)
    k = hat(phi / angle)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_angle(r):
    """Angle in radians of a rotation matrix (0..pi)."""
    return float(np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)))


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


def preintegrate_one(imu, t0, t1, bias, cfg=None):
    """The one interval [t0, t1], integrated as a stack of one and unstacked."""
    pre = preintegrate(imu, np.array([t0]), np.array([t1]), np.array([bias]),
                       cfg)
    return Preintegration(**{f.name: getattr(pre, f.name)[0]
                             for f in fields(pre)})


class TestPreintegrate:
    def test_constant_specific_force_no_rotation(self):
        imu = imu_stream(200.0, 0.03, lambda t: np.array([0, 0, 1.0]),
                         lambda t: np.zeros(3))
        pre = preintegrate_one(imu, 0.0, 0.03, ZERO_BIAS)
        assert np.allclose(pre.delta_v, [0, 0, 0.03], atol=1e-12)
        assert np.allclose(pre.delta_q, quat_identity(), atol=1e-12)

    def test_constant_rotation_closed_form(self):
        # pi rad/s about z for 0.5 s: quarter turn; body-frame accel (1,0,0)
        w = np.array([0.0, 0.0, np.pi])
        imu = imu_stream(2000.0, 0.5, lambda t: np.array([1.0, 0, 0]),
                         lambda t: w)
        pre = preintegrate_one(imu, 0.0, 0.5, ZERO_BIAS,
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
            p1 = preintegrate_one(coarse, 0.0, 0.03, ZERO_BIAS, cfg)
            p2 = preintegrate_one(dense, 0.0, 0.03, ZERO_BIAS,
                                  ImuConfig(rate_hz=2000.0))
            assert np.linalg.norm(p1.delta_v - p2.delta_v) < 1e-5
            r1 = quat_to_matrix(p1.delta_q)
            r2 = quat_to_matrix(p2.delta_q)
            assert rotation_angle(r1.T @ r2) < 1e-6

    def test_gap_detection(self):
        t = np.array([0.0, 0.005, 0.025, 0.03])
        imu = ImuData(t, np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(IntegrationError):
            preintegrate_one(imu, 0.0, 0.03, ZERO_BIAS)

    def test_no_coverage(self):
        imu = imu_stream(200.0, 0.02, lambda t: np.zeros(3), lambda t: np.zeros(3))
        with pytest.raises(IntegrationError):
            preintegrate_one(imu, 0.0, 0.05, ZERO_BIAS)

    def test_bias_consistency(self):
        # measurements generated with bias b, integrated with bias b ==
        # bias-free measurements integrated with zero bias
        rng = np.random.default_rng(3)
        bias = np.concatenate([rng.normal(0, 0.05, 3), rng.normal(0, 0.005, 3)])
        acc_fn = smooth_signal(rng, amp=1.0, max_freq=1.0)
        gyr_fn = smooth_signal(rng, amp=0.3, max_freq=1.0)
        clean = imu_stream(200.0, 0.03, acc_fn, gyr_fn)
        biased = ImuData(clean.t, clean.accel + bias[:3], clean.gyro + bias[3:])
        p_clean = preintegrate_one(clean, 0.0, 0.03, ZERO_BIAS)
        p_biased = preintegrate_one(biased, 0.0, 0.03, bias)
        assert np.allclose(p_clean.delta_v, p_biased.delta_v, atol=1e-9)
        assert np.allclose(p_clean.delta_q, p_biased.delta_q, atol=1e-9)

    def test_unit_quaternion_maintained(self):
        rng = np.random.default_rng(4)
        imu = imu_stream(200.0, 0.5, smooth_signal(rng, 2.0, 1.0),
                         smooth_signal(rng, 1.0, 1.0))
        pre = preintegrate_one(imu, 0.0, 0.5, ZERO_BIAS)
        assert abs(np.linalg.norm(pre.delta_q) - 1.0) < 1e-12

    def test_covariance_grows_with_duration(self):
        rng = np.random.default_rng(5)
        imu = imu_stream(200.0, 0.2, smooth_signal(rng, 1.0, 1.0),
                         smooth_signal(rng, 0.3, 1.0))
        traces = []
        for t1 in (0.03, 0.06, 0.12, 0.2):
            pre = preintegrate_one(imu, 0.0, t1, ZERO_BIAS)
            traces.append(np.trace(pre.cov))
        assert np.all(np.diff(traces) > 0)
        pre = preintegrate_one(imu, 0.0, 0.2, ZERO_BIAS)
        assert np.allclose(pre.cov, pre.cov.T)
        assert np.all(np.linalg.eigvalsh(pre.cov) >= -1e-18)

    def test_bias_jacobians_match_reintegration(self):
        rng = np.random.default_rng(6)
        acc_fn = smooth_signal(rng, amp=2.0, max_freq=1.0)
        gyr_fn = smooth_signal(rng, amp=0.5, max_freq=1.0)
        imu = imu_stream(200.0, 0.03, acc_fn, gyr_fn)
        pre = preintegrate_one(imu, 0.0, 0.03, ZERO_BIAS)
        db = 1e-4
        for axis in range(3):
            for offset in (0, 3):       # accel, gyro
                bias = np.zeros(6)
                bias[offset + axis] += db
                pre_b = preintegrate_one(imu, 0.0, 0.03, bias)
                dv_pred, dq_pred, _ = pre.corrected(bias)
                assert np.allclose(dv_pred, pre_b.delta_v, atol=1e-8)
                r_pred = quat_to_matrix(dq_pred)
                r_true = quat_to_matrix(pre_b.delta_q)
                assert rotation_angle(r_pred.T @ r_true) < 1e-7


def reference_boundary_samples(imu, t0, t1, max_gap):
    """Samples covering [t0, t1] of one interval, with interpolated
    endpoints when needed, as the one-interval loop gathered them."""
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


def reference_preintegrate(imu, t0, t1, bias, cfg=None):
    """One interval, integrated by a Python loop over its samples: the
    arithmetic the batched preintegrate replaces."""
    cfg = cfg or ImuConfig()
    if t1 <= t0:
        raise IntegrationError("interval must have positive duration")
    max_gap = cfg.max_gap_factor / cfg.rate_hz
    ts, acc, gyr = reference_boundary_samples(imu, t0, t1, max_gap)
    bias = np.array(bias, dtype=float)

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
    cov6 = np.zeros((6, 6))
    var_a = cfg.acc_noise ** 2
    var_w = cfg.gyro_noise ** 2
    r1 = quat_to_matrix(q)

    for k, dt in enumerate(dts):
        if dt <= 0:
            continue
        q = quat_normalize(quat_mul(q, q_steps[k]))
        r0, r1 = r1, quat_to_matrix(q)
        dv += 0.5 * (r0 @ acc[k] + r1 @ acc[k + 1]) * dt
        j_phi_bw_next = step_rots_t[k] @ j_phi_bw - jrs[k] * dt
        j_dv_ba += -0.5 * (r0 + r1) * dt
        j_dv_bw += -0.5 * (r0 @ acc_hats[k] @ j_phi_bw
                           + r1 @ acc_hats[k + 1] @ j_phi_bw_next) * dt
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


def noisy_imu(duration=1.0, t_offset=0.0, seed=2):
    """Noisy 200 Hz spin IMU, timestamps shifted by t_offset."""
    traj = make_trajectory("spin", duration=duration)
    imu, _, _ = generate_imu(traj, ImuConfig(), GRAVITY,
                             np.random.default_rng(seed))
    return ImuData(imu.t + t_offset, imu.accel, imu.gyro)


def random_bias_rows(n, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0, 0.05, (n, 3)),
                           rng.normal(0, 0.005, (n, 3))], axis=1)


def assert_matches_reference(imu, t0, t1, bias, cfg=None):
    """The stacked preintegrate of all intervals against the one-interval
    loop of each: every field to rtol 1e-12, atol 1e-12 * max|field|."""
    got = preintegrate(imu, t0, t1, bias, cfg)
    want = [reference_preintegrate(imu, a, b, row, cfg)
            for a, b, row in zip(t0, t1, bias)]
    for f in fields(Preintegration):
        g = getattr(got, f.name)
        w = np.array([getattr(p, f.name) for p in want])
        assert g.shape == w.shape, f.name
        np.testing.assert_allclose(g, w, rtol=1e-12,
                                   atol=1e-12 * np.abs(w).max(),
                                   err_msg=f.name)
    return got


# offsets from a sample time: on it, within the 1e-12 s that counts as on
# it (either side), and between samples (5 ms apart)
OFFSETS = [0.0, -5e-13, 5e-13, 3e-4, 1.7e-3, 2.5e-3]


class TestBatchedMatchesReference:
    def test_ends_on_and_between_samples(self):
        imu = noisy_imu()
        # on samples (multiples of 5 ms), between them, one end of each
        t0 = np.array([0.1, 0.2013, 0.3, 0.4077, 0.5])
        t1 = np.array([0.13, 0.2291, 0.3333, 0.435, 0.535])
        assert_matches_reference(imu, t0, t1, random_bias_rows(5, 1))

    def test_ends_within_rounding_of_samples(self):
        # just before / after the samples at 0.1, 0.13, 0.2 and 0.235 s
        imu = noisy_imu()
        t0 = np.array([0.1 - 5e-13, 0.2 + 5e-13])
        t1 = np.array([0.13 + 5e-13, 0.235 - 5e-13])
        assert_matches_reference(imu, t0, t1, random_bias_rows(2, 9))

    def test_no_inner_sample(self):
        imu = noisy_imu()
        # both ends strictly between the samples at 0.250 and 0.255 s
        t0 = np.array([0.2501, 0.6012, 0.1])
        t1 = np.array([0.2549, 0.6039, 0.13])
        assert_matches_reference(imu, t0, t1, random_bias_rows(3, 2))

    def test_different_sample_counts(self):
        imu = noisy_imu()
        t0 = np.array([0.1, 0.2, 0.30003, 0.6, 0.9])
        t1 = np.array([0.1021, 0.23, 0.4, 0.6049, 0.99])
        pre = assert_matches_reference(imu, t0, t1, random_bias_rows(5, 3))
        assert len(pre.t0) == 5

    def test_repeated_timestamps(self):
        # every fourth sample appears twice, with a different reading, so
        # some steps have dt == 0; interval ends fall on repeated samples
        imu = noisy_imu()
        rep = np.repeat(np.arange(len(imu)), np.where(np.arange(len(imu)) % 4, 1, 2))
        rng = np.random.default_rng(4)
        dup = ImuData(imu.t[rep], imu.accel[rep] + rng.normal(0, 0.1, (len(rep), 3)),
                      imu.gyro[rep] + rng.normal(0, 0.01, (len(rep), 3)))
        assert np.any(np.diff(dup.t) == 0)
        t0 = np.array([0.1, 0.12, 0.2013, 0.4, 0.02])
        t1 = np.array([0.12, 0.16, 0.24, 0.4107, 0.06])
        assert_matches_reference(dup, t0, t1, random_bias_rows(5, 5))

    def test_unix_epoch_times(self):
        t_offset = 1.7e9
        imu = noisy_imu(t_offset=t_offset)
        t0 = t_offset + np.array([0.1, 0.2013, 0.3, 0.6012])
        t1 = t_offset + np.array([0.13, 0.2291, 0.33, 0.6039])
        assert_matches_reference(imu, t0, t1, random_bias_rows(4, 6))

    def test_one_interval(self):
        imu = noisy_imu()
        bias = random_bias_rows(1, 7)
        pre = assert_matches_reference(imu, np.array([0.2013]),
                                       np.array([0.2291]), bias)
        assert pre.delta_v.shape == (1, 3)

    def test_noise_free_config(self):
        imu = noisy_imu()
        cfg = ImuConfig(acc_noise=0.0, gyro_noise=0.0)
        pre = assert_matches_reference(imu, np.array([0.1, 0.2]),
                                       np.array([0.13, 0.23]),
                                       random_bias_rows(2, 8), cfg)
        assert not np.any(pre.cov)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 180), st.sampled_from(OFFSETS),
                              st.integers(1, 40), st.sampled_from(OFFSETS)),
                    min_size=1, max_size=12),
           st.sampled_from([0.0, 1.7e9]))
    def test_random_batches(self, spans, t_offset):
        # intervals start on a sample, within 1e-12 s of one (on either
        # side) or between samples, and end likewise 1 to 40 samples later
        imu = noisy_imu(duration=1.5, t_offset=t_offset)
        t0 = np.array([imu.t[i] + a for i, a, _, _ in spans])
        t1 = np.array([imu.t[i + n] + b for i, _, n, b in spans])
        assert_matches_reference(imu, t0, t1, random_bias_rows(len(spans), len(spans)))


def test_batch_copies_only_the_samples_it_reads():
    # ten minutes of 200 Hz data (0.96 MB per axis): integrating a 0.2 s
    # step, end interpolation included, must not copy the whole stream
    rng = np.random.default_rng(10)
    n = 600 * 200 + 1
    imu = ImuData(np.arange(n) / 200.0, rng.normal(0, 1, (n, 3)),
                  rng.normal(0, 0.1, (n, 3)))
    t0 = 300.0 + np.arange(8) * 0.025
    preintegrate(imu, t0, t0 + 0.025, np.zeros((8, 6)))
    tracemalloc.start()
    preintegrate(imu, t0, t0 + 0.025, np.zeros((8, 6)))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 200_000


class TestBatchedErrors:
    def test_uncovered_interval(self):
        imu = noisy_imu(duration=0.5)
        with pytest.raises(IntegrationError, match="does not cover"):
            preintegrate(imu, np.array([0.1, 0.45]), np.array([0.13, 0.55]),
                         np.zeros((2, 6)))

    def test_gap_in_one_interval(self):
        imu = noisy_imu(duration=0.5)
        keep = (imu.t < 0.3) | (imu.t > 0.32)
        gapped = ImuData(imu.t[keep], imu.accel[keep], imu.gyro[keep])
        with pytest.raises(IntegrationError, match="gap"):
            preintegrate(gapped, np.array([0.1, 0.2, 0.29]),
                         np.array([0.13, 0.23, 0.33]), np.zeros((3, 6)))

    def test_non_positive_duration(self):
        imu = noisy_imu(duration=0.5)
        with pytest.raises(IntegrationError, match="positive duration"):
            preintegrate(imu, np.array([0.1, 0.2]), np.array([0.13, 0.2]),
                         np.zeros((2, 6)))


class TestArrayInterpolation:
    def test_scalar_bits_unchanged(self):
        imu = noisy_imu(duration=0.5)
        for t in (0.0, 0.1234, 0.25, imu.t[-1]):
            for got, values in ((imu.interp_gyro(t), imu.gyro),
                                (imu.interp_accel(t), imu.accel)):
                want = np.array([np.interp(t, imu.t, values[:, k])
                                 for k in range(3)])
                assert got.shape == (3,)
                assert got.tobytes() == want.tobytes()

    def test_array_equals_scalar_calls(self):
        imu = noisy_imu(duration=0.5, t_offset=1.7e9)
        ts = np.concatenate([imu.t[:7], 1.7e9 + np.linspace(0.0, 0.5, 23)])
        np.testing.assert_array_equal(
            imu.interp_gyro(ts), np.stack([imu.interp_gyro(t) for t in ts]))
        np.testing.assert_array_equal(
            imu.interp_accel(ts), np.stack([imu.interp_accel(t) for t in ts]))

    def test_repeated_timestamps_read_as_the_whole_stream(self):
        # times on repeated samples, between them, and at both stream ends,
        # queried alone and in groups, against np.interp over every sample
        imu = noisy_imu(duration=0.5)
        rep = np.repeat(np.arange(len(imu)), np.where(np.arange(len(imu)) % 3, 1, 3))
        rng = np.random.default_rng(11)
        dup = ImuData(imu.t[rep], imu.accel[rep] + rng.normal(0, 0.1, (len(rep), 3)),
                      imu.gyro[rep])
        ts = np.concatenate([dup.t[:9], [0.0123, 0.2, 0.2013, 0.45], dup.t[-4:]])
        want = np.stack([np.interp(ts, dup.t, dup.accel[:, k]) for k in range(3)],
                        axis=1)
        for group in (slice(None), slice(0, 5), slice(9, 13), slice(-3, None)):
            np.testing.assert_array_equal(dup.interp_accel(ts[group]), want[group])
        for t, row in zip(ts, want):
            assert dup.interp_accel(t).tobytes() == row.tobytes()

    def test_coverage(self):
        imu = noisy_imu(duration=0.5)
        with pytest.raises(ValueError, match="outside IMU coverage"):
            imu.interp_gyro(np.array([0.1, 0.6]))
        with pytest.raises(ValueError, match="outside IMU coverage"):
            imu.interp_accel(-0.1)


def reference_velocity_increment(pre, v_start, v_end, g_body_start):
    """Measured delta_v minus the increment predicted from body-frame
    velocities at both interval ends and the gravity term in the start
    frame: R(delta_q) @ v_end + g_body_start * dt - v_start."""
    predicted = (quat_to_matrix(pre.delta_q) @ np.asarray(v_end, float)
                 + np.asarray(g_body_start, float) * pre.dt
                 - np.asarray(v_start, float))
    return pre.delta_v - predicted


def reference_velocity_world(pre, v_world_start, r_wb_start, gravity_world):
    """World-frame velocity at the interval end from the start state."""
    return (np.asarray(v_world_start, float)
            + np.asarray(gravity_world, float) * pre.dt
            + r_wb_start @ pre.delta_v)


class TestVelocityIncrement:
    def test_stationary_algebra(self):
        pre = Preintegration(
            t0=0.0, t1=0.1, delta_v=np.array([0, 0, -0.981]),
            delta_q=quat_identity(), cov=np.eye(3) * 1e-6,
            bias_ref=ZERO_BIAS, jac_dv_ba=np.zeros((3, 3)),
            jac_dv_bw=np.zeros((3, 3)), jac_dq_bw=np.zeros((3, 3)))
        g_body = np.array([0.0, 0.0, -9.81])
        res = reference_velocity_increment(pre, np.zeros(3), np.zeros(3), g_body)
        # prediction is g*dt = (0,0,-0.981); residual zero iff delta_v matches
        assert np.allclose(res, 0.0, atol=1e-12)
        pre.delta_v = np.zeros(3)
        res = reference_velocity_increment(pre, np.zeros(3), np.zeros(3), g_body)
        assert np.allclose(res, [0, 0, 0.981], atol=1e-12)

    def test_constant_velocity_zero_gravity(self):
        pre = Preintegration(
            t0=0.0, t1=0.1, delta_v=np.zeros(3), delta_q=quat_identity(),
            cov=np.eye(3) * 1e-6, bias_ref=ZERO_BIAS,
            jac_dv_ba=np.zeros((3, 3)), jac_dv_bw=np.zeros((3, 3)),
            jac_dq_bw=np.zeros((3, 3)))
        v = np.array([1.0, 0.0, 0.0])
        res = reference_velocity_increment(pre, v, v, np.zeros(3))
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_simulator_consistency(self):
        # exact kinematics: camera on a circle, noise-free IMU; the measured
        # increment must match the prediction built from true velocities
        from velometer.config import SimConfig
        from velometer.simulator import body_motion, make_trajectory
        traj = make_trajectory("corridor", speed=3.0, omega=0.8, duration=0.5)
        imu, _, _ = generate_imu(traj, ImuConfig(rate_hz=200.0), GRAVITY,
                                 noise=False)
        t0, t1 = 0.1, 0.13
        pre = preintegrate_one(imu, t0, t1, ZERO_BIAS)
        rs, (v0, v1), _, _ = body_motion(traj, [t0, t1])
        g_body = -rs[0].T @ GRAVITY   # specific-force convention
        res = reference_velocity_increment(pre, v0, v1, g_body)
        assert np.linalg.norm(res) < 1e-6


class TestPropagation:
    def test_chained_preintegrations_match_union(self):
        rng = np.random.default_rng(7)
        imu = imu_stream(200.0, 0.06, smooth_signal(rng, 2.0, 1.0),
                         smooth_signal(rng, 0.5, 1.0))
        pa = preintegrate_one(imu, 0.0, 0.03, ZERO_BIAS)
        pb = preintegrate_one(imu, 0.03, 0.06, ZERO_BIAS)
        pu = preintegrate_one(imu, 0.0, 0.06, ZERO_BIAS)
        gravity = GRAVITY
        r0 = np.eye(3)
        v0 = np.array([0.3, -0.1, 0.2])
        ra = r0 @ quat_to_matrix(pa.delta_q)
        v_mid = reference_velocity_world(pa, v0, r0, gravity)
        v_chained = reference_velocity_world(pb, v_mid, ra, gravity)
        v_union = reference_velocity_world(pu, v0, r0, gravity)
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
