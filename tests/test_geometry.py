import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velometer.geometry import (BodyKinematics, CameraIntrinsics, StereoRig,
                                flow_matrices, flow_rows, motion_flow)

INTR = CameraIntrinsics(f=100.0, cx=173.0, cy=130.0, width=346, height=260)


def scalar_flow(f, xr, yr, v, w, z):
    """Independent scalar expansion of the motion-flow model."""
    vx, vy, vz = v
    wx, wy, wz = w
    fx = (vz * xr - f * vx) / z + wx * xr * yr / f - wy * (f + xr * xr / f) + wz * yr
    fy = (vz * yr - f * vy) / z + wx * (f + yr * yr / f) - wy * xr * yr / f - wz * xr
    return np.array([fx, fy])


def test_pure_translation_at_principal_point():
    kin = BodyKinematics(v=[1.0, 0.0, 0.0], omega=[0.0, 0.0, 0.0])
    flow = motion_flow(INTR, (INTR.cx, INTR.cy), kin, 2.0)
    assert np.allclose(flow, [-50.0, 0.0], atol=1e-12)


def test_pure_z_rotation():
    kin = BodyKinematics(v=np.zeros(3), omega=[0.0, 0.0, 1.0])
    px = (INTR.cx + 10.0, INTR.cy + 20.0)
    flow = motion_flow(INTR, px, kin, 1.0)
    assert np.allclose(flow, [20.0, -10.0], atol=1e-12)


def test_matrix_form_matches_scalar_expansion():
    px = (INTR.cx + 5.0, INTR.cy - 3.0)
    v = np.array([0.2, -0.1, 0.5])
    w = np.array([0.1, -0.2, 0.3])
    z = 1.5
    kin = BodyKinematics(v=v, omega=w)
    expected = scalar_flow(INTR.f, 5.0, -3.0, v, w, z)
    assert np.allclose(motion_flow(INTR, px, kin, z), expected, atol=1e-12)


def test_zero_kinematics_zero_flow():
    kin = BodyKinematics(v=np.zeros(3), omega=np.zeros(3))
    for px in [(10, 10), (173, 130), (300, 200)]:
        assert np.allclose(motion_flow(INTR, px, kin, 3.0), 0.0)


def test_doubling_depth_halves_translational_flow():
    kin = BodyKinematics(v=[0.3, -0.2, 0.7], omega=np.zeros(3))
    px = (200.0, 90.0)
    f1 = motion_flow(INTR, px, kin, 1.3)
    f2 = motion_flow(INTR, px, kin, 2.6)
    assert np.allclose(f1, 2.0 * f2, rtol=1e-12)


def test_flow_matches_finite_difference_of_projection():
    # track a static world point from a camera translating at v, rotating at w
    v = np.array([0.4, -0.2, 0.9])
    w = np.array([0.05, -0.1, 0.2])
    p_cam0 = np.array([0.3, -0.2, 2.0])
    delta = 1e-6

    from velometer.rotations import exp_so3
    # camera pose at t: R(t) = exp(w t), p(t) = v t (body frame at t=0)
    def project(t):
        r = exp_so3(w * t)
        p_cam = r.T @ (p_cam0 - v * t)
        return INTR.project(p_cam)

    px0 = project(0.0)
    fd = (project(delta) - px0) / delta
    kin = BodyKinematics(v=v, omega=w)
    flow = motion_flow(INTR, px0, kin, p_cam0[2])
    assert np.allclose(flow, fd, atol=1e-4)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1), st.floats(-1, 1))
def test_superposition_in_v_and_omega(vx, vz, wx, wz):
    px = (220.0, 70.0)
    z = 2.0
    k1 = BodyKinematics(v=[vx, 0.1, vz], omega=np.zeros(3))
    k2 = BodyKinematics(v=np.zeros(3), omega=[wx, 0.05, wz])
    k12 = BodyKinematics(v=[vx, 0.1, vz], omega=[wx, 0.05, wz])
    lhs = motion_flow(INTR, px, k12, z)
    rhs = motion_flow(INTR, px, k1, z) + motion_flow(INTR, px, k2, z)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_projected_flow_consistency():
    # n^T flow equals n^T A v / Z + n^T B w exactly, and flow_rows gives the
    # same n^T A, n^T B rows for all pixels at once
    rng = np.random.default_rng(3)
    pixels, normals, expected_a, expected_b = [], [], [], []
    for _ in range(20):
        px = (rng.uniform(1, 345), rng.uniform(1, 259))
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        z = rng.uniform(0.5, 5.0)
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        a, b = flow_matrices(INTR, px)
        lhs = n @ motion_flow(INTR, px, BodyKinematics(v=v, omega=w), z)
        rhs = n @ a @ v / z + n @ b @ w
        assert abs(lhs - rhs) < 1e-12
        pixels.append(px)
        normals.append(n)
        expected_a.append(n @ a)
        expected_b.append(n @ b)
    xs, ys = np.array(pixels).T
    a_rows, b_rows = flow_rows(INTR, xs, ys, np.array(normals))
    assert np.allclose(a_rows, expected_a, rtol=1e-12, atol=1e-9)
    assert np.allclose(b_rows, expected_b, rtol=1e-12, atol=1e-9)


def test_out_of_bounds_pixel_rejected():
    with pytest.raises(ValueError):
        flow_matrices(INTR, (-1.0, 10.0))
    with pytest.raises(ValueError):
        flow_matrices(INTR, (10.0, 260.0))


def test_nonpositive_depth_rejected():
    kin = BodyKinematics(v=np.zeros(3), omega=np.zeros(3))
    with pytest.raises(ValueError):
        motion_flow(INTR, (100, 100), kin, 0.0)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(f=-1.0, cx=10, cy=10, width=100, height=100)
    with pytest.raises(ValueError):
        CameraIntrinsics(f=100.0, cx=200, cy=10, width=100, height=100)


def test_rig_validation():
    a = CameraIntrinsics(f=100.0, cx=50, cy=50, width=100, height=100)
    b = CameraIntrinsics(f=100.0, cx=60, cy=60, width=120, height=120)
    with pytest.raises(ValueError):
        StereoRig(left=a, right=b, baseline=0.1)
    with pytest.raises(ValueError):
        StereoRig(left=a, right=a, baseline=0.0)
