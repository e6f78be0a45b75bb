import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velometer.geometry import CameraIntrinsics, StereoRig, flow_rows
from velometer.rotations import hat

INTR = CameraIntrinsics(f=100.0, cx=173.0, cy=130.0, width=346, height=260)


def flow_matrices(px):
    """(A, B) at a pixel: the rows of flow_rows at n = (1, 0) and (0, 1)."""
    return flow_rows(INTR, np.full(2, px[0]), np.full(2, px[1]), np.eye(2))


def motion_flow(px, v, w, z):
    """Full image velocity A v / Z + B w (px/s) from flow_rows."""
    a, b = flow_matrices(px)
    return a @ np.asarray(v, float) / z + b @ np.asarray(w, float)


def exp_so3(phi):
    """Rotation matrix of a nonzero rotation vector (Rodrigues)."""
    angle = np.linalg.norm(phi)
    k = hat(phi / angle)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def project(p_cam):
    """Pixel coordinates of a camera-frame point in front of the camera."""
    return np.array([INTR.f * p_cam[0] / p_cam[2] + INTR.cx,
                     INTR.f * p_cam[1] / p_cam[2] + INTR.cy])


def scalar_flow(f, xr, yr, v, w, z):
    """Independent scalar expansion of the motion-flow model."""
    vx, vy, vz = v
    wx, wy, wz = w
    fx = (vz * xr - f * vx) / z + wx * xr * yr / f - wy * (f + xr * xr / f) + wz * yr
    fy = (vz * yr - f * vy) / z + wx * (f + yr * yr / f) - wy * xr * yr / f - wz * xr
    return np.array([fx, fy])


def test_pure_translation_at_principal_point():
    flow = motion_flow((INTR.cx, INTR.cy), [1.0, 0.0, 0.0], np.zeros(3), 2.0)
    assert np.allclose(flow, [-50.0, 0.0], atol=1e-12)


def test_pure_z_rotation():
    px = (INTR.cx + 10.0, INTR.cy + 20.0)
    flow = motion_flow(px, np.zeros(3), [0.0, 0.0, 1.0], 1.0)
    assert np.allclose(flow, [20.0, -10.0], atol=1e-12)


def test_matrix_form_matches_scalar_expansion():
    px = (INTR.cx + 5.0, INTR.cy - 3.0)
    v = np.array([0.2, -0.1, 0.5])
    w = np.array([0.1, -0.2, 0.3])
    z = 1.5
    expected = scalar_flow(INTR.f, 5.0, -3.0, v, w, z)
    assert np.allclose(motion_flow(px, v, w, z), expected, atol=1e-12)


def test_zero_kinematics_zero_flow():
    for px in [(10, 10), (173, 130), (300, 200)]:
        assert np.allclose(motion_flow(px, np.zeros(3), np.zeros(3), 3.0), 0.0)


def test_doubling_depth_halves_translational_flow():
    v = [0.3, -0.2, 0.7]
    px = (200.0, 90.0)
    f1 = motion_flow(px, v, np.zeros(3), 1.3)
    f2 = motion_flow(px, v, np.zeros(3), 2.6)
    assert np.allclose(f1, 2.0 * f2, rtol=1e-12)


def test_flow_matches_finite_difference_of_projection():
    # track a static world point from a camera translating at v, rotating at w
    v = np.array([0.4, -0.2, 0.9])
    w = np.array([0.05, -0.1, 0.2])
    p_cam0 = np.array([0.3, -0.2, 2.0])
    delta = 1e-6

    # camera pose at t: R(t) = exp(w t), p(t) = v t (body frame at t=0)
    px0 = project(p_cam0)
    fd = (project(exp_so3(w * delta).T @ (p_cam0 - v * delta)) - px0) / delta
    flow = motion_flow(px0, v, w, p_cam0[2])
    assert np.allclose(flow, fd, atol=1e-4)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1), st.floats(-1, 1))
def test_superposition_in_v_and_omega(vx, vz, wx, wz):
    px = (220.0, 70.0)
    z = 2.0
    v, w, zero = [vx, 0.1, vz], [wx, 0.05, wz], np.zeros(3)
    lhs = motion_flow(px, v, w, z)
    rhs = motion_flow(px, v, zero, z) + motion_flow(px, zero, w, z)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_projected_flow_consistency():
    # for any unit normal n, the rows n^T A and n^T B that flow_rows gives
    # for all pixels at once project the scalar expansion of the full flow
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(1, 345, 20), rng.uniform(1, 259, 20)
    v, w = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
    z = rng.uniform(0.5, 5.0, 20)
    n = rng.normal(size=(20, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    a_rows, b_rows = flow_rows(INTR, xs, ys, n)
    for k in range(20):
        full = scalar_flow(INTR.f, xs[k] - INTR.cx, ys[k] - INTR.cy,
                           v[k], w[k], z[k])
        got = a_rows[k] @ v[k] / z[k] + b_rows[k] @ w[k]
        assert abs(n[k] @ full - got) < 1e-9 * max(1.0, np.abs(full).max())


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
