"""Rotation helpers on stacks: leading axes in, the stack of single results out."""

import numpy as np
import pytest

from velometer.rotations import (hat, matrix_to_quat, quat_from_rotvec,
                                 quat_mul, quat_normalize, quat_to_matrix,
                                 quat_to_rotvec, right_jacobian_so3)


def rotvecs(rng, n=300):
    """Rotation vectors whose angles hit both small-angle branches
    (< 1e-12 for quat_from_rotvec, < 1e-8 for right_jacobian_so3)."""
    angles = rng.choice([0.0, 1e-14, 1e-13, 1e-10, 1e-9, 1e-7, 0.1, 1.0, 3.0],
                        size=n)
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True) * angles[:, None]


def quats(rng, n=300):
    return rng.normal(size=(n, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))


@pytest.mark.parametrize("fn", [hat, quat_from_rotvec, right_jacobian_so3])
def test_rotvec_stack_equals_single_results(fn):
    phi = rotvecs(np.random.default_rng(0))
    angles = np.linalg.norm(phi, axis=1)
    assert np.any(angles < 1e-12) and np.any((angles > 1e-12) & (angles < 1e-8))
    assert np.any(angles > 1e-8)
    stacked = fn(phi)
    np.testing.assert_array_equal(stacked, np.stack([fn(p) for p in phi]))
    # two leading axes
    np.testing.assert_array_equal(fn(phi.reshape(20, 15, 3)),
                                  stacked.reshape((20, 15) + stacked.shape[1:]))


@pytest.mark.parametrize("fn", [quat_normalize, quat_to_matrix])
def test_quat_stack_equals_single_results(fn):
    q = quats(np.random.default_rng(1))
    if fn is quat_to_matrix:
        q = quat_normalize(q)
    stacked = fn(q)
    np.testing.assert_array_equal(stacked, np.stack([fn(p) for p in q]))
    # strided rows, as quat_mul returns them
    np.testing.assert_array_equal(fn(np.asfortranarray(q)), stacked)
    np.testing.assert_array_equal(fn(q.reshape(20, 15, 4)),
                                  stacked.reshape((20, 15) + stacked.shape[1:]))


def test_quat_mul_stack_and_broadcast():
    rng = np.random.default_rng(2)
    a, b = quats(rng), quats(rng)
    np.testing.assert_array_equal(quat_mul(a, b),
                                  np.stack([quat_mul(p, q) for p, q in zip(a, b)]))
    np.testing.assert_array_equal(quat_mul(a, b[0]),
                                  np.stack([quat_mul(p, b[0]) for p in a]))
    np.testing.assert_array_equal(quat_mul(b[0], a),
                                  np.stack([quat_mul(b[0], p) for p in a]))


def test_small_angle_branches_taken():
    phi = np.array([[3e-13, 0.0, 0.0], [0.0, 5e-9, 0.0]])
    q = quat_from_rotvec(phi)
    np.testing.assert_array_equal(q[0], [1.0, 1.5e-13, 0.0, 0.0])
    jr = right_jacobian_so3(phi)
    np.testing.assert_array_equal(jr[1], np.eye(3) - 0.5 * hat(phi[1]))


def reference_matrix_to_quat(r):
    """One matrix at a time, as matrix_to_quat converted before it took
    stacks."""
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    return quat_normalize(q)


def reference_quat_to_rotvec(q):
    """One quaternion at a time, as quat_to_rotvec converted before it took
    stacks."""
    q = quat_normalize(q)
    if q[0] < 0:
        q = -q
    vec = q[1:]
    s = np.linalg.norm(vec)
    if s < 1e-12:
        return 2.0 * vec
    angle = 2.0 * np.arctan2(s, q[0])
    return angle * vec / s


def test_matrix_to_quat_stack_equals_single_results():
    # random rotations, plus turns near pi about each axis, whose trace is
    # negative with the largest diagonal entry on that axis
    rng = np.random.default_rng(3)
    phi = rotvecs(rng)
    near_pi = np.concatenate([np.eye(3) * a for a in (2.6, 3.0, np.pi)])
    r = quat_to_matrix(quat_from_rotvec(np.concatenate([phi, near_pi])))
    tr = np.trace(r, axis1=1, axis2=2)
    pivot = np.argmax(np.diagonal(r, axis1=1, axis2=2), axis=1)
    assert np.any(tr > 0)
    assert set(pivot[tr <= 0]) == {0, 1, 2}
    stacked = matrix_to_quat(r)
    np.testing.assert_array_equal(
        stacked, np.stack([reference_matrix_to_quat(m) for m in r]))
    np.testing.assert_array_equal(matrix_to_quat(r[5]), stacked[5])
    np.testing.assert_array_equal(matrix_to_quat(r[:300].reshape(20, 15, 3, 3)),
                                  stacked[:300].reshape(20, 15, 4))


def test_quat_to_rotvec_stack_equals_single_results():
    rng = np.random.default_rng(4)
    q = quat_from_rotvec(rotvecs(rng))
    q[::2] = -q[::2]                    # negative w on every other row
    q = np.concatenate([q, quats(rng)])
    vec = quat_normalize(q)[:, 1:]
    assert np.any(q[:, 0] < 0)
    assert np.any(np.linalg.norm(vec, axis=1) < 1e-12)
    stacked = quat_to_rotvec(q)
    np.testing.assert_array_equal(
        stacked, np.stack([reference_quat_to_rotvec(p) for p in q]))
    np.testing.assert_array_equal(quat_to_rotvec(q[7]), stacked[7])
    np.testing.assert_array_equal(quat_to_rotvec(q.reshape(40, 15, 4)),
                                  stacked.reshape(40, 15, 3))
