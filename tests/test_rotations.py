"""Rotation helpers on stacks: leading axes in, the stack of single results out."""

import numpy as np
import pytest

from velometer.rotations import (hat, quat_from_rotvec, quat_mul,
                                 quat_normalize, quat_to_matrix,
                                 right_jacobian_so3)


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
