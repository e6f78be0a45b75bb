"""Minimal SO(3) / quaternion helpers.

Quaternions are stored as [w, x, y, z] (Hamilton convention). A quaternion
q_ab rotates vectors from frame b into frame a: v_a = R(q_ab) @ v_b.
Helpers whose docstring gives shapes as (..., k) take leading batch axes and
return, row for row, exactly what they return for one row.
"""

import numpy as np


def _matrices(m):
    """(3, 3, ...) built from component arrays -> (..., 3, 3)."""
    return m.transpose(*range(2, m.ndim), 0, 1)


def _norm(v):
    """Norm over the last axis, rounded as np.linalg.norm (contiguous rows)."""
    v = np.ascontiguousarray(v)
    return np.sqrt(np.vecdot(v, v))


def hat(v):
    """Skew-symmetric matrices, hat(a) @ b == cross(a, b); (..., 3) -> (..., 3, 3)."""
    x, y, z = np.rollaxis(np.asarray(v, dtype=float), -1)
    o = np.zeros_like(x)
    return _matrices(np.array([[o, -z, y], [z, o, -x], [-y, x, o]]))


def right_jacobian_so3(phi):
    """Right Jacobian, Exp(phi + d) ~ Exp(phi) Exp(Jr d); (..., 3) -> (..., 3, 3)."""
    phi = np.asarray(phi, dtype=float)
    angle = _norm(phi)[..., None, None]
    small = angle < 1e-8
    angle = np.where(small, 1.0, angle)
    k = hat(phi / angle[..., 0])
    s, c = np.sin(angle), np.cos(angle)
    jr = np.eye(3) - ((1.0 - c) / angle) * k + ((angle - s) / angle) * (k @ k)
    return np.where(small, np.eye(3) - 0.5 * hat(phi), jr)


def quat_identity():
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q):
    """Unit quaternions: (..., 4) -> (..., 4)."""
    return q / _norm(q)[..., None]


def quat_conj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_mul(q1, q2):
    """Hamilton product: (..., 4) x (..., 4) -> (..., 4), leading axes broadcast."""
    w1, x1, y1, z1 = np.rollaxis(q1, -1)
    w2, x2, y2, z2 = np.rollaxis(q2, -1)
    q = np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])
    return np.rollaxis(q, 0, q.ndim)


def quat_from_rotvec(phi):
    """Unit quaternions from rotation vectors: (..., 3) -> (..., 4)."""
    phi = np.asarray(phi, dtype=float)
    angle = _norm(phi)[..., None]
    small = angle < 1e-12
    angle = np.where(small, 1.0, angle)
    q = np.concatenate([np.cos(0.5 * angle), np.sin(0.5 * angle) * (phi / angle)],
                       axis=-1)
    # first-order expansion keeps unit norm to machine precision
    first = np.concatenate([np.ones_like(angle), 0.5 * phi], axis=-1)
    return np.where(small, quat_normalize(first), q)


def quat_to_rotvec(q):
    """Rotation vectors of quaternions, angles in [0, pi]: (..., 4) -> (..., 3)."""
    q = quat_normalize(q)
    q = np.where(q[..., :1] < 0, -q, q)
    vec = q[..., 1:]
    s = _norm(vec)[..., None]
    small = s < 1e-12
    angle = 2.0 * np.arctan2(s, q[..., :1])
    return np.where(small, 2.0 * vec, angle * vec / np.where(small, 1.0, s))


def quat_to_matrix(q):
    """Rotation matrices of unit quaternions: (..., 4) -> (..., 3, 3)."""
    w, x, y, z = np.rollaxis(q, -1)
    return _matrices(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]))


def quat_between(v_from, v_to):
    """Shortest-arc quaternion rotating unit vector v_from onto v_to."""
    a = np.asarray(v_from, dtype=float)
    b = np.asarray(v_to, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    c = np.cross(a, b)
    d = float(a @ b)
    if d < -1.0 + 1e-12:
        # opposite vectors: rotate pi about any axis orthogonal to a
        axis = np.cross(a, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(a, np.array([0.0, 1.0, 0.0]))
        axis = axis / np.linalg.norm(axis)
        return np.array([0.0, axis[0], axis[1], axis[2]])
    q = np.array([1.0 + d, c[0], c[1], c[2]])
    return quat_normalize(q)


def matrix_to_quat(r):
    """Quaternions [w, x, y, z] of rotation matrices by Shepperd's method:
    (..., 3, 3) -> (..., 4)."""
    r = np.asarray(r, dtype=float)
    tr = np.trace(r, axis1=-2, axis2=-1)
    # pivot on the trace when it is positive, else on the largest diagonal
    # entry r_ii (branch i)
    branch = np.where(tr > 0, 3,
                      np.argmax(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))
    q = np.empty(r.shape[:-2] + (4,))
    for b in range(4):
        sel = branch == b
        m = r[sel]
        part = np.empty((len(m), 4))
        if b == 3:
            s = np.sqrt(tr[sel] + 1.0) * 2.0
            part[:, 0] = 0.25 * s
            part[:, 1] = (m[:, 2, 1] - m[:, 1, 2]) / s
            part[:, 2] = (m[:, 0, 2] - m[:, 2, 0]) / s
            part[:, 3] = (m[:, 1, 0] - m[:, 0, 1]) / s
        else:
            i, j, k = b, (b + 1) % 3, (b + 2) % 3
            s = np.sqrt(np.maximum(m[:, i, i] - m[:, j, j] - m[:, k, k] + 1.0,
                                   0.0)) * 2.0
            part[:, 0] = (m[:, k, j] - m[:, j, k]) / s
            part[:, 1 + i] = 0.25 * s
            part[:, 1 + j] = (m[:, j, i] + m[:, i, j]) / s
            part[:, 1 + k] = (m[:, k, i] + m[:, i, k]) / s
        q[sel] = part
    return quat_normalize(q)


def axis_angle_matrices(axis, angles):
    """Batched rotation matrices about a fixed unit axis, one per angle."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    k = hat(axis)
    kk = k @ k
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    return np.eye(3)[None] + s * k[None] + (1.0 - c) * kk[None]
