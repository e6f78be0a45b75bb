"""Camera/stereo geometry and the image motion-flow model.

Coordinate conventions used everywhere in this package:
  * camera/body frame: x right, y down, z forward (optical axis);
  * world frame: z up, gravity is (0, 0, -9.81) m/s^2;
  * the left camera frame coincides with the body (IMU) frame;
  * pixel coordinates are 0-based, x along columns, y along rows.

The image velocity of a static 3D point seen at pixel x with depth Z, for a
camera moving with body-frame linear velocity v and angular velocity w, is

    flow = A(x) @ v / Z + B(x) @ w

with A, B the 2x3 matrices returned by :func:`flow_matrices`. A normal-flow
measurement observes only the component along its unit direction n, one
linear constraint n^T A v / Z + n^T B w; :func:`flow_rows` computes its
rows n^T A and n^T B for many pixels at once.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CameraIntrinsics:
    """Rectified pinhole model with a single focal length."""

    f: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.f <= 0:
            raise ValueError(f"focal length must be positive, got {self.f}")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def contains(self, x, y):
        return 0 <= x < self.width and 0 <= y < self.height

    def project(self, p_cam):
        """Pixel coordinates of a camera-frame point; Z must be positive."""
        p = np.asarray(p_cam, dtype=float)
        if p[2] <= 0:
            raise ValueError("point is not in front of the camera")
        return np.array([self.f * p[0] / p[2] + self.cx,
                         self.f * p[1] / p[2] + self.cy])


@dataclass
class StereoRig:
    """Rectified horizontal stereo pair; left camera = body frame."""

    left: CameraIntrinsics
    right: CameraIntrinsics
    baseline: float

    def __post_init__(self):
        if self.baseline <= 0:
            raise ValueError("baseline must be positive")
        if (self.left.width, self.left.height) != (self.right.width, self.right.height):
            raise ValueError("left and right cameras must share resolution")


@dataclass
class BodyKinematics:
    """Instantaneous body-frame linear and angular velocity."""

    v: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.omega))):
            raise ValueError("kinematics must be finite")


def flow_matrices(intr: CameraIntrinsics, px):
    """Geometry matrices (A, B) of the motion-flow model at a pixel.

    A scales the translational term (divide by depth), B the rotational one.
    Both depend only on the pixel position and the intrinsics.
    """
    x, y = float(px[0]), float(px[1])
    if not intr.contains(x, y):
        raise ValueError(f"pixel ({x}, {y}) outside image bounds")
    f = intr.f
    xr = x - intr.cx
    yr = y - intr.cy
    a = np.array([[-f, 0.0, xr],
                  [0.0, -f, yr]])
    b = np.array([[xr * yr / f, -(f + xr * xr / f), yr],
                  [f + yr * yr / f, -xr * yr / f, -xr]])
    return a, b


def flow_rows(intr: CameraIntrinsics, xs, ys, directions):
    """Rows n^T A and n^T B of the projected-flow model, (K, 3) each.

    `xs`, `ys` are pixel coordinates (K,) and `directions` the unit normals
    (K, 2); row k equals n_k @ flow_matrices(intr, (xs[k], ys[k])).
    """
    xr = xs - intr.cx
    yr = ys - intr.cy
    f = intr.f
    nx, ny = directions[:, 0], directions[:, 1]
    a_rows = np.stack([-f * nx, -f * ny, nx * xr + ny * yr], axis=1)
    b_rows = np.stack([
        nx * xr * yr / f + ny * (f + yr * yr / f),
        -nx * (f + xr * xr / f) - ny * xr * yr / f,
        nx * yr - ny * xr,
    ], axis=1)
    return a_rows, b_rows


def motion_flow(intr: CameraIntrinsics, px, kin: BodyKinematics, depth: float):
    """Full image velocity (px/s) at a pixel for given kinematics and depth."""
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    a, b = flow_matrices(intr, px)
    return a @ kin.v / depth + b @ kin.omega
