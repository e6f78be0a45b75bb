"""Camera/stereo geometry and the image motion-flow model.

Coordinate conventions used everywhere in this package:
  * camera/body frame: x right, y down, z forward (optical axis);
  * world frame: z up, gravity is (0, 0, -9.81) m/s^2;
  * the left camera frame coincides with the body (IMU) frame;
  * pixel coordinates are 0-based, x along columns, y along rows.

The image velocity of a static 3D point seen at pixel x with depth Z, for a
camera moving with body-frame linear velocity v and angular velocity w, is

    flow = A(x) @ v / Z + B(x) @ w

with A, B 2x3 matrices that depend only on the pixel and the intrinsics
(xr = x - cx, yr = y - cy):

    A = [[-f, 0, xr],        B = [[xr yr / f, -(f + xr^2 / f),  yr],
         [0, -f, yr]]             [f + yr^2 / f,  -xr yr / f,  -xr]]

A normal-flow measurement observes only the component along its unit
direction n, one linear constraint n^T A v / Z + n^T B w. :func:`flow_rows`
computes its rows n^T A and n^T B for many pixels at once; it is the one
place the model is evaluated (at n = (1, 0) and (0, 1) its rows are those
of A and B).
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


def flow_rows(intr: CameraIntrinsics, xs, ys, directions):
    """Rows n^T A and n^T B of the projected-flow model, (K, 3) each.

    `xs`, `ys` are pixel coordinates (K,) and `directions` the unit normals
    (K, 2); row k equals n_k @ A and n_k @ B at pixel (xs[k], ys[k]).
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

