"""Uniform cubic B-spline over body-frame linear velocity.

With control points c_0..c_{n-1} and knot spacing dt, segment j covers
[t0 + (3+j)*dt, t0 + (4+j)*dt) and blends c_j..c_{j+3}; the spline is
evaluable on [t0 + 3*dt, t0 + n*dt). Each segment carries one IMU bias,
a row [accel | gyro] of `biases` (num_segments, 6).
"""

import numpy as np


def basis(u):
    """Uniform cubic blending weights for the four active control points.

    For an array of parameters the weights stack along a new last axis.
    Only elementwise products and sums are used, so every element equals
    the scalar call bit for bit.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((0.0 <= u) & (u < 1.0 + 1e-12)):
        raise ValueError(f"segment parameter u={u} outside [0, 1)")
    v = 1.0 - u
    u2 = u * u
    u3 = u2 * u
    return np.stack([
        v * v * v,
        3.0 * u3 - 6.0 * u2 + 4.0,
        -3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0,
        u3,
    ], axis=-1) / 6.0


class VelocitySpline:
    def __init__(self, t0, knot_dt, control_points, biases=None):
        self.t0 = float(t0)
        self.knot_dt = float(knot_dt)
        self.control_points = np.atleast_2d(np.asarray(control_points, dtype=float)).copy()
        if self.knot_dt <= 0:
            raise ValueError("knot interval must be positive")
        if len(self.control_points) < 4:
            raise ValueError("need at least 4 control points")
        if biases is None:
            biases = np.zeros((self.num_segments, 6))
        self.biases = np.array(biases, dtype=float)
        if self.biases.shape != (self.num_segments, 6):
            raise ValueError("one bias row [accel | gyro] per segment required")

    @property
    def num_controls(self):
        return len(self.control_points)

    @property
    def num_segments(self):
        return len(self.control_points) - 3

    @property
    def t_min(self):
        return self.t0 + 3.0 * self.knot_dt

    @property
    def t_max(self):
        return self.t0 + self.num_controls * self.knot_dt

    def _locate(self, t):
        """(segment index, u, covered) for an array of times, never raising."""
        s = (t - self.t0) / self.knot_dt - 3.0
        j = np.floor(s)
        u = s - j
        # the rounding of t - t0 in units of u, never below 1e-9 (2.4e-6 at
        # 1.7e9 s, seconds since 1970, with 0.1 s knots)
        tol = np.maximum(1e-9, np.spacing(np.abs(t)) / self.knot_dt)
        # within rounding before the span start: snap onto it. Within
        # rounding of the span end stays outside (j == num_segments).
        snap = (j == -1) & (u > 1.0 - tol)
        j = np.where(snap, 0.0, j)
        u = np.where(snap, 0.0, u)
        covered = (j >= 0) & (j < self.num_segments)
        return (j.astype(np.int64), np.minimum(np.maximum(u, 0.0), 1.0 - 1e-15),
                covered)

    def covers(self, t):
        """Whether segment_of accepts t; an array of flags for an array of times.

        This is the one rule for what lies inside the window.
        """
        return self._locate(np.asarray(t, dtype=float))[2]

    def segment_of(self, t):
        """(segment index, local parameter u) for a covered time t.

        For an array of times both come back as arrays, each element equal
        to the scalar call; a ValueError is raised if any time is not covered.
        """
        t = np.asarray(t, dtype=float)
        j, u, covered = self._locate(t)
        if not np.all(covered):
            bad = t[~covered] if t.ndim else t
            raise ValueError(f"time {np.ravel(bad)[0]} outside spline span "
                             f"[{self.t_min}, {self.t_max})")
        if t.ndim == 0:
            return int(j), float(u)
        return j, u

    def weights(self, t):
        """(segment index, 4 blending weights) at time t; for an array of
        times, (indices (N,), weights (N, 4))."""
        j, u = self.segment_of(t)
        return j, basis(u)

    def velocity(self, t):
        """Velocity at time t, or one row per time of an array t."""
        j, w = self.weights(t)
        return np.einsum("...k,...kc->...c", w,
                         self.control_points[np.add.outer(j, np.arange(4))])

    def knots(self):
        """Interior evaluation-span knot times (segment boundaries)."""
        return self.t0 + self.knot_dt * np.arange(3, self.num_controls + 1)

    def extend_to(self, t_target):
        """Append extrapolated control points until t_target is evaluable.

        New points continue the last segment linearly.
        """
        while self.t_max <= t_target + 1e-12:
            dv = self.control_points[-1] - self.control_points[-2]
            self.control_points = np.vstack([self.control_points,
                                             self.control_points[-1] + dv])
            self.biases = np.vstack([self.biases, self.biases[-1]])
        return self

    def drop_oldest(self, t_horizon):
        """Drop leading control points wholly before t_horizon.

        Never drops below 4 control points; raises if the request itself is
        invalid (horizon beyond the span end).
        """
        if t_horizon >= self.t_max:
            raise ValueError("cannot drop the whole spline")
        while self.num_controls > 4 and self.t_min + self.knot_dt <= t_horizon + 1e-12:
            self.control_points = self.control_points[1:]
            self.biases = self.biases[1:]
            self.t0 += self.knot_dt
        return self
