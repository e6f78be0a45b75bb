"""Uniform cubic B-spline over body-frame linear velocity.

With control points c_0..c_{n-1} and knot spacing dt, segment j covers
[t0 + (3+j)*dt, t0 + (4+j)*dt) and blends c_j..c_{j+3}; the spline is
evaluable on [t0 + 3*dt, t0 + n*dt). Each segment carries one IMU bias,
a row [accel | gyro] of `biases` (num_segments, 6).
"""

import numpy as np


def basis(u):
    """Uniform cubic blending weights for the four active control points."""
    if not (0.0 <= u < 1.0 + 1e-12):
        raise ValueError(f"segment parameter u={u} outside [0, 1)")
    u2 = u * u
    u3 = u2 * u
    return np.array([
        (1.0 - u) ** 3,
        3.0 * u3 - 6.0 * u2 + 4.0,
        -3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0,
        u3,
    ]) / 6.0


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

    def segment_of(self, t):
        """(segment index, local parameter u) for a covered time t."""
        s = (t - self.t0) / self.knot_dt - 3.0
        j = int(np.floor(s))
        u = s - j
        # the rounding of t - t0 in units of u, never below 1e-9 (2.4e-6 at
        # 1.7e9 s, seconds since 1970, with 0.1 s knots)
        tol = max(1e-9, np.spacing(abs(t)) / self.knot_dt)
        if j == self.num_segments and u < tol:
            # exactly at (or within rounding of) the span end: not covered
            raise ValueError(f"time {t} at/after span end {self.t_max}")
        if j == -1 and u > 1.0 - tol:
            j, u = 0, 0.0
        if not (0 <= j < self.num_segments):
            raise ValueError(f"time {t} outside spline span "
                             f"[{self.t_min}, {self.t_max})")
        return j, min(max(u, 0.0), 1.0 - 1e-15)

    def weights(self, t):
        """(segment index, 4 blending weights) at time t."""
        j, u = self.segment_of(t)
        return j, basis(u)

    def velocity(self, t):
        j, w = self.weights(t)
        return w @ self.control_points[j:j + 4]

    def velocity_jacobian(self, t):
        """(segment index, 3x12 Jacobian w.r.t. the four active control points).

        Columns are ordered [c_j, c_{j+1}, c_{j+2}, c_{j+3}], xyz within each.
        """
        j, w = self.weights(t)
        jac = np.zeros((3, 12))
        for m in range(4):
            jac[:, 3 * m:3 * m + 3] = w[m] * np.eye(3)
        return j, jac

    def knots(self):
        """Interior evaluation-span knot times (segment boundaries)."""
        return self.t0 + self.knot_dt * np.arange(3, self.num_controls + 1)

    def extend_to(self, t_target, max_dv=np.inf):
        """Append extrapolated control points until t_target is evaluable.

        New points continue the last segment linearly; `max_dv` caps the
        per-knot increment so a disturbed tail cannot amplify exponentially
        across repeated extensions.
        """
        while self.t_max <= t_target + 1e-12:
            dv = self.control_points[-1] - self.control_points[-2]
            dv = np.clip(dv, -max_dv, max_dv)
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
