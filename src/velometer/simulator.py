"""Synthetic stereo event-camera / IMU data with exact ground truth.

Scenes are wireframes: 3D line segments, each carrying a signed
log-intensity step. As the camera moves, the projected segment sweeps the
image plane; every time it crosses a pixel center, the pixel accumulates the
edge's full step, firing floor(|step| / C) events for contrast threshold C.
Crossing instants are found by bisection on the incidence test of
projective geometry: the pixel's ray r = K^-1 (x, y, 1) lies on the plane
through the camera center and the segment e0-e1 when the triple product
(R(t) r) . ((e0 - p(t)) x (e1 - p(t))) vanishes. For endpoints in front of
the camera its sign is that of the pixel's image distance to the projected
line, and each trajectory gives it in closed form per candidate, so event
timestamps, depths and flows are exact up to the configured refinement
tolerance. Gaussian timestamp jitter and uniform spurious events can be
added on top.

Time is cut into coarse steps in which endpoints move about `px_step / 2`
pixels or less. A pixel can only be crossed during a step if it starts
within the step's endpoint motion + 1.5 px of the projected line, lies near
the segment at both step ends (edge parameter in (-0.02, 1.02)), and has
signed distances of opposite sign to the lines at the start and the end of
the step. Endpoints are projected at the step ends one camera axis at a
time, with the terms summed in a fixed order. Per (step, edge) pair, only
the box rows that the start-of-step rectangle (distance within reach, edge
parameter in range) reaches are kept; per such row, each condition is an
x-interval: two slabs at the start, one at the end, and the span between
the two lines' crossings of the row. Most rows hold no pixel centre within
that span, so it is computed first and such rows are dropped before the
other slabs. Only the intersection, the strip the edge sweeps, widened by
a rounding-sized margin, is enumerated, in (step, edge, row, column)
order. The exact tests then run on these pixels, so the candidates, and
with them the events, are those of enumerating every box pixel.

Memory follows a fixed work budget, not the duration. Steps are projected
256 at a time, and each chunk's (step, edge) boxes are split into
consecutive groups of at most `_ROW_BUDGET` box rows. Each group runs the
whole pipeline: band, exact tests, bisection, polarity, event expansion
and timestamp jitter, drawn per group in candidate order. Only its event
columns are kept. After the loop come the spurious events, drawn after
every jitter draw (also when no edge fires), then the in-duration filter and
a stable time sort.

Trajectories are closed-form (straight line or circular arc with the body
z-axis tracking the tangent). Each answers two batched queries at an array
of times: `pose_batch` (world-from-body rotations and positions) and
`motion_batch` (world-frame velocity, acceleration and angular rate).
`body_motion` rotates the motion into the body frame; the IMU stream, the
ground truth and the exact observations all read it from there.
"""

from dataclasses import dataclass

import numpy as np

from .config import ImuConfig, SimConfig
from .events import EVENT_DTYPE, ImuData, make_events
from .geometry import CameraIntrinsics, StereoRig, flow_rows
from .normal_flow import FlowBatch
from .rotations import axis_angle_matrices, matrix_to_quat


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------

class StraightTrajectory:
    """Constant world velocity, constant orientation."""

    def __init__(self, p0, v_world, r0, duration):
        self.p0 = np.asarray(p0, dtype=float)
        self.v_world = np.asarray(v_world, dtype=float)
        self.r0 = np.asarray(r0, dtype=float)
        self.duration = float(duration)

    def pose_batch(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        r = np.broadcast_to(self.r0, (len(ts), 3, 3))
        p = self.p0[None] + ts[:, None] * self.v_world[None]
        return r, p

    def motion_batch(self, ts):
        n = len(np.atleast_1d(ts))
        return (np.broadcast_to(self.v_world, (n, 3)), np.zeros((n, 3)),
                np.zeros((n, 3)))

    def max_speed(self):
        return float(np.linalg.norm(self.v_world))

    def plane_side(self, e0, e1, rays, offset_x=0.0):
        """Side of each ray's pixel relative to the projected segment e0-e1,
        as a function of time: (R(t) ray) . ((e0 - p(t)) x (e1 - p(t))) of
        a camera offset by `offset_x` along the body x-axis. The cross
        product is linear in t, so the side is alpha + beta * t."""
        q = rays @ self.r0.T
        origin = self.p0 + offset_x * self.r0[:, 0]
        alpha = np.einsum("ki,ki->k", q, np.cross(e0 - origin, e1 - origin))
        beta = np.einsum("ki,ki->k", q, np.cross(e1 - e0, self.v_world))
        return lambda t: alpha + beta * t


class CircularTrajectory:
    """Circular arc at constant speed; orientation co-rotates with the arc."""

    def __init__(self, center, radius_vec, omega_world, r0, duration):
        self.center = np.asarray(center, dtype=float)
        self.radius_vec = np.asarray(radius_vec, dtype=float)
        self.omega_world = np.asarray(omega_world, dtype=float)
        self.r0 = np.asarray(r0, dtype=float)
        self.duration = float(duration)
        self._rate = float(np.linalg.norm(self.omega_world))
        self._axis = self.omega_world / self._rate

    def _spin(self, ts):
        return axis_angle_matrices(self._axis, np.asarray(ts, dtype=float) * self._rate)

    def pose_batch(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        rot = self._spin(ts)
        r = rot @ self.r0[None]
        p = self.center[None] + np.einsum("kij,j->ki", rot, self.radius_vec)
        return r, p

    def motion_batch(self, ts):
        v = np.cross(self.omega_world, self.pose_batch(ts)[1] - self.center)
        return (v, np.cross(self.omega_world, v),
                np.broadcast_to(self.omega_world, v.shape))

    def max_speed(self):
        return self._rate * float(np.linalg.norm(self.radius_vec))

    def plane_side(self, e0, e1, rays, offset_x=0.0):
        """As `StraightTrajectory.plane_side`. With R(t) = S r0 and
        p(t) = center + S rho, S = S(rate * t), rho the radius vector plus
        the camera offset, the side is w.(S m) + h.(S n) for m = r0 ray,
        w = (e0 - center) x (e1 - center), h = e1 - e0 and n = rho x m.
        Writing S = (I + K^2) - cos(theta) K^2 + sin(theta) K for the
        axis's cross-product matrix K, it is alpha + beta * cos(theta)
        + gamma * sin(theta)."""
        k = self._axis
        m = rays @ self.r0.T
        n = np.cross(self.radius_vec + offset_x * self.r0[:, 0], m)
        w = np.cross(e0 - self.center, e1 - self.center)
        h = e1 - e0
        wm = np.einsum("ki,ki->k", w, m) + np.einsum("ki,ki->k", h, n)
        kk = (w @ k) * (m @ k) + (h @ k) * (n @ k)
        gamma = (np.einsum("ki,ki->k", w, np.cross(k, m))
                 + np.einsum("ki,ki->k", h, np.cross(k, n)))
        alpha, beta = kk, wm - kk

        def side(t):
            theta = t * self._rate
            return alpha + beta * np.cos(theta) + gamma * np.sin(theta)
        return side


def body_motion(traj, ts, gravity=0.0):
    """World-from-body rotations (N, 3, 3) at the times ts, and the
    body-frame velocity, specific force (acceleration minus `gravity`) and
    angular rate (N, 3) of the trajectory's two batched queries."""
    rs, _ = traj.pose_batch(ts)
    v, a, w = traj.motion_batch(ts)
    rt = np.swapaxes(rs, -1, -2)
    return rs, np.matvec(rt, v), np.matvec(rt, a - gravity), np.matvec(rt, w)


def _sample_times(traj, rate):
    return np.arange(int(round(traj.duration * rate)) + 1) / rate


def _ideal_imu(traj, rate, gravity):
    """Noise-free IMU stream over the trajectory duration."""
    ts = _sample_times(traj, rate)
    _, _, accel, gyro = body_motion(traj, ts, gravity)
    return ImuData(ts, accel, gyro)


def _look_rotation(forward, up_world=(0.0, 0.0, 1.0)):
    """World-from-body rotation: body z along `forward`, body y downward."""
    z = np.asarray(forward, dtype=float)
    z = z / np.linalg.norm(z)
    x = np.cross(z, np.asarray(up_world, dtype=float))
    if np.linalg.norm(x) < 1e-9:
        raise ValueError("forward direction parallel to up; pick another frame")
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def make_trajectory(preset, speed=None, omega=None, duration=3.0):
    """Kinematic presets; speed (m/s) / omega (rad/s) default per preset."""
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if preset == "const-vel":
        speed = 2.0 if speed is None else speed
        v_world = np.array([speed, 0.0, 0.0])
        r0 = _look_rotation([1.0, 0.0, 0.0])
        return StraightTrajectory(np.zeros(3), v_world, r0, duration)
    if preset in ("corridor", "boxes"):
        if preset == "corridor":
            speed = 5.68 if speed is None else speed
            omega = 0.66 if omega is None else omega
        else:
            speed = 2.77 if speed is None else speed
            omega = 2.05 if omega is None else omega
        radius = speed / omega
        w_world = np.array([0.0, 0.0, omega])
        radius_vec = np.array([radius, 0.0, 0.0])
        tangent = np.cross(w_world, radius_vec)
        r0 = _look_rotation(tangent)
        return CircularTrajectory(np.zeros(3), radius_vec, w_world, r0, duration)
    if preset == "spin":
        speed = 4.94 if speed is None else speed
        omega = 13.3 if omega is None else omega
        radius = speed / omega
        w_world = np.array([0.0, -omega, 0.0])    # vertical circle in x-z
        radius_vec = np.array([radius, 0.0, 0.0])
        tangent = np.cross(w_world, radius_vec)
        tangent /= np.linalg.norm(tangent)
        y_body = radius_vec / np.linalg.norm(radius_vec)   # "down" = outward
        x_body = np.cross(y_body, tangent)
        r0 = np.column_stack([x_body, y_body, tangent])
        return CircularTrajectory(np.zeros(3), radius_vec, w_world, r0, duration)
    raise ValueError(f"unknown preset {preset!r}")


# --------------------------------------------------------------------------
# scenes
# --------------------------------------------------------------------------

@dataclass
class Scene:
    """Wireframe scene: segment endpoints (E,2,3) and signed log steps (E,)."""

    edges: np.ndarray
    contrast: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.contrast = np.asarray(self.contrast, dtype=float)
        if self.edges.ndim != 3 or self.edges.shape[1:] != (2, 3):
            raise ValueError("edges must have shape (E, 2, 3)")

    def __len__(self):
        return len(self.edges)


def _filter_edges(edges, contrast, traj, min_clearance=0.2, n_samples=40):
    """Drop edges that come too close to the camera path."""
    ts = np.linspace(0.0, traj.duration, n_samples)
    _, ps = traj.pose_batch(ts)
    mids = 0.5 * (edges[:, 0] + edges[:, 1])
    keep = np.ones(len(edges), dtype=bool)
    for p in ps:
        for pts in (edges[:, 0], edges[:, 1], mids):
            keep &= np.linalg.norm(pts - p[None], axis=1) > min_clearance
    return edges[keep], contrast[keep]


def _check_coverage(scene, traj, cfg: SimConfig, min_front=3, n_samples=30):
    """Every sampled camera pose must see at least `min_front` edges."""
    ts = np.linspace(0.0, traj.duration, n_samples)
    rs, ps = traj.pose_batch(ts)
    for r, p in zip(rs, ps):
        z0 = (scene.edges[:, 0] - p) @ r[:, 2]
        z1 = (scene.edges[:, 1] - p) @ r[:, 2]
        if np.sum((z0 > cfg.z_near) & (z1 > cfg.z_near)) < min_front:
            raise ValueError("scene leaves the camera without visible edges")
    return scene


def _draw_contrast(rng, n, threshold):
    mag = rng.uniform(threshold, 3.0 * threshold, n)
    sign = rng.choice([-1.0, 1.0], n)
    return mag * sign


def make_scene(preset, traj, cfg: SimConfig, rng, n_edges=None):
    """Scene matching a trajectory preset; edges are filtered for clearance."""
    c = cfg.contrast_threshold
    if preset == "const-vel":
        n = 45 if n_edges is None else n_edges
        length = traj.duration * traj.max_speed()
        xs = rng.uniform(1.5, length + 5.0, n)
        ys = rng.uniform(-2.5, 2.5, n)
        zs = rng.uniform(-1.6, 1.6, n)
        ang = rng.uniform(0, np.pi, n)
        elen = rng.uniform(0.4, 1.4, n)
        p0 = np.stack([xs, ys, zs], axis=1)
        d = np.stack([np.zeros(n), np.cos(ang), np.sin(ang)], axis=1)
        edges = np.stack([p0 - 0.5 * elen[:, None] * d,
                          p0 + 0.5 * elen[:, None] * d], axis=1)
    elif preset in ("corridor", "boxes"):
        radius = np.linalg.norm(traj.radius_vec)
        arc = np.linalg.norm(traj.omega_world) * traj.duration
        if preset == "corridor":
            n = 70 if n_edges is None else n_edges
            phis = rng.uniform(-0.3, arc + 1.2, n)
            wall = rng.choice([-1.0, 1.0], n)
            rad = radius + wall * rng.uniform(0.9, 1.6, n)
            vertical = rng.random(n) < 0.7
            base_z = rng.uniform(-1.2, 0.8, n)
            elen = rng.uniform(0.4, 1.4, n)
            p0 = np.stack([rad * np.cos(phis), rad * np.sin(phis), base_z], axis=1)
            d_vert = np.stack([np.zeros(n), np.zeros(n), np.ones(n)], axis=1)
            d_tang = np.stack([-np.sin(phis), np.cos(phis), np.zeros(n)], axis=1)
            d = np.where(vertical[:, None], d_vert, d_tang)
            edges = np.stack([p0, p0 + elen[:, None] * d], axis=1)
        else:
            n = 26 if n_edges is None else n_edges
            phis = rng.uniform(0, 2 * np.pi, n)
            rad = radius + rng.choice([-1.0, 1.0], n) * rng.uniform(0.8, 2.2, n)
            rad = np.abs(rad)
            centers = np.stack([rad * np.cos(phis), rad * np.sin(phis),
                                rng.uniform(-0.8, 0.8, n)], axis=1)
            edges = []
            for ctr in centers:
                size = rng.uniform(0.15, 0.4)
                lo, hi = ctr - size / 2, ctr + size / 2
                corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                                    for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
                idx = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3),
                       (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7)]
                edges.extend(corners[list(pair)] for pair in idx)
            edges = np.asarray(edges)
    elif preset == "spin":
        n = 22 if n_edges is None else n_edges
        phis = rng.uniform(0, 2 * np.pi, n)       # angle in the spin plane
        rad = rng.uniform(1.8, 3.2, n)
        lateral = rng.uniform(-1.0, 1.0, n)
        p0 = np.stack([rad * np.cos(phis), lateral, rad * np.sin(phis)], axis=1)
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        elen = rng.uniform(0.2, 0.45, n)
        edges = np.stack([p0 - 0.5 * elen[:, None] * d,
                          p0 + 0.5 * elen[:, None] * d], axis=1)
    else:
        raise ValueError(f"unknown preset {preset!r}")

    contrast = _draw_contrast(rng, len(edges), c)
    edges, contrast = _filter_edges(edges, contrast, traj)
    scene = Scene(edges, contrast)
    return _check_coverage(scene, traj, cfg)


def tilted_edge_scene(depth=2.0, tilt_deg=30.0, length=3.0, contrast=1.0,
                      n_edges=1, spacing=0.5):
    """Parallel tilted edges on a fronto-parallel plane (test scenes)."""
    t = np.deg2rad(tilt_deg)
    d = np.array([np.sin(t), np.cos(t), 0.0])   # mostly vertical, tilted
    edges = []
    for i in range(n_edges):
        off = (i - (n_edges - 1) / 2) * spacing
        p0 = np.array([off, 0.0, depth]) - 0.5 * length * d
        edges.append([p0, p0 + length * d])
    contrasts = np.full(n_edges, contrast) * np.where(
        np.arange(n_edges) % 2 == 0, 1.0, -1.0)
    return Scene(np.asarray(edges), contrasts)


# --------------------------------------------------------------------------
# event generation
# --------------------------------------------------------------------------

def _camera_positions(traj, ts, offset_x):
    rs, ps = traj.pose_batch(ts)
    if offset_x != 0.0:
        ps = ps + rs[:, :, 0] * offset_x
    return rs, ps


def _project_edges(rs, ps, edges, intr, z_near):
    """Project all edge endpoints at all poses.

    Each camera coordinate i is a contiguous (K, E) plane,
    rel_x R[:, 0, i] + rel_y R[:, 1, i] + rel_z R[:, 2, i] for
    rel = endpoint - p, summed in the order einsum("kji,kej->kei") sums.
    A matmul `rel @ R` is faster but rounds differently in the last bit,
    which moves crossings and so changes events.

    Returns (a, b, valid): a, b are (K, E, 2) pixel positions, valid (K, E)
    requires both endpoints in front of the camera.
    """
    (x0, y0, z0), (x1, y1, z1) = (_camera_planes(rs, ps, edges[:, end])
                                  for end in (0, 1))
    valid = (z0 > z_near) & (z1 > z_near)
    z0 = np.where(valid, z0, 1.0)
    z1 = np.where(valid, z1, 1.0)
    a = np.stack([intr.f * x0 / z0 + intr.cx,
                  intr.f * y0 / z0 + intr.cy], axis=-1)
    b = np.stack([intr.f * x1 / z1 + intr.cx,
                  intr.f * y1 / z1 + intr.cy], axis=-1)
    return a, b, valid


def _camera_planes(rs, ps, points):
    """Camera coordinates [x, y, z] of the points (E, 3) at the poses (K),
    R^T (point - p), as three (K, E) planes."""
    rel = [points[None, :, j] - ps[:, j, None] for j in range(3)]
    return [rel[0] * rs[:, 0, i, None] + rel[1] * rs[:, 1, i, None]
            + rel[2] * rs[:, 2, i, None] for i in range(3)]


def _estimate_px_speed(traj, edges, intr, cfg, offset_x):
    ts = np.linspace(0.0, traj.duration, 240)
    rs, ps = _camera_positions(traj, ts, offset_x)
    a, b, valid = _project_edges(rs, ps, edges, intr, cfg.z_near)
    ok = valid[1:] & valid[:-1]
    in_img = ((a[..., 0] > -50) & (a[..., 0] < intr.width + 50)
              & (a[..., 1] > -50) & (a[..., 1] < intr.height + 50))
    ok &= in_img[1:] | in_img[:-1]
    dt = ts[1] - ts[0]
    speeds = []
    for pts in (a, b):
        d = np.linalg.norm(pts[1:] - pts[:-1], axis=-1)
        if np.any(ok):
            speeds.append(np.max(np.where(ok, d, 0.0)) / dt)
    return max(max(speeds, default=1.0), 1.0)


def _step_extent(p, q):
    """Floor of the least and ceiling of the greatest of the coordinates p,
    q (K, E) of both endpoints at both ends of each of the K - 1 steps."""
    lo = np.minimum(np.minimum(p[:-1], q[:-1]), np.minimum(p[1:], q[1:]))
    hi = np.maximum(np.maximum(p[:-1], q[:-1]), np.maximum(p[1:], q[1:]))
    return np.floor(lo), np.ceil(hi)


def _ragged_ranges(lo, hi):
    """Integer ranges lo[i]..hi[i] (inclusive, empty when hi < lo), one after
    another: (index i, value) per element."""
    counts = np.maximum(hi - lo + 1, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, lo[owner] + (np.arange(int(counts.sum())) - starts[owner])


# a slab whose coefficient along x is below this does not cut the row
_SLAB_EPS = 1e-6
# Each x-bound of the band is c / coef with |coef| >= _SLAB_EPS, where c sums
# products of pixel offsets of at most about 1e3 px, so rounding c (about
# 1e-13 px) moves the bound by at most about 1e-7 px, and the exact tests
# round alike; the band is widened by this margin on both sides.
_BAND_MARGIN = 1e-3


def _tangent(u):
    """Unit tangent (tx, ty) and length of each segment offset u (N, 2)."""
    ln = np.hypot(u[:, 0], u[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        tx, ty = (u / ln[:, None]).T
    return tx, ty, ln


def _band_pixels(a, b, a1, b1, reach, x0, x1, y0, y1):
    """Pixels of each box [x0, x1] x [y0, y1] that can pass `near` and `hit`
    for the segment a-b moving to a1-b1 within one step (rows of (N, 2)
    arrays): per box row the integer x-range where |n.(p - a)| <= reach,
    -0.02 < s < 1.02 and -0.02 < s1 < 1.02 (n the unit normal, s and s1 the
    edge parameters at both step ends), and that lies between the roots of
    the signed distances d and d1 along the row, widened by `_BAND_MARGIN`
    on both sides and clipped to the box. Rows outside the y-range of the
    start-of-step rectangle |d| <= reach, -0.02 <= s <= 1.02 (widened
    alike) are skipped. A condition whose coefficient along x is near zero,
    or that involves a degenerate segment, does not cut the row; nor does
    the root condition when the two distances' slopes along x have opposite
    signs, since d * d1 < 0 then holds outside the roots.

    Most rows hold no pixel centre of the swept strip, so every row first
    gets only the root interval; a row whose widened root interval holds
    no integer is dropped before the other slabs and the clip, which can
    only narrow it. Returns (owner, px, py) in (box, row, column) order.
    """
    u = b - a
    tx, ty, ln = _tangent(u)
    tx1, ty1, ln1 = _tangent(b1 - a1)
    # a pixel passing `near` lies at y = a_y + s u_y + d u_x / |u| for
    # u = b - a, so only the rows of that rectangle's y-range can hold one
    with np.errstate(divide="ignore", invalid="ignore"):
        half = reach * np.abs(u[:, 0]) / ln + _BAND_MARGIN
    ends = (-0.02 * u[:, 1], 1.02 * u[:, 1])
    rect = ln >= 1e-12
    y_lo = np.ceil(a[:, 1] + np.minimum(*ends) - half)
    y_hi = np.floor(a[:, 1] + np.maximum(*ends) + half)
    y0 = np.where(rect, np.maximum(y0, y_lo), y0).astype(np.int64)
    y1 = np.where(rect, np.minimum(y1, y_hi), y1).astype(np.int64)
    # `_signed_distance` does not normalize a segment shorter than 1e-12 px,
    # so `near` (or `hit`) then passes its whole box
    ok, ok1 = ln >= 1e-12, ln1 >= 1e-12
    roots = (ok & ok1 & (np.abs(ty) >= _SLAB_EPS) & (np.abs(ty1) >= _SLAB_EPS)
             & (ty * ty1 > 0))

    row, py = _ragged_ranges(y0, y1)
    ax = a[:, 0][row]
    dy = py - a[:, 1][row]
    dy1 = py - a1[:, 1][row]
    shift = a1[:, 0][row] - ax
    with np.errstate(divide="ignore", invalid="ignore"):
        r0, r1 = tx[row] * dy / ty[row], shift + tx1[row] * dy1 / ty1[row]
        # the other slabs and the clip only narrow the root interval, and
        # rounding is monotone, so a row of a `roots` box whose widened root
        # interval holds no integer enumerates nothing
        empty = roots[row] & (
            np.ceil(ax + np.minimum(r0, r1) - _BAND_MARGIN)
            > np.floor(ax + np.maximum(r0, r1) + _BAND_MARGIN))
    keep = np.flatnonzero(~empty)
    row, py, ax, dy, dy1, shift, r0, r1 = (
        v[keep] for v in (row, py, ax, dy, dy1, shift, r0, r1))
    tx, ty, ln, tx1, ty1, ln1, ok, ok1, roots, reach = (
        v[row] for v in (tx, ty, ln, tx1, ty1, ln1, ok, ok1, roots, reach))
    c1 = tx1 * shift - ty1 * dy1
    lo = np.full(len(row), -np.inf)
    hi = np.full(len(row), np.inf)
    # bounds on x - a_x: normal (-ty, tx) within reach, the tangent (tx, ty)
    # between -0.02 and 1.02 segment lengths at both step ends, and the
    # interval between the roots of d and d1
    for coef, c_lo, c_hi, cut in (
            (-ty, -reach - tx * dy, reach - tx * dy, ok),
            (tx, -0.02 * ln - ty * dy, 1.02 * ln - ty * dy, ok),
            (tx1, c1 - 0.02 * ln1, c1 + 1.02 * ln1, ok1),
            (1.0, r0, r1, roots)):
        cut = cut & (np.abs(coef) >= _SLAB_EPS)
        coef = np.where(cut, coef, 1.0)
        q_lo, q_hi = c_lo / coef, c_hi / coef
        lo = np.where(cut, np.maximum(lo, np.minimum(q_lo, q_hi)), lo)
        hi = np.where(cut, np.minimum(hi, np.maximum(q_lo, q_hi)), hi)
    xs = np.maximum(np.ceil(ax + lo - _BAND_MARGIN), x0[row]).astype(np.int64)
    xe = np.minimum(np.floor(ax + hi + _BAND_MARGIN), x1[row]).astype(np.int64)
    span, px = _ragged_ranges(xs, xe)
    return row[span], px, py[span]


def _signed_distance(px, py, a, b, owner=slice(None)):
    """Signed distance of pixels to the line through a-b plus edge parameter;
    pixel j is measured against segment owner[j] (each segment's frame is
    computed once)."""
    ux = b[:, 0] - a[:, 0]
    uy = b[:, 1] - a[:, 1]
    ln = np.hypot(ux, uy)
    ln = np.where(ln < 1e-12, 1.0, ln)
    nx, ny = -uy / ln, ux / ln
    dx = px - a[owner, 0]
    dy = py - a[owner, 1]
    d = nx[owner] * dx + ny[owner] * dy
    s = (ux[owner] * dx + uy[owner] * dy) / (ln * ln)[owner]
    return d, s


# a pass enumerates the bands of (step, edge) boxes holding at most this many
# box rows in total, so its working arrays do not grow with the step chunk
_ROW_BUDGET = 1 << 16


def _row_groups(rows, budget):
    """Slices of consecutive boxes whose row counts sum to at most `budget`
    (a box of more rows makes a group of its own)."""
    ends = np.cumsum(rows)
    i0 = 0
    while i0 < len(ends):
        base = ends[i0 - 1] if i0 else 0
        i1 = max(int(np.searchsorted(ends, base + budget, side="right")), i0 + 1)
        yield slice(i0, i1)
        i0 = i1


def generate_events(scene: Scene, traj, rig: StereoRig, cfg: SimConfig,
                    rng=None, camera="left"):
    """Event stream of one camera over the trajectory (sorted, in bounds).

    Spurious events are drawn whether or not any edge fires.
    """
    rng = rng or np.random.default_rng(cfg.seed)
    intr = rig.left if camera == "left" else rig.right
    offset_x = 0.0 if camera == "left" else rig.baseline
    columns = (_edge_events(scene, traj, intr, cfg, rng, offset_x)
               if len(scene) else [])
    if cfg.spurious_rate > 0:
        n_sp = rng.poisson(cfg.spurious_rate * traj.duration)
        columns.append((rng.uniform(0.0, traj.duration, n_sp),
                        rng.integers(0, intr.width, n_sp).astype(np.int32),
                        rng.integers(0, intr.height, n_sp).astype(np.int32),
                        rng.choice(np.array([-1, 1], dtype=np.int8), n_sp)))
    if not columns:
        return np.empty(0, dtype=EVENT_DTYPE)
    t_ev, x_ev, y_ev, p_ev = (np.concatenate(c) for c in zip(*columns))
    del columns
    keep = (t_ev >= 0.0) & (t_ev <= traj.duration)
    t_ev, x_ev, y_ev, p_ev = t_ev[keep], x_ev[keep], y_ev[keep], p_ev[keep]
    order = np.argsort(t_ev, kind="stable")
    return make_events(t_ev[order], x_ev[order], y_ev[order], p_ev[order])


def _edge_events(scene, traj, intr, cfg, rng, offset_x):
    """(t, x, y, p) columns of the edge crossings, one tuple per group."""
    px_speed = _estimate_px_speed(traj, scene.edges, intr, cfg, offset_x)
    dt = max(min(cfg.px_step / (2.0 * px_speed), 2e-3), 2e-6)
    n_steps = int(np.ceil(traj.duration / dt))
    ts = np.linspace(0.0, traj.duration, n_steps + 1)
    dt = ts[1] - ts[0]
    # with timestamp jitter applied afterwards, refining crossings far below
    # the jitter scale buys nothing
    tol = 1e-12 if cfg.jitter_std == 0.0 else min(1e-6, 0.01 * cfg.jitter_std)
    n_iter = int(np.clip(np.ceil(np.log2(dt / tol)), 10, 60))

    columns = []                    # (t, x, y, p) of each group's events
    chunk = 256
    for k0 in range(0, n_steps, chunk):
        k1 = min(k0 + chunk, n_steps)
        sub = ts[k0:k1 + 1]
        rs, ps = _camera_positions(traj, sub, offset_x)
        a, b, valid = _project_edges(rs, ps, scene.edges, intr, cfg.z_near)
        step_ok = valid[:-1] & valid[1:]
        # bounding boxes over both endpoints at both step ends
        x_lo, x_hi = _step_extent(a[..., 0], b[..., 0])
        y_lo, y_hi = _step_extent(a[..., 1], b[..., 1])
        x0 = np.clip(x_lo - 1, 0, intr.width - 1).astype(np.int64)
        x1 = np.clip(x_hi + 1, 0, intr.width - 1).astype(np.int64)
        y0 = np.clip(y_lo - 1, 0, intr.height - 1).astype(np.int64)
        y1 = np.clip(y_hi + 1, 0, intr.height - 1).astype(np.int64)
        inside = ((x_hi >= 0) & (x_lo <= intr.width - 1)
                  & (y_hi >= 0) & (y_lo <= intr.height - 1))
        sk, se = np.nonzero(step_ok & inside)
        for g in _row_groups(y1[sk, se] - y0[sk, se] + 1, _ROW_BUDGET):
            gk, ge = sk[g], se[g]
            a0, b0, a1, b1 = a[gk, ge], b[gk, ge], a[gk + 1, ge], b[gk + 1, ge]
            # a pixel can only be crossed if it starts within one step's
            # motion of the line; only that band of each box is enumerated,
            # and the exact test runs before the second distance pass
            reach = np.maximum(np.linalg.norm(a1 - a0, axis=-1),
                               np.linalg.norm(b1 - b0, axis=-1)) + 1.5
            owner, px, py = _band_pixels(a0, b0, a1, b1, reach, x0[gk, ge],
                                         x1[gk, ge], y0[gk, ge], y1[gk, ge])
            d0, s0 = _signed_distance(px, py, a0, b0, owner)
            near = (np.abs(d0) <= reach[owner]) & (s0 > -0.02) & (s0 < 1.02)
            owner, px, py, d0 = (v[near] for v in (owner, px, py, d0))
            d1, s1 = _signed_distance(px, py, a1, b1, owner)
            hit = (d0 * d1 < 0) & (s1 > -0.02) & (s1 < 1.02)
            if not np.any(hit):
                continue
            owner, px, py, d0 = (v[hit] for v in (owner, px, py, d0))
            events = _crossing_events(
                scene, traj, intr, cfg, rng, offset_x, n_iter, px, py,
                ge[owner], sub[gk[owner]], sub[gk[owner] + 1], np.sign(d0))
            if len(events[0]):
                columns.append(events)
    return columns


def _crossing_events(scene, traj, intr, cfg, rng, offset_x, n_iter, px, py,
                     eid, lo, hi, sign_lo):
    """Events (t, x, y, p columns) of crossing candidates: pixel (px, py),
    edge eid, crossed within [lo, hi], on side sign_lo at lo."""
    # both endpoints lie beyond z_near > 0 at both step ends, where the
    # plane side has the sign of the pixel's image distance to the line
    px, py = px.astype(float), py.astype(float)
    rays = np.stack([px - intr.cx, py - intr.cy, np.full_like(px, intr.f)],
                    axis=1)
    side_at = traj.plane_side(scene.edges[eid, 0], scene.edges[eid, 1], rays,
                              offset_x)
    t_lo, t_hi = lo, hi
    for _ in range(n_iter):
        tm = 0.5 * (t_lo + t_hi)
        same = np.sign(side_at(tm)) == sign_lo
        t_lo = np.where(same, tm, t_lo)
        t_hi = np.where(same, t_hi, tm)

    # a step edge delivers its whole log-intensity change at the crossing
    # instant, so every threshold multiple fires there
    contrast = scene.contrast[eid]
    n_ev = np.maximum(np.floor(np.abs(contrast) / cfg.contrast_threshold
                               + 1e-9).astype(int), 0)
    pol = (np.sign(contrast) * (-sign_lo)).astype(np.int8)
    pol[pol == 0] = 1
    t_ev = np.repeat(0.5 * (t_lo + t_hi), n_ev)
    if cfg.jitter_std > 0:
        t_ev = t_ev + rng.normal(0.0, cfg.jitter_std, len(t_ev))
    return (t_ev, np.repeat(px, n_ev).astype(np.int32),
            np.repeat(py, n_ev).astype(np.int32), np.repeat(pol, n_ev))


def generate_stereo_events(scene, traj, rig, cfg: SimConfig, rng=None):
    rng = rng or np.random.default_rng(cfg.seed)
    rng_l, rng_r = rng.spawn(2)
    left = generate_events(scene, traj, rig, cfg, rng_l, camera="left")
    right = generate_events(scene, traj, rig, cfg, rng_r, camera="right")
    return left, right


# --------------------------------------------------------------------------
# IMU generation and ground truth
# --------------------------------------------------------------------------

def generate_imu(traj, imu_cfg: ImuConfig, gravity, rng=None, noise=True):
    """Noisy IMU stream plus the true per-sample biases.

    Noise and bias-step standard deviations are per-sample values at the
    configured rate; biases start at zero and follow a random walk.
    """
    rng = rng or np.random.default_rng(0)
    clean = _ideal_imu(traj, imu_cfg.rate_hz, gravity)
    n = len(clean)
    if not noise:
        zero = np.zeros((n, 3))
        return clean, zero, zero
    steps_a = rng.normal(0.0, imu_cfg.acc_bias_std, (n, 3))
    steps_w = rng.normal(0.0, imu_cfg.gyro_bias_std, (n, 3))
    steps_a[0] = 0.0
    steps_w[0] = 0.0
    bias_a = np.cumsum(steps_a, axis=0)
    bias_w = np.cumsum(steps_w, axis=0)
    accel = clean.accel + bias_a + rng.normal(0.0, imu_cfg.acc_noise, (n, 3))
    gyro = clean.gyro + bias_w + rng.normal(0.0, imu_cfg.gyro_noise, (n, 3))
    return ImuData(clean.t, accel, gyro), bias_a, bias_w


@dataclass
class GroundTruth:
    t: np.ndarray
    v_body: np.ndarray
    quat_wb: np.ndarray
    bias_acc: np.ndarray = None
    bias_gyro: np.ndarray = None


def ground_truth(traj, rate=200.0, bias_acc=None, bias_gyro=None):
    ts = _sample_times(traj, rate)
    rs, v_body, _, _ = body_motion(traj, ts)
    return GroundTruth(t=ts, v_body=v_body, quat_wb=matrix_to_quat(rs),
                       bias_acc=bias_acc, bias_gyro=bias_gyro)


def default_rig(cfg: SimConfig):
    intr = CameraIntrinsics(f=cfg.f, cx=cfg.cx, cy=cfg.cy,
                            width=cfg.width, height=cfg.height)
    return StereoRig(left=intr, right=intr, baseline=cfg.baseline)


# --------------------------------------------------------------------------
# exact observations (estimator bypass) and depth queries
# --------------------------------------------------------------------------

def _project_scene_points(scene, traj, rig, t, camera="left", per_edge=24):
    """Sample points along every edge; project at time t.

    Returns (px (M,2), depth (M,), edge index (M,)).
    """
    intr = rig.left if camera == "left" else rig.right
    offset_x = 0.0 if camera == "left" else rig.baseline
    rs, ps = _camera_positions(traj, np.array([t]), offset_x)
    svals = (np.arange(per_edge) + 0.5) / per_edge
    pts = (scene.edges[:, None, 0, :] * (1 - svals)[None, :, None]
           + scene.edges[:, None, 1, :] * svals[None, :, None])   # (E,S,3)
    x, y, z = (c.reshape(pts.shape[:2])
               for c in _camera_planes(rs, ps, pts.reshape(-1, 3)))
    ok = z > 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.f * x / z + intr.cx
        v = intr.f * y / z + intr.cy
    ok &= (u >= 1) & (u <= intr.width - 2) & (v >= 1) & (v <= intr.height - 2)
    eidx = np.broadcast_to(np.arange(len(scene))[:, None], z.shape)
    sel = np.nonzero(ok)
    px = np.stack([u[sel], v[sel]], axis=1)
    return px, z[sel], eidx[sel]


def exact_observations(scene, traj, rig, t, count=60):
    """Noise-free, depth-matched left-camera flows straight from geometry.

    Rows are exactly consistent with the projected-flow model at the stored
    integer pixel: the edge point is slid along the edge until it projects
    onto the pixel center, the normal is the unit normal of the projected
    edge oriented along the temporal gradient (the side the edge moves
    toward), and the magnitude is the projected true motion,
    n^T A v / Z + n^T B w. Every row has zero fit rms, its true depth and
    unit weight.
    """
    px, _, eidx = _project_scene_points(scene, traj, rig, t)
    if len(px) == 0:
        return FlowBatch.empty(t)
    intr = rig.left
    rs, ps = _camera_positions(traj, np.array([t]), 0.0)
    r, p = rs[0], ps[0]
    take = np.unique(np.round(np.linspace(0, len(px) - 1,
                                          min(count, len(px)))).astype(int))
    pix = np.round(px[take])
    e0, e1 = scene.edges[eidx[take], 0], scene.edges[eidx[take], 1]
    cam0 = (e0 - p) @ r              # rows of r.T @ (e0 - p)
    d_cam = (e1 - e0) @ r

    def project(s_val):
        c = cam0 + s_val[:, None] * d_cam
        return np.stack([intr.f * c[:, 0] / c[:, 2] + intr.cx,
                         intr.f * c[:, 1] / c[:, 2] + intr.cy], axis=1), c

    # slide the edge parameter until the point projects at the pixel center;
    # a point whose projected tangent vanishes stops with its last values
    k = len(take)
    s = np.full(k, 0.5)
    tan2d = np.zeros((k, 2))
    norm2 = np.zeros(k)
    active = np.ones(k, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            proj, cam = project(s)
            tan_i = (intr.f * (d_cam[:, :2] * cam[:, 2:] - cam[:, :2] * d_cam[:, 2:])
                     / cam[:, 2:] ** 2)
            norm2_i = np.sum(tan_i * tan_i, axis=1)
            tan2d[active] = tan_i[active]
            norm2[active] = norm2_i[active]
            active &= norm2_i >= 1e-12
            ds = np.sum((pix - proj) * tan_i, axis=1) / norm2_i
            s = np.where(active, np.clip(s + ds, 0.0, 1.0), s)
    proj, cam = project(s)
    ok = ((np.linalg.norm(proj - pix, axis=1) <= 0.6) & (cam[:, 2] > 1e-3)
          & (pix[:, 0] >= 1) & (pix[:, 0] <= intr.width - 2)
          & (pix[:, 1] >= 1) & (pix[:, 1] <= intr.height - 2))
    idx = np.flatnonzero(ok)
    _, first = np.unique(pix[idx], axis=0, return_index=True)
    idx = idx[np.sort(first)]           # the first point claims its pixel
    tan2d = tan2d[idx] / np.sqrt(norm2[idx])[:, None]
    n = np.stack([-tan2d[:, 1], tan2d[:, 0]], axis=1)
    x, y = pix[idx, 0].astype(np.int64), pix[idx, 1].astype(np.int64)
    z = cam[idx, 2]
    a_rows, b_rows = flow_rows(intr, x, y, n)
    _, v_body, _, w_body = body_motion(traj, [t])
    mag = a_rows @ v_body[0] / z + b_rows @ w_body[0]
    flip = mag < 0
    n[flip] = -n[flip]
    mag = np.abs(mag)
    keep = mag >= 1e-6
    return FlowBatch(float(t), x[keep], y[keep], n[keep], mag[keep],
                     np.zeros(int(keep.sum())), depth=z[keep],
                     weight=np.ones(int(keep.sum())))


def export_dataset(out_dir, preset, cfg: SimConfig, imu_cfg: ImuConfig,
                   gravity, seed=0, speed=None, omega=None, duration=3.0,
                   imu_noise=True):
    """Generate and write a complete dataset; deterministic given the seed.

    Writes event CSVs for both cameras, the IMU stream, calibration,
    ground-truth velocity/orientation/bias CSVs, and a manifest with the
    seed, the parameters and per-file checksums.
    """
    import os

    from . import dataio

    # the trajectory checks its arguments before anything is written
    traj = make_trajectory(preset, speed=speed, omega=omega, duration=duration)
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rng_scene, rng_events, rng_imu = rng.spawn(3)
    scene = make_scene(preset, traj, cfg, rng_scene)
    rig = default_rig(cfg)
    ev_left, ev_right = generate_stereo_events(scene, traj, rig, cfg, rng_events)
    imu, bias_a, bias_w = generate_imu(traj, imu_cfg, gravity, rng_imu,
                                       noise=imu_noise)
    gt = ground_truth(traj, rate=imu_cfg.rate_hz, bias_acc=bias_a,
                      bias_gyro=bias_w)

    paths = {
        "events_left": os.path.join(out_dir, "events_left.csv"),
        "events_right": os.path.join(out_dir, "events_right.csv"),
        "imu": os.path.join(out_dir, "imu.csv"),
        "calib": os.path.join(out_dir, "calib.cfg"),
        "gt_velocity": os.path.join(out_dir, "gt_velocity.csv"),
        "gt_orientation": os.path.join(out_dir, "gt_orientation.csv"),
        "gt_bias": os.path.join(out_dir, "gt_bias.csv"),
    }
    dataio.write_events_csv(paths["events_left"], ev_left)
    dataio.write_events_csv(paths["events_right"], ev_right)
    dataio.write_imu_csv(paths["imu"], imu)
    dataio.write_calibration(paths["calib"], rig)
    dataio.write_velocity_csv(paths["gt_velocity"], gt.t, gt.v_body)
    dataio.write_orientation_csv(paths["gt_orientation"], gt.t, gt.quat_wb)
    dataio.write_bias_csv(paths["gt_bias"], gt.t,
                          np.concatenate([bias_a, bias_w], axis=1))

    entries = [
        ("seed", seed), ("preset", preset),
        ("speed", traj.max_speed()),
        ("duration", duration),
        ("contrast_threshold", cfg.contrast_threshold),
        ("jitter_std", cfg.jitter_std),
        ("spurious_rate", cfg.spurious_rate),
        ("imu_rate_hz", imu_cfg.rate_hz),
        ("imu_noise", imu_noise),
        ("events_left", len(ev_left)),
        ("events_right", len(ev_right)),
    ]
    manifest = os.path.join(out_dir, "manifest.txt")
    dataio.write_manifest(manifest, entries, sorted(paths.values()))
    return paths | {"manifest": manifest}


def true_depth_at(scene, traj, rig, t, pixels, camera="left", max_px_dist=1.5):
    """Ground-truth depth at given pixels: depth of the nearest projected edge."""
    px, depth, _ = _project_scene_points(scene, traj, rig, t, camera,
                                         per_edge=160)
    pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
    out = np.full(len(pixels), np.nan)
    if len(px) == 0:
        return out
    for i, q in enumerate(pixels):
        d2 = np.sum((px - q[None]) ** 2, axis=1)
        j = int(np.argmin(d2))
        if d2[j] <= max_px_dist ** 2:
            out[i] = depth[j]
    return out


__all__ = [
    "CircularTrajectory", "StraightTrajectory", "Scene", "GroundTruth",
    "make_trajectory", "make_scene", "tilted_edge_scene", "generate_events",
    "generate_stereo_events", "generate_imu", "ground_truth", "body_motion",
    "default_rig", "exact_observations", "true_depth_at",
]
