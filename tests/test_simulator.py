import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velometer import simulator
from velometer.config import ImuConfig, SimConfig
from velometer.events import ImuData
from velometer.geometry import flow_rows
from velometer.imu import preintegrate
from velometer.rotations import quat_to_matrix
from velometer.simulator import (CircularTrajectory, Scene,
                                 StraightTrajectory, body_motion, default_rig,
                                 exact_observations, generate_events,
                                 generate_imu, generate_stereo_events,
                                 ground_truth, make_scene, make_trajectory,
                                 tilted_edge_scene, true_depth_at)

GRAVITY = np.array([0.0, 0.0, -9.81])


def rotation_angle(r):
    """Angle in radians of a rotation matrix (0..pi)."""
    return float(np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)))


def small_cfg(**kw):
    return SimConfig(jitter_std=0.0, spurious_rate=0.0, **kw)


def lateral_traj(speed, duration):
    """Camera at origin looking along world +z, translating along world +x.

    With identity orientation the camera frame coincides with the world
    frame, so `tilted_edge_scene` coordinates are directly visible.
    """
    return StraightTrajectory(np.zeros(3), np.array([speed, 0.0, 0.0]),
                              np.eye(3), duration)


class TestTrajectories:
    def test_const_vel_kinematics(self):
        traj = make_trajectory("const-vel", speed=2.0, duration=1.0)
        _, v, _, w = body_motion(traj, [0.3, 0.5])
        assert np.allclose(v, [0, 0, 2.0])
        assert np.allclose(w, 0.0)
        assert np.allclose(traj.motion_batch([0.1])[1], 0.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            make_trajectory("corridor", duration=duration)

    def test_corridor_targets(self):
        traj = make_trajectory("corridor", duration=1.0)
        assert abs(np.linalg.norm(traj.motion_batch(0.2)[0]) - 5.68) < 1e-9
        assert abs(np.linalg.norm(body_motion(traj, 0.2)[3]) - 0.66) < 1e-9
        # body velocity is forward (z) throughout
        for vb in body_motion(traj, [0.0, 0.4, 0.9])[1]:
            assert abs(vb[2] - 5.68) < 1e-9
            assert np.allclose(vb[:2], 0.0, atol=1e-9)

    def test_spin_targets(self):
        traj = make_trajectory("spin", duration=0.5)
        assert abs(np.linalg.norm(traj.motion_batch(0.1)[0]) - 4.94) < 1e-9
        assert abs(np.linalg.norm(body_motion(traj, 0.1)[3]) - 13.3) < 1e-9

    def test_numeric_differentiation_consistency(self):
        # world velocity equals d(position)/dt; body omega matches R' = R [w]x
        for preset in ("const-vel", "corridor", "spin", "boxes"):
            traj = make_trajectory(preset, duration=1.0)
            h = 1e-6
            ts = np.array([0.2, 0.7])
            rs, ps = traj.pose_batch(np.concatenate([ts, ts + h, ts - h]))
            omega_body = body_motion(traj, ts)[3]
            v_world = traj.motion_batch(ts)[0]
            for k in range(len(ts)):
                fd_v = (ps[k + 2] - ps[k + 4]) / (2 * h)
                assert np.allclose(fd_v, v_world[k], atol=1e-6)
                r0, r1 = rs[k], rs[k + 2]
                w_hat = r0.T @ (r1 - r0) / h
                w = np.array([w_hat[2, 1], w_hat[0, 2], w_hat[1, 0]])
                assert np.allclose(w, omega_body[k], atol=1e-4)

    def test_rotation_orthonormal(self):
        for preset in ("corridor", "spin"):
            traj = make_trajectory(preset, duration=1.0)
            for r in traj.pose_batch([0.0, 0.5, 1.0])[0]:
                assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
                assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestEventGeneration:
    def test_static_camera_no_events(self):
        cfg = small_cfg()
        rig = default_rig(cfg)
        traj = lateral_traj(0.0, 0.5)
        scene = tilted_edge_scene(depth=2.0)
        ev = generate_events(scene, traj, rig, cfg)
        assert len(ev) == 0

    @pytest.mark.parametrize("scene", [
        tilted_edge_scene(), Scene(np.empty((0, 2, 3)), np.empty(0))],
        ids=["static-edge", "empty-scene"])
    def test_background_events_without_edge_events(self, scene):
        # no edge fires; the background events are drawn all the same
        cfg = SimConfig(spurious_rate=1000.0)
        traj = StraightTrajectory(np.zeros(3), np.zeros(3), np.eye(3), 0.5)
        ev = generate_events(scene, traj, default_rig(cfg), cfg,
                             np.random.default_rng(4))
        assert abs(len(ev) - 500) <= 5 * np.sqrt(500)
        assert np.all(np.diff(ev["t"]) >= 0)
        assert ev["t"].min() >= 0 and ev["t"].max() <= 0.5
        assert ev["x"].min() >= 0 and ev["x"].max() < cfg.width
        assert ev["y"].min() >= 0 and ev["y"].max() < cfg.height
        assert set(np.unique(ev["p"])) == {-1, 1}

    def test_vertical_edge_crossing_times(self):
        # camera translating +x at 0.5 m/s, vertical edge at depth 2 m:
        # at each event the projected edge column equals the event column
        cfg = small_cfg()
        rig = default_rig(cfg)
        speed = 0.5
        traj = lateral_traj(speed, 1.2)
        scene = tilted_edge_scene(depth=2.0, tilt_deg=0.0, length=2.0,
                                  contrast=0.5)
        ev = generate_events(scene, traj, rig, cfg)
        assert len(ev) > 0
        assert np.all(np.diff(ev["t"]) >= 0)
        intr = rig.left
        sample = ev[:: max(1, len(ev) // 50)]
        for rec, p in zip(sample, traj.pose_batch(sample["t"])[1]):
            cam = np.array([0.0, 0.0, 2.0]) - p   # point on the edge
            u = intr.f * cam[0] / cam[2] + intr.cx
            assert abs(u - rec["x"]) < 1.0

    def test_crossing_times_match_closed_form(self):
        # single pixel, pure x-translation: crossing time of column u is
        # t = (x_edge - Z*(u - cx)/f) / v  with camera at origin moving +x
        cfg = small_cfg()
        rig = default_rig(cfg)
        intr = rig.left
        speed = 0.5
        traj = lateral_traj(speed, 1.2)
        scene = tilted_edge_scene(depth=2.0, tilt_deg=0.0, contrast=0.5)
        ev = generate_events(scene, traj, rig, cfg)
        ev = ev[ev["y"] == 130]
        assert len(ev) > 3
        z = 2.0
        for rec in ev:
            u = rec["x"]
            # camera x at crossing: cam_x = -p_x(t); u = f*(-p_x)/z + cx
            t_pred = -(u - intr.cx) * z / (intr.f * speed)
            assert abs(rec["t"] - t_pred) < 1e-9

    def test_contrast_threshold_event_count(self):
        cfg1 = small_cfg(contrast_threshold=0.5)
        cfg2 = small_cfg(contrast_threshold=1.0)
        rig = default_rig(cfg1)
        traj = lateral_traj(0.5, 1.0)
        scene = tilted_edge_scene(depth=2.0, tilt_deg=20.0, contrast=1.0)
        ev1 = generate_events(scene, traj, rig, cfg1)
        ev2 = generate_events(scene, traj, rig, cfg2)
        assert len(ev1) == 2 * len(ev2)

    def test_events_sorted_and_in_bounds(self):
        cfg = SimConfig(jitter_std=1e-4, spurious_rate=1000.0)
        rig = default_rig(cfg)
        traj = make_trajectory("corridor", speed=3.0, omega=0.6, duration=0.4)
        scene = make_scene("corridor", traj, cfg, np.random.default_rng(0))
        ev = generate_events(scene, traj, rig, cfg, np.random.default_rng(1))
        assert len(ev) > 0
        assert np.all(np.diff(ev["t"]) >= 0)
        assert ev["x"].min() >= 0 and ev["x"].max() < cfg.width
        assert ev["y"].min() >= 0 and ev["y"].max() < cfg.height
        assert set(np.unique(ev["p"])).issubset({-1, 1})

    def test_event_rate_grows_with_speed(self):
        cfg = small_cfg()
        rig = default_rig(cfg)
        rng = np.random.default_rng(2)
        traj_slow = make_trajectory("const-vel", speed=1.0, duration=0.5)
        traj_fast = make_trajectory("const-vel", speed=2.0, duration=0.5)
        scene = make_scene("const-vel", traj_fast, cfg, rng)
        n_slow = len(generate_events(scene, traj_slow, rig, cfg))
        n_fast = len(generate_events(scene, traj_fast, rig, cfg))
        assert n_fast > n_slow

    def test_stereo_depth_disparity_consistency(self):
        # noise-free projections: x_left - x_right == f*b/Z at matched points
        cfg = small_cfg()
        rig = default_rig(cfg)
        traj = lateral_traj(1.0, 0.2)
        scene = tilted_edge_scene(depth=2.0, tilt_deg=15.0)
        t = 0.1
        from velometer.simulator import _project_scene_points
        pl, zl, el = _project_scene_points(scene, traj, rig, t, "left")
        pr, zr, er = _project_scene_points(scene, traj, rig, t, "right")
        m = min(len(pl), len(pr))
        for i in range(m):
            if el[i] != er[i]:
                continue
            # same sample index on the same edge: identical 3D point
            disp = pl[i, 0] - pr[i, 0]
            assert abs(zl[i] * disp - rig.left.f * rig.baseline) < 1e-9


def reference_ragged_pixel_grid(x0, x1, y0, y1):
    """Every pixel of every bounding box, the enumeration the band replaced:
    (box index, px, py) in (box, row, column) order."""
    wx = x1 - x0 + 1
    wy = y1 - y0 + 1
    counts = wx * wy
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, np.int64),) * 3
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    local = np.arange(total) - starts[owner]
    px = x0[owner] + local % wx[owner]
    py = y0[owner] + local // wx[owner]
    return owner, px, py


def whole_boxes(a, b, a1, b1, reach, x0, x1, y0, y1):
    return reference_ragged_pixel_grid(x0, x1, y0, y1)


def crossing_pixels(a, b, a1, b1, reach, x0, x1, y0, y1):
    """(box, px, py) of every box pixel passing the `near` and `hit` tests."""
    owner, px, py = reference_ragged_pixel_grid(x0, x1, y0, y1)
    d, s = simulator._signed_distance(px, py, a[owner], b[owner])
    d1, s1 = simulator._signed_distance(px, py, a1[owner], b1[owner])
    keep = ((np.abs(d) <= reach[owner]) & (s > -0.02) & (s < 1.02)
            & (d * d1 < 0) & (s1 > -0.02) & (s1 < 1.02))
    return owner[keep], px[keep], py[keep]


class TestBandEnumeration:
    """The swept-band enumeration against every pixel of the bounding box."""

    def assert_same_events(self, scene, traj, cfg, camera="left"):
        rig = default_rig(cfg)
        got = generate_events(scene, traj, rig, cfg,
                              np.random.default_rng(5), camera)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_band_pixels", whole_boxes)
            want = generate_events(scene, traj, rig, cfg,
                                   np.random.default_rng(5), camera)
        assert len(want) > 0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tilt", [15.0, 30.0, -50.0, 80.0])
    @pytest.mark.parametrize("jitter", [0.0, 1e-4])
    def test_tilted_edges(self, tilt, jitter):
        scene = tilted_edge_scene(depth=2.0, tilt_deg=tilt, length=0.8,
                                  n_edges=3, spacing=0.3)
        self.assert_same_events(scene, lateral_traj(0.8, 0.1),
                                SimConfig(jitter_std=jitter, spurious_rate=0.0))

    def test_vertical_and_horizontal_edges(self):
        # image-aligned edges: one slab has a zero coefficient along x
        edges = [[[0.1, -0.3, 2.0], [0.1, 0.3, 2.0]],      # vertical
                 [[-0.4, 0.2, 2.5], [0.4, 0.2, 2.5]]]       # horizontal
        scene = Scene(edges, [1.0, -1.0])
        traj = StraightTrajectory(np.zeros(3), np.array([0.5, 0.4, 0.0]),
                                  np.eye(3), 0.1)
        self.assert_same_events(scene, traj, small_cfg())

    @pytest.mark.parametrize("p, v", [
        ([-0.015, 0.066, 1.086], [0.06, -0.57, 0.0]),
        ([-0.009, -0.073, 1.082], [-0.36, -0.29, 0.0]),
        ([0.089, 0.03, 1.209], [-0.52, -0.54, 0.0]),
    ])
    def test_edge_along_optical_axis(self, p, v):
        # the edge lies on a ray of the camera at t = 0, so its projection
        # starts shorter than 1e-12 px; the first step fires events
        p = np.array(p)
        scene = Scene([[p, 2 * p + [1e-15, 0.0, 0.0]]], [1.0])
        traj = StraightTrajectory(np.zeros(3), np.array(v), np.eye(3), 0.02)
        self.assert_same_events(scene, traj, small_cfg())

    def test_zero_length_projection(self):
        scene = Scene([[[0.0, 0.0, 2.0], [0.0, 0.0, 4.0]],
                       [[0.2, -0.2, 2.0], [0.25, 0.2, 2.0]]], [1.0, 1.0])
        self.assert_same_events(scene, lateral_traj(0.4, 0.05), small_cfg())

    def test_edges_partly_outside_the_frame(self):
        scene = tilted_edge_scene(depth=1.0, tilt_deg=25.0, length=3.0,
                                  n_edges=2, spacing=1.2)
        self.assert_same_events(scene, lateral_traj(0.6, 0.05), small_cfg())

    def test_right_camera_and_preset_scene(self):
        cfg = SimConfig(spurious_rate=100.0)
        traj = make_trajectory("const-vel", duration=0.05)
        scene = make_scene("const-vel", traj, cfg, np.random.default_rng(4))
        self.assert_same_events(scene, traj, cfg, camera="right")

    def test_slope_sign_change_within_a_step(self):
        # the camera rolls about its optical axis, so each edge's projection
        # turns through image-horizontal and -vertical; in those steps the
        # distance slopes along x at both step ends have opposite signs
        edges = [[[0.3, 0.15, 2.0], [0.8, 0.2, 2.0]],
                 [[-0.6, -0.3, 2.5], [-0.2, -0.5, 2.5]],
                 [[0.1, -0.5, 1.5], [0.15, -0.1, 1.5]]]
        scene = Scene(edges, [1.0, -1.0, 1.0])
        traj = CircularTrajectory(np.zeros(3), np.zeros(3),
                                  np.array([0.0, 0.0, 6.0]), np.eye(3), 0.6)
        self.assert_same_events(scene, traj, small_cfg())

    def test_band_holds_every_crossing_pixel(self):
        rng = np.random.default_rng(8)
        n = 600
        a = rng.uniform(-40.0, 140.0, (n, 2))
        b = a + rng.normal(0.0, 30.0, (n, 2)) * rng.uniform(0, 1, (n, 1)) ** 3
        b[:40, 0] = a[:40, 0]                   # vertical
        b[40:80, 1] = a[40:80, 1]               # horizontal
        b[80:100] = a[80:100] + 1e-13           # degenerate
        b[100:110] = a[100:110]
        # the step end: each endpoint moves by up to a few pixels
        a1 = a + rng.normal(0.0, 2.0, (n, 2))
        b1 = b + rng.normal(0.0, 2.0, (n, 2))
        b1[110:150, 0] = a1[110:150, 0]         # vertical at the step end
        b1[150:190, 1] = a1[150:190, 1]         # horizontal at the step end
        b1[190:210] = a1[190:210] + 1e-13       # degenerate at the step end
        b1[210:220] = a1[210:220]
        # the slope of the line flips within the step
        b1[220:320] = a1[220:320] + (b - a)[220:320] * [1.0, -1.0]
        b1[320:340] = a1[320:340] + (b - a)[320:340] * [-1.0, 1.0]
        reach = np.maximum(np.linalg.norm(a1 - a, axis=1),
                           np.linalg.norm(b1 - b, axis=1)) + 1.5
        lo = np.minimum(np.minimum(a, b), np.minimum(a1, b1)) - 1
        hi = np.maximum(np.maximum(a, b), np.maximum(a1, b1)) + 1
        x0 = np.clip(np.floor(lo[:, 0]), 0, 99)
        x1 = np.clip(np.ceil(hi[:, 0]), 0, 99)
        y0 = np.clip(np.floor(lo[:, 1]), 0, 79)
        y1 = np.clip(np.ceil(hi[:, 1]), 0, 79)
        box = tuple(v.astype(np.int64) for v in (x0, x1, y0, y1))
        owner, px, py = reference_ragged_pixel_grid(*box)
        first = np.unique(owner, return_index=True)[1]
        # put a box pixel exactly on a root of the step-end distance, where
        # rounding decides the sign of d1 ...
        pick = first[1:200:3]
        i = owner[pick]
        on_line = np.stack([px[pick], py[pick]], axis=1).astype(float)
        lam = rng.uniform(-0.2, 1.2, len(i))[:, None]
        u1 = b1[i] - a1[i]
        a1[i] = on_line - lam * u1
        b1[i] = a1[i] + u1
        # ... or of the start distance
        pick = first[2:200:3]
        i = owner[pick]
        on_line = np.stack([px[pick], py[pick]], axis=1).astype(float)
        lam = rng.uniform(-0.2, 1.2, len(i))[:, None]
        move = on_line - lam * (b[i] - a[i]) - a[i]
        for pts in (a, b, a1, b1):
            pts[i] += move
        # put a crossing pixel exactly on the distance bound: the segment
        # moves across it to the mirrored distance
        pick = first[200::2]
        i = owner[pick]
        d, _ = simulator._signed_distance(px[pick], py[pick], a[i], b[i])
        far = np.abs(d) > 0.5
        i, d = i[far], d[far]
        u = b[i] - a[i]
        normal = np.stack([-u[:, 1], u[:, 0]], axis=1) / np.linalg.norm(
            u, axis=1)[:, None]
        a1[i] = a[i] + 2 * d[:, None] * normal
        b1[i] = b[i] + 2 * d[:, None] * normal
        reach[i] = np.abs(d)

        band = simulator._band_pixels(a, b, a1, b1, reach, *box)
        keys = np.stack(band, axis=1)
        assert len(np.unique(keys, axis=0)) == len(keys)
        # (box, row, column) order
        order = np.lexsort((keys[:, 1], keys[:, 2], keys[:, 0]))
        assert np.array_equal(order, np.arange(len(keys)))
        grid = {tuple(k) for k in np.stack(
            reference_ragged_pixel_grid(*box), axis=1)}
        assert {tuple(k) for k in keys} <= grid
        crossing = np.stack(crossing_pixels(a, b, a1, b1, reach, *box), axis=1)
        assert len(crossing) > 0
        missing = {tuple(k) for k in crossing} - {tuple(k) for k in keys}
        assert not missing
        assert len(keys) < 0.5 * len(grid)


class TestBandTightness:
    def test_band_holds_few_more_than_the_crossing_pixels(self):
        # the pinned 0.1 s boxes scene of TestEventDigests
        cfg = SimConfig()
        rng_scene, rng_events = np.random.default_rng(0).spawn(2)
        traj = make_trajectory("boxes", duration=0.1)
        scene = make_scene("boxes", traj, cfg, rng_scene)
        band_pixels = simulator._band_pixels
        calls = []

        def recording_band(*args):
            band = band_pixels(*args)
            calls.append((args, len(band[0])))
            return band

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_band_pixels", recording_band)
            generate_stereo_events(scene, traj, default_rig(cfg), cfg,
                                   rng_events)
        band = sum(n for _, n in calls)
        crossing = sum(len(crossing_pixels(*args)[0]) for args, _ in calls)
        assert crossing > 1000
        assert band <= 1.3 * crossing


def reference_band_pixels(a, b, a1, b1, reach, x0, x1, y0, y1):
    """The band enumeration before the root-interval row filter: all four
    slabs on every row of the start-of-step rectangle's y-range."""
    def row_tangent(a, b, row):
        u = b - a
        ln = np.hypot(u[:, 0], u[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            tx, ty = (u / ln[:, None])[row].T
        return tx, ty, ln[row]

    eps, margin = simulator._SLAB_EPS, simulator._BAND_MARGIN
    u = b - a
    ln = np.hypot(u[:, 0], u[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        half = reach * np.abs(u[:, 0]) / ln + margin
    ends = (-0.02 * u[:, 1], 1.02 * u[:, 1])
    rect = ln >= 1e-12
    y_lo = np.ceil(a[:, 1] + np.minimum(*ends) - half)
    y_hi = np.floor(a[:, 1] + np.maximum(*ends) + half)
    y0 = np.where(rect, np.maximum(y0, y_lo), y0).astype(np.int64)
    y1 = np.where(rect, np.minimum(y1, y_hi), y1).astype(np.int64)
    row, py = simulator._ragged_ranges(y0, y1)
    tx, ty, ln = row_tangent(a, b, row)
    tx1, ty1, ln1 = row_tangent(a1, b1, row)
    reach = reach[row]
    ok, ok1 = ln >= 1e-12, ln1 >= 1e-12
    ax = a[row, 0]
    dy = py - a[row, 1]
    dy1 = py - a1[row, 1]
    shift = a1[row, 0] - ax
    roots = (ok & ok1 & (np.abs(ty) >= eps) & (np.abs(ty1) >= eps)
             & (ty * ty1 > 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r0, r1 = tx * dy / ty, shift + tx1 * dy1 / ty1
    c1 = tx1 * shift - ty1 * dy1
    lo = np.full(len(row), -np.inf)
    hi = np.full(len(row), np.inf)
    for coef, c_lo, c_hi, cut in (
            (-ty, -reach - tx * dy, reach - tx * dy, ok),
            (tx, -0.02 * ln - ty * dy, 1.02 * ln - ty * dy, ok),
            (tx1, c1 - 0.02 * ln1, c1 + 1.02 * ln1, ok1),
            (1.0, r0, r1, roots)):
        cut = cut & (np.abs(coef) >= eps)
        coef = np.where(cut, coef, 1.0)
        q_lo, q_hi = c_lo / coef, c_hi / coef
        lo = np.where(cut, np.maximum(lo, np.minimum(q_lo, q_hi)), lo)
        hi = np.where(cut, np.minimum(hi, np.maximum(q_lo, q_hi)), hi)
    xs = np.maximum(np.ceil(ax + lo - margin), x0[row]).astype(np.int64)
    xe = np.minimum(np.floor(ax + hi + margin), x1[row]).astype(np.int64)
    span, px = simulator._ragged_ranges(xs, xe)
    return row[span], px, py[span]


def assert_band_matches_reference(*args):
    got = simulator._band_pixels(*args)
    want = reference_band_pixels(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return len(want[0])


# the ways a random box is made to sit on an edge case of the band
BOX_KINDS = ("short", "short_end", "zero", "flat", "flat_end", "flip",
             "vertical", "on_pixel", "on_pixel_end", "still")


def random_boxes(seed, n, kinds):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-40.0, 140.0, (n, 2))
    u = rng.normal(0.0, 30.0, (n, 2)) * rng.uniform(0, 1, (n, 1)) ** 3
    a1 = a + rng.normal(0.0, 2.0, (n, 2))
    u1 = u + rng.normal(0.0, 0.5, (n, 2))
    for kind in kinds:
        i = rng.random(n) < 0.5
        if kind == "short":             # shorter than 1e-12 px
            u[i] = rng.uniform(-1.0, 1.0, (i.sum(), 2)) * 5e-13
        elif kind == "short_end":
            u1[i] = rng.uniform(-1.0, 1.0, (i.sum(), 2)) * 5e-13
        elif kind == "zero":
            u[i] = 0.0
        elif kind == "flat":            # |ty| < _SLAB_EPS
            u[i, 1] = u[i, 0] * rng.uniform(-1.0, 1.0, i.sum()) * 1e-6
        elif kind == "flat_end":
            u1[i, 1] = u1[i, 0] * rng.uniform(-1.0, 1.0, i.sum()) * 1e-6
        elif kind == "flip":            # ty * ty1 < 0
            u1[i] = u[i] * [1.0, -1.0]
        elif kind == "vertical":
            u[i, 0] = 0.0
        elif kind == "on_pixel":        # the lines pass through pixel centres
            a[i] = np.round(a[i])
        elif kind == "on_pixel_end":
            a1[i] = np.round(a1[i])
        elif kind == "still":
            a1[i], u1[i] = a[i], u[i]
    b, b1 = a + u, a1 + u1
    reach = np.maximum(np.linalg.norm(a1 - a, axis=1),
                       np.linalg.norm(b1 - b, axis=1)) + 1.5
    lo = np.minimum(np.minimum(a, b), np.minimum(a1, b1)) - 1
    hi = np.maximum(np.maximum(a, b), np.maximum(a1, b1)) + 1
    box = (np.clip(np.floor(lo[:, 0]), 0, 99), np.clip(np.ceil(hi[:, 0]), 0, 99),
           np.clip(np.floor(lo[:, 1]), 0, 79), np.clip(np.ceil(hi[:, 1]), 0, 79))
    return (a, b, a1, b1, reach) + tuple(v.astype(np.int64) for v in box)


class TestBandMatchesReference:
    """The row-filtered band enumerates exactly the pixels, in exactly the
    order, of the band without the filter; the jitter draws follow that
    order."""

    @pytest.mark.parametrize("preset", ["const-vel", "boxes"])
    def test_pinned_scenes(self, preset):
        # the pinned 0.1 s scenes of TestEventDigests, both cameras
        cfg = SimConfig()
        rng_scene, rng_events = np.random.default_rng(0).spawn(2)
        traj = make_trajectory(preset, duration=0.1)
        scene = make_scene(preset, traj, cfg, rng_scene)
        calls = []

        def recording_band(*args):
            calls.append(args)
            return reference_band_pixels(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_band_pixels", recording_band)
            generate_stereo_events(scene, traj, default_rig(cfg), cfg,
                                   rng_events)
        assert len(calls) >= 2
        assert sum(assert_band_matches_reference(*args)
                   for args in calls) > 1000

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60),
           st.lists(st.sampled_from(BOX_KINDS), max_size=4))
    def test_random_boxes(self, seed, n, kinds):
        assert_band_matches_reference(*random_boxes(seed, n, kinds))

    def test_every_kind_of_box(self):
        args = random_boxes(3, 400, BOX_KINDS)
        a, b, a1, b1 = args[:4]
        ln = np.hypot(*(b - a).T)
        with np.errstate(invalid="ignore"):
            ty = (b - a)[:, 1] / ln
            ty1 = (b1 - a1)[:, 1] / np.hypot(*(b1 - a1).T)
        assert np.any(ln < 1e-12)
        assert np.any((ln >= 1e-12) & (np.abs(ty) < simulator._SLAB_EPS))
        assert np.any(ty * ty1 < 0)
        assert assert_band_matches_reference(*args) > 100


def reference_project_edges(rs, ps, edges, intr, z_near):
    """Endpoint projection with einsum, before the per-axis planes."""
    rel0 = edges[None, :, 0, :] - ps[:, None, :]
    rel1 = edges[None, :, 1, :] - ps[:, None, :]
    c0 = np.einsum("kji,kej->kei", rs, rel0)
    c1 = np.einsum("kji,kej->kei", rs, rel1)
    valid = (c0[..., 2] > z_near) & (c1[..., 2] > z_near)
    z0 = np.where(valid, c0[..., 2], 1.0)
    z1 = np.where(valid, c1[..., 2], 1.0)
    a = np.stack([intr.f * c0[..., 0] / z0 + intr.cx,
                  intr.f * c0[..., 1] / z0 + intr.cy], axis=-1)
    b = np.stack([intr.f * c1[..., 0] / z1 + intr.cx,
                  intr.f * c1[..., 1] / z1 + intr.cy], axis=-1)
    return a, b, valid


class TestProjectEdges:
    """The per-axis projection rounds exactly as the einsum it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_poses(self, seed):
        rng = np.random.default_rng(seed)
        k, e = 70, 45
        quats = rng.normal(size=(k, 4))
        rs = np.stack([quat_to_matrix(q / np.linalg.norm(q)) for q in quats])
        ps = rng.normal(0.0, 3.0, (k, 3))
        edges = rng.normal(0.0, 4.0, (e, 2, 3))
        intr = default_rig(SimConfig()).left
        got = simulator._project_edges(rs, ps, edges, intr, 0.25)
        want = reference_project_edges(rs, ps, edges, intr, 0.25)
        assert 0 < want[2].sum() < want[2].size
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("preset", ["const-vel", "corridor", "spin"])
    def test_trajectory_poses(self, preset):
        # a straight path broadcasts one rotation over all poses
        cfg = SimConfig()
        traj = make_trajectory(preset, duration=0.5)
        scene = make_scene(preset, traj, cfg, np.random.default_rng(2))
        rs, ps = simulator._camera_positions(
            traj, np.linspace(0.0, 0.5, 257), cfg.baseline)
        intr = default_rig(cfg).right
        got = simulator._project_edges(rs, ps, scene.edges, intr, cfg.z_near)
        want = reference_project_edges(rs, ps, scene.edges, intr, cfg.z_near)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def plane_side_cases():
    tilted = simulator._look_rotation([0.3, 1.0, -0.2])
    return [
        make_trajectory("const-vel", duration=1.0),
        StraightTrajectory([0.4, -0.3, 0.2], [0.5, -1.2, 0.8], tilted, 1.0),
        make_trajectory("boxes", duration=2.5),
        make_trajectory("spin", duration=2.5),
        CircularTrajectory([0.3, -0.2, 0.5], [1.0, 0.5, -0.2],
                           [0.5, -1.0, 2.0], tilted, 2.5),
    ]


class TestPlaneSide:
    """The closed-form side a trajectory gives the crossing bisection has
    the sign of the pixel's image distance to the projected segment."""

    @pytest.mark.parametrize("traj", plane_side_cases())
    @pytest.mark.parametrize("camera", ["left", "right"])
    def test_sign_matches_signed_distance(self, traj, camera):
        cfg = SimConfig()
        rig = default_rig(cfg)
        intr = rig.left if camera == "left" else rig.right
        offset = 0.0 if camera == "left" else rig.baseline
        rng = np.random.default_rng(12)
        n = 300
        t = rng.uniform(0.0, traj.duration, n)
        rs, ps = simulator._camera_positions(traj, t, offset)
        # one segment and one pixel per time, both endpoints in front
        lo, hi = [-3.0, -2.0, cfg.z_near], [3.0, 2.0, 5.0]
        cam = rng.uniform(lo, hi, (n, 2, 3))
        edges = ps[:, None] + np.einsum("kij,kej->kei", rs, cam)
        px = rng.uniform(0, cfg.width - 1, n).round()
        py = rng.uniform(0, cfg.height - 1, n).round()
        a, b, valid = simulator._project_edges(rs, ps, edges, intr, cfg.z_near)
        k = np.arange(n)
        assert valid[k, k].all()
        d, _ = simulator._signed_distance(px, py, a[k, k], b[k, k])
        rays = np.stack([px - intr.cx, py - intr.cy, np.full(n, intr.f)],
                        axis=1)
        side = traj.plane_side(edges[:, 0], edges[:, 1], rays, offset)(t)
        clear = np.abs(d) > 1e-6
        assert clear.sum() > 0.9 * n
        assert np.array_equal(np.sign(side[clear]), np.sign(d[clear]))


def stereo_digest(preset, cfg):
    """SHA-256 of both event streams of a seed-0 0.1 s preset scene."""
    rng_scene, rng_events = np.random.default_rng(0).spawn(2)
    traj = make_trajectory(preset, duration=0.1)
    scene = make_scene(preset, traj, cfg, rng_scene)
    left, right = generate_stereo_events(scene, traj, default_rig(cfg), cfg,
                                         rng_events)
    return hashlib.sha256(left.tobytes() + right.tobytes()).hexdigest()


class TestEventDigests:
    """The event streams of short preset scenes, pinned byte for byte, so
    that a speed-up of the crossing search cannot change an event."""

    @pytest.mark.parametrize("preset, digest", [
        ("const-vel",
         "9c8395235b9ab33d9f25ed10b180192340a40ad0575167240b66f30862a34549"),
        ("boxes",
         "0fde4336906e85796fd7c95a109ea904ca845b3d005a148013be537c932af034"),
    ])
    def test_stereo_events_pinned(self, preset, digest):
        assert stereo_digest(preset, SimConfig()) == digest

    @pytest.mark.parametrize("preset, spurious_rate, digest", [
        ("boxes", 5000.0,
         "584c3eb62484662b6a2fda84405c8427969021b80783847833a622720a1cec92"),
        ("spin", 0.0,
         "51af92d3f3e9d6e1384a6bb51dc1f6f5037ed97aafd9ad74e12e6a0963fe6aaa"),
    ])
    def test_random_draw_order_pinned(self, preset, spurious_rate, digest):
        # the jitter is drawn in candidate order and every spurious event
        # after it; reordering either changes these streams
        cfg = SimConfig(spurious_rate=spurious_rate)
        assert stereo_digest(preset, cfg) == digest


def array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def flow_digest(batch):
    """SHA-256 of a flow batch's time and array fields; a field left as
    None is skipped, since its bytes would be a pointer."""
    fields = (batch.x, batch.y, batch.direction, batch.magnitude,
              batch.fit_rms, batch.depth, batch.weight)
    return array_digest(np.float64(batch.t),
                        *(f for f in fields if f is not None))


@pytest.fixture(scope="module")
def long_corridor():
    """The 15 s seed-0 corridor scene, drawn as `export_dataset` draws it."""
    cfg = SimConfig()
    traj = make_trajectory("corridor", duration=15.0)
    scene = make_scene("corridor", traj, cfg,
                       np.random.default_rng(0).spawn(3)[0])
    return scene, traj, default_rig(cfg)


class TestTruthDigests:
    """IMU streams, ground truth and exact observations pinned byte for
    byte, so that a change of how the trajectories answer their queries
    cannot change a sample."""

    @pytest.mark.parametrize("preset, imu_digest, gt_digest", [
        ("const-vel",
         "fbf217c1a5b734cbf8398b09f59bead8d1459c9717abc68a8ad1dee6608d8714",
         "f22ed12ac3b883d73212c9b689a3154d6d3dbf970492d473526bd8809fb5d6cf"),
        ("corridor",
         "77679cbd3bda42a3af662dbd01c5354086268a58caddf5ce8a6487ce8981fc37",
         "080acc8abe7ed6470a6ffedc2c8a0f626af7abe3bc970561846557e99fc27cda"),
        ("boxes",
         "09c7a2551fe3190e1709af35caf3fd461bb07e57c34b2c0a00462b8f46d61995",
         "76530d3bf50ddc047be3431983b4c99cd5e5bc4bd0b1d29635bcbb1b8a5fb331"),
        ("spin",
         "6de998b9af3b980068dca5c5070f9d31b6965c383bd9612464fa3708a9968a5a",
         "4947b7d939e47937f1b1241fd8401679c2f680af2630327477100ae37aa0e2e3"),
    ])
    def test_imu_and_ground_truth_pinned(self, preset, imu_digest, gt_digest):
        cfg = ImuConfig()
        traj = make_trajectory(preset, duration=2.5)
        imu, ba, bw = generate_imu(traj, cfg, GRAVITY,
                                   np.random.default_rng(5))
        gt = ground_truth(traj, rate=cfg.rate_hz, bias_acc=ba, bias_gyro=bw)
        assert array_digest(imu.t, imu.accel, imu.gyro, ba, bw) == imu_digest
        assert array_digest(gt.t, gt.v_body, gt.quat_wb) == gt_digest

    @pytest.mark.parametrize("t, rows, digest", [
        (0.0, 59,
         "cafb84568b9082ea2803c8aeb1a7484cf8732a8ac649c1958104a6b9b0310d3e"),
        (3.7, 60,
         "f44bddc60202f0163a31569dae69c2cea3b4111a84a17c8f3731643d5140375f"),
        (7.4, 60,
         "a6af05a63914fc3efee5fbfc94fc61eff4f0a5cfa8bc17f848a16c7f0ff4ba93"),
        (11.1, 59,
         "883291f20aae18338308530c48e5883ac3d7fbf46c28997fdc746bd1ebbeb145"),
        (15.0, 59,
         "51a8457d23b86723223aa7e80fd6b31c1ee73bb09e942a4ced312c93d3c9b180"),
    ])
    def test_exact_observations_pinned(self, long_corridor, t, rows, digest):
        obs = exact_observations(*long_corridor, t)
        assert len(obs) == rows
        assert flow_digest(obs) == digest


class TestRowBudget:
    def test_groups_are_consecutive_and_within_budget(self):
        groups = simulator._row_groups(np.array([3, 5, 2, 9, 1, 1, 4]), 8)
        assert [(g.start, g.stop) for g in groups] == [
            (0, 2), (2, 3), (3, 4), (4, 7)]

    @pytest.mark.parametrize("scene, traj, budget", [
        (tilted_edge_scene(depth=2.0, tilt_deg=30.0, length=0.8, n_edges=3,
                           spacing=0.3), lateral_traj(0.8, 0.05), 1),
        (None, make_trajectory("const-vel", duration=0.05), 700),
    ], ids=["one-box-per-group", "few-boxes-per-group"])
    def test_split_does_not_change_events(self, scene, traj, budget):
        # each scene's chunk fits the default budget in one group; groups
        # follow (step, edge) order and draw their jitter in it, so a box
        # per group or a few give the same stream
        cfg = SimConfig(spurious_rate=500.0)
        if scene is None:
            scene = make_scene("const-vel", traj, cfg,
                               np.random.default_rng(1))
        rig = default_rig(cfg)
        want = generate_events(scene, traj, rig, cfg, np.random.default_rng(2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_ROW_BUDGET", budget)
            got = generate_events(scene, traj, rig, cfg,
                                  np.random.default_rng(2))
        assert len(want) > 1000
        assert np.array_equal(got, want)


class TestGenerationMemory:
    def test_peak_follows_the_returned_stream(self):
        # events are emitted group by group of (step, edge) boxes, so the
        # working memory is a few times the returned stream; keeping every
        # crossing candidate to the end took 13.6 times it here
        cfg = SimConfig()
        rng_scene, rng_events = np.random.default_rng(0).spawn(2)
        traj = make_trajectory("corridor", duration=1.0)
        scene = make_scene("corridor", traj, cfg, rng_scene)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ev = generate_events(scene, traj, default_rig(cfg), cfg,
                                 rng_events)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(ev) > 100_000
        assert peak <= 6 * ev.nbytes


class TestImuGeneration:
    def test_stationary_reading(self):
        traj = make_trajectory("const-vel", speed=0.0, duration=0.2)
        imu, ba, bw = generate_imu(traj, ImuConfig(), GRAVITY,
                                   np.random.default_rng(0), noise=False)
        # specific force of a stationary sensor: -R^T g = +9.81 up (body y down)
        r = traj.pose_batch(0.0)[0][0]
        expected = -r.T @ GRAVITY
        assert np.allclose(imu.accel, expected[None, :], atol=1e-12)
        assert np.allclose(imu.gyro, 0.0)

    def test_integration_recovers_velocity(self):
        traj = make_trajectory("corridor", speed=3.0, omega=0.8, duration=0.6)
        imu, _, _ = generate_imu(traj, ImuConfig(rate_hz=200.0), GRAVITY,
                                 noise=False)
        t0, t1 = 0.2, 0.45
        pre = preintegrate(imu, np.array([t0]), np.array([t1]),
                           np.zeros((1, 6)), ImuConfig(rate_hz=200.0))
        (r0, r1), _ = traj.pose_batch([t0, t1])
        v_world = traj.motion_batch([t0, t1])[0]
        v_pred = v_world[0] + GRAVITY * pre.dt[0] + r0 @ pre.delta_v[0]
        assert np.allclose(v_pred, v_world[1], atol=2e-5)
        r_rel = r0.T @ r1
        assert rotation_angle(quat_to_matrix(pre.delta_q[0]).T @ r_rel) < 1e-5

    def test_noise_statistics(self):
        traj = make_trajectory("const-vel", speed=0.0, duration=50.0)
        cfg = ImuConfig()
        imu, _, _ = generate_imu(traj, cfg, GRAVITY, np.random.default_rng(7))
        clean, _, _ = generate_imu(traj, cfg, GRAVITY, noise=False)
        resid_a = imu.accel - clean.accel
        resid_w = imu.gyro - clean.gyro
        # remove the (growing) bias random walk by differencing
        da = np.diff(resid_a, axis=0) / np.sqrt(2.0)
        dw = np.diff(resid_w, axis=0) / np.sqrt(2.0)
        assert abs(da.std() - cfg.acc_noise) / cfg.acc_noise < 0.05
        assert abs(dw.std() - cfg.gyro_noise) / cfg.gyro_noise < 0.05

    def test_bias_walk_scale(self):
        traj = make_trajectory("const-vel", speed=0.0, duration=50.0)
        cfg = ImuConfig()
        rng = np.random.default_rng(11)
        _, ba, bw = generate_imu(traj, cfg, GRAVITY, rng)
        n = len(ba)
        expected = cfg.acc_bias_std * np.sqrt(n)
        assert 0.2 * expected < np.abs(ba[-1]).max() < 5 * expected


class TestGroundTruthAndBypass:
    def test_ground_truth_rate(self):
        traj = make_trajectory("const-vel", speed=1.0, duration=1.0)
        gt = ground_truth(traj, rate=200.0)
        assert len(gt.t) >= 200
        assert np.allclose(np.diff(gt.t), 1.0 / 200.0)

    def test_exact_observations_match_flow_equation(self):
        cfg = small_cfg()
        rig = default_rig(cfg)
        traj = make_trajectory("corridor", speed=3.0, omega=0.8, duration=0.5)
        scene = make_scene("corridor", traj, cfg, np.random.default_rng(3))
        obs = exact_observations(scene, traj, rig, 0.25, count=40)
        assert len(obs) >= 10
        _, (v,), _, (w,) = body_motion(traj, [0.25])
        for k in range(len(obs)):
            # A and B: the rows of flow_rows at n = (1, 0) and (0, 1)
            a, b = flow_rows(rig.left, np.full(2, obs.x[k]),
                             np.full(2, obs.y[k]), np.eye(2))
            full = a @ v / obs.depth[k] + b @ w
            # n^T flow must equal the stored magnitude up to pixel rounding
            proj = obs.direction[k] @ full
            mag = obs.magnitude[k]
            assert proj > 0
            assert abs(proj - mag) < 0.15 * abs(mag) + 2.0

    def test_true_depth_at_edge_pixels(self):
        cfg = small_cfg()
        rig = default_rig(cfg)
        traj = lateral_traj(1.0, 0.2)
        scene = tilted_edge_scene(depth=2.0, tilt_deg=10.0)
        obs = exact_observations(scene, traj, rig, 0.1, count=10)
        px = list(zip(obs.x, obs.y))
        depths = true_depth_at(scene, traj, rig, 0.1, px)
        for z_obs, z in zip(obs.depth, depths):
            assert np.isfinite(z)
            assert abs(z - z_obs) < 0.05
