import numpy as np
import pytest

from velometer.config import DepthConfig, FlowConfig, SimConfig
from velometer.events import EventBatch, batch_by_count, make_events
from velometer.normal_flow import FlowBatch, process_batch
from velometer.simulator import (StraightTrajectory, default_rig,
                                 generate_stereo_events, tilted_edge_scene,
                                 true_depth_at)
from velometer.stereo import (_CHUNK, _normalize, associate, coincidence_mask,
                              match_blocks)
from velometer.time_surface import SurfacePair, TimeSurface


def textured_surface(width=200, height=120, seed=0, t0=0.0, t1=1.0):
    """Random but smooth timestamp texture covering the whole window."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(t0, t1, (height // 4 + 2, width // 4 + 2))
    up = np.kron(base, np.ones((4, 4)))[:height, :width]
    # smooth a bit so blocks carry structure, not pixel noise
    k = np.ones(5) / 5.0
    for axis in (0, 1):
        up = np.apply_along_axis(lambda m: np.convolve(m, k, mode="same"),
                                 axis, up)
    ts = TimeSurface(width, height, t_ref=t1)
    ts.stamps = np.clip(up, t0 + 1e-6, t1 - 1e-6)
    return ts


def shifted_copy(ts, shift):
    out = TimeSurface(ts.width, ts.height, ts.t_ref)
    out.stamps[:, :] = -np.inf
    if shift > 0:
        out.stamps[:, :-shift] = ts.stamps[:, shift:]
    else:
        out.stamps = ts.stamps.copy()
    return out


def rig_for(ts):
    from velometer.geometry import CameraIntrinsics, StereoRig
    intr = CameraIntrinsics(f=100.0, cx=ts.width / 2, cy=ts.height / 2,
                            width=ts.width, height=ts.height)
    return StereoRig(left=intr, right=intr, baseline=0.12)


def every_disparity(k, cfg):
    """The all-True (K, D) mask: every disparity of every pixel."""
    return np.ones((k, cfg.max_disparity - cfg.min_disparity + 1), dtype=bool)


def match_at(left, right, pixels, window=(0.0, 1.0), cfg=None):
    """match_blocks at a list of (x, y) pixels, over every disparity."""
    cfg = cfg or DepthConfig()
    xs, ys = np.array(pixels, dtype=np.int64).reshape(-1, 2).T
    return match_blocks(left, right, xs, ys, window, cfg,
                        every_disparity(len(xs), cfg))


class TestMatchBlock:
    def test_shifted_copy_recovers_disparity(self):
        left = textured_surface()
        right = shifted_copy(left, 10)   # right image: features at x - 10
        grid = [(x, y) for x in range(60, 140, 10) for y in range(30, 90, 15)]
        disp, score, ok = match_at(left, right, grid)
        assert np.all(np.abs(disp[ok] - 10.0) <= 0.05)
        assert np.all(score[ok] > 0.95)
        assert ok.sum() >= 20

    def test_depth_from_disparity(self):
        left = textured_surface()
        right = shifted_copy(left, 24)
        rig = rig_for(left)   # f=100, baseline=0.12
        disp, _, ok = match_at(left, right, [(100, 60)])
        assert ok[0]
        flows = FlowBatch(1.0, np.array([100]), np.array([60]),
                          np.array([[1.0, 0.0]]), np.array([100.0]),
                          np.array([0.0]))
        depth = associate(flows, left, right, (0.0, 1.0), rig).depth
        assert len(depth) == 1
        assert abs(depth[0] - 100.0 * 0.12 / disp[0]) < 1e-12
        assert abs(depth[0] - 0.5) < 0.02
        assert abs(depth[0] * disp[0] - 100.0 * 0.12) < 1e-12

    def test_border_precondition(self):
        left = textured_surface()
        right = shifted_copy(left, 5)
        with pytest.raises(ValueError):
            match_at(left, right, [(3, 60)])

    @pytest.mark.parametrize("x, y", [(7, 60), (192, 60), (100, 7), (100, 112)])
    def test_match_blocks_border_precondition(self, x, y):
        # one pixel a column or row past where a 17x17 block fits, after
        # pixels that fit, so a wrapped-around read cannot go unnoticed
        left = textured_surface()
        right = shifted_copy(left, 5)
        xs = np.array([100, 8, 191, x])
        ys = np.array([60, 8, 111, y])
        with pytest.raises(ValueError, match=f"pixel \\({x}, {y}\\)"):
            match_blocks(left, right, xs, ys, (0.0, 1.0), DepthConfig(),
                         every_disparity(len(xs), DepthConfig()))

    def test_mask_shape_checked(self):
        left = textured_surface()
        xs, ys = np.array([100, 120]), np.array([60, 60])
        with pytest.raises(ValueError, match="mask of shape"):
            match_blocks(left, shifted_copy(left, 5), xs, ys, (0.0, 1.0),
                         DepthConfig(), np.ones((2, 47), dtype=bool))

    def test_no_events_on_right(self):
        left = textured_surface()
        right = TimeSurface(left.width, left.height)   # all "never"
        _, _, ok = match_at(left, right, [(100, 60)])
        assert not ok[0]

    def test_shift_equivariance(self):
        left = textured_surface(seed=3)
        right = shifted_copy(left, 12)
        a, _, ok_a = match_at(left, right, [(100, 60)])
        # shift both surfaces right by 6 px
        left2 = shifted_copy(left, -0)
        left2.stamps = np.roll(left.stamps, 6, axis=1)
        right2 = shifted_copy(left2, 12)
        b, _, ok_b = match_at(left2, right2, [(106, 60)])
        assert ok_a[0] and ok_b[0]
        assert abs(a[0] - b[0]) < 1e-9

    def test_exact_copy_matches_exactly(self):
        # the Gram expansion of the SSD cancels to rounding on an exact
        # copy; the score must still be 1 and the disparity unrefined
        left = textured_surface()
        right = shifted_copy(left, 10)
        ys, xs = np.mgrid[8:112:6, 8:192:6]
        disp, score, ok = match_at(left, right,
                                   np.column_stack([xs.ravel(), ys.ravel()]))
        assert ok.sum() >= 0.9 * len(ok)
        assert np.all(disp[ok] == 10.0)
        assert np.all(score[ok] == 1.0)

    def test_score_min_monotonicity(self):
        left = textured_surface(seed=4)
        right = shifted_copy(left, 8)
        # corrupt the right surface so scores spread below 1
        rng = np.random.default_rng(0)
        noise = rng.uniform(0, 0.12, right.stamps.shape)
        right.stamps = np.where(np.isfinite(right.stamps),
                                np.clip(right.stamps + noise, 0, 1 - 1e-6),
                                right.stamps)
        xs = np.arange(60, 140, 4)
        ys = np.full_like(xs, 60)
        counts = []
        for smin in (0.2, 0.5, 0.8, 0.95):
            cfg = DepthConfig(score_min=smin)
            _, _, ok = match_at(left, right, np.column_stack([xs, ys]),
                                cfg=cfg)
            counts.append(int(ok.sum()))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def reference_match_blocks(left, right, xs, ys, window, cfg, mask=None):
    """The (K, D, B, B) fancy-index gather that match_blocks replaced.

    Given a (K, D) mask, only the masked disparities and their +-1
    neighbours keep their scores (-inf elsewhere), and the peak and the
    margin test range over the mask alone.
    """
    half = cfg.block // 2
    lv, lm = _normalize(left, window)
    rv, rm = _normalize(right, window)
    k = len(xs)
    disps = np.arange(cfg.min_disparity, cfg.max_disparity + 1)
    d = len(disps)
    off = np.arange(-half, half + 1)
    block_px = cfg.block * cfg.block

    blk = cfg.block
    pys = np.broadcast_to(ys[:, None, None] + off[None, :, None], (k, blk, blk))
    pxs = np.broadcast_to(xs[:, None, None] + off[None, None, :], (k, blk, blk))
    lpatch = lv[pys, pxs].reshape(k, block_px)
    lmask = lm[pys, pxs].reshape(k, block_px)

    rx = pxs[:, None, :, :] - disps[None, :, None, None]
    ry = np.broadcast_to(pys[:, None, :, :], rx.shape)
    feasible = (rx.min(axis=(2, 3)) >= 0) & (rx.max(axis=(2, 3)) <= right.width - 1)
    rxc = np.clip(rx, 0, right.width - 1)
    rpatch = rv[ry, rxc].reshape(k, d, block_px)
    rmask = rm[ry, rxc].reshape(k, d, block_px)

    both = lmask[:, None, :] & rmask
    n = both.sum(axis=2)
    enough = (n >= cfg.min_valid_frac * block_px) & feasible & (n >= 4)

    nf = np.maximum(n, 1).astype(float)
    diff = np.where(both, lpatch[:, None, :] - rpatch, 0.0)
    rmse = np.sqrt(np.einsum("kdp,kdp->kd", diff, diff) / nf)
    scores = np.where(enough, np.exp(-rmse / cfg.value_scale), -np.inf)
    if mask is None:
        mask = np.ones((k, d), dtype=bool)
    scored = mask.copy()
    scored[:, 1:] |= mask[:, :-1]
    scored[:, :-1] |= mask[:, 1:]
    scores = np.where(scored, scores, -np.inf)
    peaks = np.where(mask, scores, -np.inf)

    rows = np.arange(k)
    best = np.argmax(peaks, axis=1)
    best_score = peaks[rows, best]
    near = np.abs(np.arange(d)[None, :] - best[:, None]) <= 1
    second = np.where(near, -np.inf, peaks).max(axis=1, initial=-np.inf)
    ambiguous = (np.isfinite(second) & (second > 0)
                 & (best_score < cfg.margin * second))
    ok = np.isfinite(best_score) & (best_score >= cfg.score_min) & ~ambiguous

    lo = scores[rows, np.maximum(best - 1, 0)]
    hi = scores[rows, np.minimum(best + 1, d - 1)]
    with np.errstate(invalid="ignore"):
        denom = lo - 2.0 * best_score + hi
        refine = ((best > 0) & (best < d - 1) & (best_score < 1.0 - 1e-9)
                  & np.isfinite(lo) & np.isfinite(hi) & (denom < -1e-12))
        delta = 0.5 * (lo - hi) / np.where(refine, denom, -1.0)
    disp = disps[best] + np.where(refine, np.clip(delta, -0.5, 0.5), 0.0)
    return disp, np.clip(best_score, 0.0, 1.0), ok


def with_holes(ts, frac, seed):
    """Copy of ts with a random fraction of pixels set to "never"."""
    out = TimeSurface(ts.width, ts.height, ts.t_ref)
    out.stamps = ts.stamps.copy()
    holes = np.random.default_rng(seed).random(ts.stamps.shape) < frac
    out.stamps[holes] = -np.inf
    return out


class TestStripGather:
    """match_blocks must agree with the per-disparity gather, over every
    disparity unless a test passes a mask.

    The Gram scores sum in another order than the difference volume, so
    disparity and score may differ by rounding. The valid-pixel counts are
    sums of 0/1 products, exact in float64, so `ok` and the pixels without
    any scorable disparity (best score -inf, returned as 0) must be equal.
    """

    def assert_same(self, left, right, xs, ys, cfg, window=(0.0, 1.0),
                    mask=None):
        xs, ys = np.asarray(xs), np.asarray(ys)
        if mask is None:
            mask = every_disparity(len(xs), cfg)
        disp, score, ok = got = match_blocks(left, right, xs, ys, window, cfg,
                                             mask)
        want_disp, want_score, want_ok = reference_match_blocks(
            left, right, xs, ys, window, cfg, mask)
        for g in got:
            assert g.shape == (len(xs),)
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(score == 0.0, want_score == 0.0)
        assert np.allclose(disp, want_disp, rtol=0.0, atol=1e-9)
        assert np.allclose(score, want_score, rtol=0.0, atol=1e-9)
        return got

    def test_holes_in_both_masks(self):
        base = textured_surface(seed=7)
        left = with_holes(base, 0.3, seed=1)
        right = with_holes(shifted_copy(base, 11), 0.3, seed=2)
        rng = np.random.default_rng(3)
        xs = rng.integers(60, 190, 300)
        ys = rng.integers(8, 112, 300)
        _, _, ok = self.assert_same(left, right, xs, ys, DepthConfig())
        assert 0 < ok.sum() < len(xs)

    def test_borders(self):
        left = textured_surface(seed=8)
        right = with_holes(shifted_copy(left, 6), 0.1, seed=4)
        cfg = DepthConfig()
        half = cfg.block // 2
        # left columns where some or all disparities leave the surface,
        # and the last columns a block fits in at the right border
        xs = np.concatenate([np.arange(half, cfg.max_disparity + 2 * half + 2),
                             np.arange(left.width - half - 4, left.width - half)])
        ys = np.resize([half, 60, left.height - half - 1], len(xs))
        _, _, ok = self.assert_same(left, right, xs, ys, cfg)
        assert ok.any()

    def test_min_disparity_above_one(self):
        left = textured_surface(seed=9)
        right = with_holes(shifted_copy(left, 14), 0.2, seed=5)
        cfg = DepthConfig(min_disparity=9, max_disparity=30)
        xs = np.arange(10, 190, 3)
        ys = np.resize(np.arange(10, 110, 7), len(xs))
        disp, _, ok = self.assert_same(left, right, xs, ys, cfg)
        assert np.all(np.abs(disp[ok] - 14.0) < 0.5)

    def test_no_pixels(self):
        left = textured_surface()
        empty = np.empty(0, dtype=np.int64)
        self.assert_same(left, shifted_copy(left, 5), empty, empty,
                         DepthConfig())

    @pytest.mark.parametrize("k", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   3 * _CHUNK + 5])
    def test_chunk_boundaries(self, k):
        base = textured_surface(seed=10)
        left = with_holes(base, 0.2, seed=6)
        right = with_holes(shifted_copy(base, 13), 0.2, seed=7)
        rng = np.random.default_rng(k)
        xs = rng.integers(8, 192, k)
        ys = rng.integers(8, 112, k)
        _, _, ok = self.assert_same(left, right, xs, ys, DepthConfig())
        assert ok.any()

    @pytest.mark.parametrize("block", [5, 9])
    def test_small_blocks(self, block):
        base = textured_surface(seed=11)
        left = with_holes(base, 0.2, seed=8)
        right = with_holes(shifted_copy(base, 4), 0.2, seed=9)
        cfg = DepthConfig(block=block, max_disparity=7)
        half = block // 2
        xs = np.arange(half, left.width - half, 3)
        ys = np.resize(np.arange(half, left.height - half, 5), len(xs))
        disp, _, ok = self.assert_same(left, right, xs, ys, cfg)
        assert np.sum(np.abs(disp[ok] - 4.0) < 0.5) >= 0.5 * len(xs)

    def test_simulated_tilted_edges(self, tilted_edge_pair):
        # real time-surface holes: each camera stamps only where an edge
        # passed during the batch
        flows, left, right, window, _ = tilted_edge_pair
        cfg = DepthConfig()
        half = cfg.block // 2
        inside = ((flows.x >= half) & (flows.x < left.width - half)
                  & (flows.y >= half) & (flows.y < left.height - half))
        _, _, ok = self.assert_same(left, right, flows.x[inside],
                                    flows.y[inside], cfg, window)
        assert 0 < ok.sum() < inside.sum()

    @pytest.mark.parametrize("density", [0.02, 0.2, 0.6])
    def test_random_masks(self, density):
        # masks of every span, empty rows among them, so every strip width
        # and the rows without a candidate are exercised
        base = textured_surface(seed=13)
        left = with_holes(base, 0.2, seed=12)
        right = with_holes(shifted_copy(base, 9), 0.2, seed=13)
        cfg = DepthConfig()
        rng = np.random.default_rng(int(density * 100))
        xs = rng.integers(8, 192, 200)
        ys = rng.integers(8, 112, 200)
        mask = rng.random((200, cfg.max_disparity)) < density
        mask[:20] = False
        _, _, ok = self.assert_same(left, right, xs, ys, cfg, mask=mask)
        assert not ok[:20].any() and ok.any()

    def test_surface_one_block_larger_than_window(self):
        # one block wider than the right strip and two blocks tall, so the
        # window views have few positions and every pixel is near a border
        cfg = DepthConfig(block=5, max_disparity=6)
        strip_w = cfg.block + cfg.max_disparity - cfg.min_disparity
        w, h = strip_w + cfg.block, 2 * cfg.block
        base = textured_surface(width=w, height=h, seed=12)
        left = with_holes(base, 0.1, seed=10)
        right = with_holes(shifted_copy(base, 3), 0.1, seed=11)
        half = cfg.block // 2
        ys, xs = np.mgrid[half:h - half, half:w - half]
        _, _, ok = self.assert_same(left, right, xs.ravel(), ys.ravel(), cfg)
        assert ok.any()


class TestAssociate:
    def flows_at(self, pixels, t=1.0, fit_rms=0.0):
        k = len(pixels)
        xs, ys = np.array(pixels).T
        return FlowBatch(t, xs, ys, np.tile([1.0, 0.0], (k, 1)),
                         np.full(k, 100.0), np.full(k, fit_rms))

    def test_unmatchable_flow_dropped(self):
        left = textured_surface()
        right = TimeSurface(left.width, left.height)
        rig = rig_for(left)
        obs = associate(self.flows_at([(100, 60)]), left, right, (0.0, 1.0), rig)
        assert len(obs) == 0

    def test_all_matched(self):
        left = textured_surface(seed=5)
        right = shifted_copy(left, 9)
        rig = rig_for(left)
        flows = self.flows_at([(x, y) for x in (80, 100, 120) for y in (40, 60, 80)])
        obs = associate(flows, left, right, (0.0, 1.0), rig)
        assert len(obs) == len(flows)
        assert np.all((0 < obs.weight) & (obs.weight <= 1.0))
        assert np.all(obs.depth > 0)

    def test_weight_decays_with_fit_rms(self):
        left = textured_surface(seed=6)
        right = shifted_copy(left, 9)
        rig = rig_for(left)
        clean = self.flows_at([(100, 60)])
        noisy = self.flows_at([(100, 60)], fit_rms=0.5)
        o_clean = associate(clean, left, right, (0.0, 1.0), rig)
        o_noisy = associate(noisy, left, right, (0.0, 1.0), rig)
        assert o_noisy.weight[0] < o_clean.weight[0]


@pytest.fixture(scope="module")
def tilted_edge_pair():
    """Flows of one batch of three tilted edges at 2 m, with both cameras'
    latest-of-either-polarity time surfaces and the batch window."""
    cfg = SimConfig(jitter_std=0.0, spurious_rate=0.0)
    rig = default_rig(cfg)
    traj = StraightTrajectory(np.zeros(3), np.array([0.6, 0.0, 0.0]),
                              np.eye(3), 1.0)
    scene = tilted_edge_scene(depth=2.0, tilt_deg=25.0, length=2.5,
                              contrast=0.5, n_edges=3, spacing=0.8)
    ev_l, ev_r = generate_stereo_events(scene, traj, rig, cfg,
                                        np.random.default_rng(0))
    assert len(ev_l) > 5000 and len(ev_r) > 5000
    fcfg = FlowConfig(batch_size=min(len(ev_l), 20000) - 1)
    left_pair = SurfacePair(cfg.width, cfg.height)
    right = TimeSurface(cfg.width, cfg.height)
    batch = batch_by_count(ev_l, fcfg.batch_size)[0]
    left_pair.update(batch)
    hi = int(np.searchsorted(ev_r["t"], batch.t_end, side="right"))
    chunk = ev_r[:hi]
    right.update(EventBatch(chunk, float(chunk["t"][0]),
                            max(float(chunk["t"][-1]), batch.t_end)))
    flows = process_batch(batch, left_pair, fcfg)
    return (flows, left_pair.combined(), right, (batch.t_start, batch.t_end),
            rig)


class TestSimulatedDepth:
    def test_gate_keeps_the_ungated_matches(self, tilted_edge_pair):
        flows, left, right, window, _ = tilted_edge_pair
        cfg = DepthConfig()
        half = cfg.block // 2
        flows = flows.subset((flows.x >= half) & (flows.x < left.width - half)
                             & (flows.y >= half)
                             & (flows.y < left.height - half))
        args = (left, right, flows.x, flows.y, window, cfg)
        every = every_disparity(len(flows), cfg)
        mask = coincidence_mask(flows, left, right, window, cfg)
        disp, _, ok = match_blocks(*args, every)
        gated, _, gated_ok = match_blocks(*args, mask)
        assert mask.sum() < 0.5 * every.sum()
        assert ok.sum() > 30 and np.all(gated_ok[ok])
        assert np.array_equal(np.round(gated[ok]), np.round(disp[ok]))

    def test_edge_depth_within_five_percent(self, tilted_edge_pair):
        flows, left, right, window, rig = tilted_edge_pair
        assert len(flows) > 30
        obs = associate(flows, left, right, window, rig)
        assert len(obs) >= 0.3 * len(flows)
        good = np.sum(np.abs(obs.depth - 2.0) / 2.0 < 0.05)
        assert good >= 0.8 * len(obs)
