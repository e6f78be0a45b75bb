"""Instantaneous stereo depth by block matching on time surfaces.

For a static scene the disparity of a point is fixed by its depth, so the
same edge point crosses a left pixel and its disparity-shifted right pixel
at the same instant: matched blocks agree in their window-normalized
timestamp values, not merely in their pattern. The similarity is therefore
an RMSE-based score on those values,

    score = exp(-rmse / value_scale),

computed over pixels stamped inside the window in both cameras. A
mean/scale-normalizing correlation would be blind to a uniform shift of a
timestamp ramp and hence disparity-ambiguous along single straight edges.
The best integer disparity must clear an absolute score threshold and a
ratio margin over the second-best peak, and is refined by a parabolic fit
over the score triplet.
"""

from dataclasses import dataclass

import numpy as np

from .config import DepthConfig
from .geometry import StereoRig
from .normal_flow import FlowBatch
from .time_surface import TimeSurface


@dataclass
class DepthEstimate:
    x: int
    y: int
    depth: float        # m, along the optical axis
    disparity: float    # px, refined; depth * disparity == f * baseline
    score: float        # match confidence in [0, 1]


def _normalize(surface: TimeSurface, window):
    t0, t1 = window
    valid = surface.valid_mask(t0, t1)
    vals = np.where(valid, (surface.stamps - t0) / (t1 - t0), 0.0)
    return vals, valid


def match_block(left: TimeSurface, right: TimeSurface, px, window, rig: StereoRig,
                cfg: DepthConfig = None):
    """Match one left pixel against the same row of the right surface.

    Returns a DepthEstimate, or None when no acceptable correlation peak
    exists. The pixel must be far enough from the borders for the block to
    fit; violating that is a caller error.
    """
    cfg = cfg or DepthConfig()
    x, y = int(px[0]), int(px[1])
    half = cfg.block // 2
    w, h = left.width, left.height
    if not (half <= x < w - half and half <= y < h - half):
        raise ValueError(f"pixel ({x}, {y}) too close to the border for a "
                         f"{cfg.block}x{cfg.block} block")
    disp, score, ok = match_blocks(left, right, np.array([x]), np.array([y]),
                                   window, cfg)
    if not ok[0]:
        return None
    d = float(disp[0])
    return DepthEstimate(x=x, y=y, depth=rig.left.f * rig.baseline / d,
                         disparity=d, score=float(score[0]))


def match_blocks(left: TimeSurface, right: TimeSurface, xs, ys, window,
                 cfg: DepthConfig):
    """Vectorized block matching of left pixels (xs, ys) against x - d in
    the right surface.

    Returns (disparity, score, ok) arrays, one entry per reference pixel;
    `ok` is False where no acceptable, unambiguous peak exists.
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
    lpatch = lv[pys, pxs].reshape(k, block_px)            # (K, P)
    lmask = lm[pys, pxs].reshape(k, block_px)

    # target patches for every disparity
    rx = pxs[:, None, :, :] - disps[None, :, None, None]  # (K, D, B, B)
    ry = np.broadcast_to(pys[:, None, :, :], rx.shape)
    feasible = (rx.min(axis=(2, 3)) >= 0) & (rx.max(axis=(2, 3)) <= right.width - 1)
    rxc = np.clip(rx, 0, right.width - 1)
    rpatch = rv[ry, rxc].reshape(k, d, block_px)          # (K, D, P)
    rmask = rm[ry, rxc].reshape(k, d, block_px)

    both = lmask[:, None, :] & rmask                      # (K, D, P)
    n = both.sum(axis=2)
    enough = (n >= cfg.min_valid_frac * block_px) & feasible & (n >= 4)

    nf = np.maximum(n, 1).astype(float)
    diff = np.where(both, lpatch[:, None, :] - rpatch, 0.0)
    rmse = np.sqrt(np.einsum("kdp,kdp->kd", diff, diff) / nf)
    scores = np.where(enough, np.exp(-rmse / cfg.value_scale), -np.inf)

    rows = np.arange(k)
    best = np.argmax(scores, axis=1)
    best_score = scores[rows, best]
    near = np.abs(np.arange(d)[None, :] - best[:, None]) <= 1
    second = np.where(near, -np.inf, scores).max(axis=1, initial=-np.inf)
    ambiguous = (np.isfinite(second) & (second > 0)
                 & (best_score < cfg.margin * second))
    ok = np.isfinite(best_score) & (best_score >= cfg.score_min) & ~ambiguous

    # parabolic refinement over the score triplet around the peak
    lo = scores[rows, np.maximum(best - 1, 0)]
    hi = scores[rows, np.minimum(best + 1, d - 1)]
    with np.errstate(invalid="ignore"):
        denom = lo - 2.0 * best_score + hi
        refine = ((best > 0) & (best < d - 1) & (best_score < 1.0 - 1e-9)
                  & np.isfinite(lo) & np.isfinite(hi) & (denom < -1e-12))
        delta = 0.5 * (lo - hi) / np.where(refine, denom, -1.0)
    disp = disps[best] + np.where(refine, np.clip(delta, -0.5, 0.5), 0.0)
    return disp, np.clip(best_score, 0.0, 1.0), ok


def associate(flows: FlowBatch, left: TimeSurface, right: TimeSurface, window,
              rig: StereoRig, cfg: DepthConfig = None) -> FlowBatch:
    """Attach stereo depth to the rows of a flow batch.

    Returns the rows that could be matched, with `depth` and `weight` set;
    rows near the border, without events on the right, or with a weak or
    ambiguous correlation are dropped. Weight combines the match score with
    the plane-fit quality: score * exp(-fit_rms / batch_duration).
    """
    cfg = cfg or DepthConfig()
    half = cfg.block // 2
    w, h = left.width, left.height
    flows = flows.subset((flows.x >= half) & (flows.x < w - half)
                         & (flows.y >= half) & (flows.y < h - half))
    disp, score, ok = match_blocks(left, right, flows.x, flows.y, window, cfg)
    tau = window[1] - window[0]
    weight = score * np.exp(-flows.fit_rms / tau)
    ok &= weight > 0
    out = flows.subset(ok)
    out.depth = rig.left.f * rig.baseline / disp[ok]
    out.weight = np.minimum(weight[ok], 1.0)
    return out
