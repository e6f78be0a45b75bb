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
from numpy.lib.stride_tricks import sliding_window_view

from .config import DepthConfig
from .geometry import StereoRig
from .normal_flow import FlowBatch
from .time_surface import TimeSurface

_CHUNK = 32     # reference pixels per block-matching pass


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


def _blocks(strip, block):
    """(K, B, B + D - 1) row strips -> contiguous (K, D, B*B) blocks.

    Window i of a strip starts i columns right of its first column, so the
    windows are reversed to put the rightmost block first.
    """
    win = sliding_window_view(strip, block, axis=2)[:, :, ::-1]  # (K, B, D, B)
    k, _, d, _ = win.shape
    return win.transpose(0, 2, 1, 3).reshape(k, d, block * block)


def match_blocks(left: TimeSurface, right: TimeSurface, xs, ys, window,
                 cfg: DepthConfig):
    """Vectorized block matching of left pixels (xs, ys) against x - d in
    the right surface.

    The right blocks of all D disparities of a pixel lie in one row strip,
    columns x - max_disparity - half through x - min_disparity + half. The
    right surface and its mask are padded on the left by max_disparity +
    half columns of 0.0 / False, so each strip is a plain (B, B + D - 1)
    slice starting at padded column x; its B-wide sliding windows, reversed,
    are the blocks at ascending disparity. Disparities whose block leaves
    the surface are infeasible and score -inf. Pixels are processed in
    chunks of _CHUNK so that the (chunk, D, B*B) arrays stay small.

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
    strip_w = cfg.block + d - 1
    pad = ((0, 0), (cfg.max_disparity + half, 0))
    rv = np.pad(rv, pad)
    rm = np.pad(rm, pad)

    scores = np.empty((k, d))
    for c0 in range(0, k, _CHUNK):
        cx = xs[c0:c0 + _CHUNK]
        cy = ys[c0:c0 + _CHUNK]
        kc = len(cx)
        prow = cy[:, None, None] + off[None, :, None]      # (K, B, 1)
        pcol = cx[:, None, None] + off[None, None, :]      # (K, 1, B)
        lpatch = lv[prow, pcol].reshape(kc, block_px)      # (K, P)
        lmask = lm[prow, pcol].reshape(kc, block_px)

        # target patches for every disparity, from one padded strip per pixel
        scol = cx[:, None, None] + np.arange(strip_w)[None, None, :]
        rpatch = _blocks(rv[prow, scol], cfg.block)        # (K, D, P)
        rmask = _blocks(rm[prow, scol], cfg.block)
        rx = cx[:, None] - disps[None, :]
        feasible = (rx - half >= 0) & (rx + half <= right.width - 1)

        both = lmask[:, None, :] & rmask                  # (K, D, P)
        n = both.sum(axis=2)
        enough = (n >= cfg.min_valid_frac * block_px) & feasible & (n >= 4)

        nf = np.maximum(n, 1).astype(float)
        diff = np.where(both, lpatch[:, None, :] - rpatch, 0.0)
        rmse = np.sqrt(np.einsum("kdp,kdp->kd", diff, diff) / nf)
        scores[c0:c0 + _CHUNK] = np.where(enough, np.exp(-rmse / cfg.value_scale),
                                          -np.inf)

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
