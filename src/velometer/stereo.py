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

The masked SSD is never formed as a difference volume. Invalid pixels carry
the value 0, so with l, lm the left block's values and mask and r_d, rm_d
those of the right block at disparity d,

    SSD_d = sum rm_d l^2 - 2 sum l r_d + sum lm r_d^2,    n_d = sum lm rm_d,

and each sum is a correlation of one left-block channel with one channel of
the row strip that holds all D right blocks (Lewis, "Fast Normalized
Cross-Correlation", 1995). One small matrix product per pixel gives it for
every d at once, as the D diagonals of a Gram matrix.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .config import DepthConfig
from .geometry import StereoRig
from .normal_flow import FlowBatch
from .time_surface import TimeSurface

_CHUNK = 16     # reference pixels per block-matching pass


def _normalize(surface: TimeSurface, window, rows=slice(None)):
    """Window-normalized stamps of the rows `rows`, 0 where invalid, and
    their valid mask."""
    t0, t1 = window
    valid = surface.valid_mask(t0, t1, rows)
    vals = np.where(valid, (surface.stamps[rows] - t0) / (t1 - t0), 0.0)
    return vals, valid


def match_blocks(left: TimeSurface, right: TimeSurface, xs, ys, window,
                 cfg: DepthConfig):
    """Vectorized block matching of left pixels (xs, ys) against x - d in
    the right surface.

    Every pixel's block must fit inside the surface (half <= x < width - half
    and half <= y < height - half); otherwise ValueError.

    Only the band of rows the blocks read, min(ys) - half through
    max(ys) + half, is normalized and padded; row y is row y - min(ys) +
    half of the band. Blocks are read from strided window views, never
    from gathered index tensors. The left block of (x, y) is window
    [y - half, x - half] (in band rows) of the (B, B) sliding-window view
    of the left band. The right blocks of all D disparities of a pixel lie
    in one row strip, columns x - max_disparity - half through
    x - min_disparity + half. The right band and its mask are padded on the
    left by max_disparity + half columns of 0.0 / False, so that strip is
    window [y - half, x] of the (B, B + D - 1) sliding-window view of the
    padded band. One fancy index on the two leading window
    axes copies a chunk of _CHUNK pixels; the masks stay boolean images and
    only their copies become floats.

    Both blocks are first shifted by the mean of the left block's valid
    values, which leaves every SSD unchanged but keeps the expansion's
    terms small. Each term of the expansion is then the Gram matrix
    block^T @ strip, (B, B + D - 1) per pixel, written into one buffer
    allocated once per call; its diagonal at offset o sums the products
    with the right block at strip offset o, which is disparity index
    D - 1 - o. A strided view reads the diagonals, so the (D, B, B) volume
    is never formed. An SSD at the rounding level of its terms is snapped
    to 0, so an exact match scores exactly 1. Disparities whose block leaves
    the surface are infeasible and score -inf.

    Returns (disparity, score, ok) arrays, one entry per reference pixel;
    `ok` is False where no acceptable, unambiguous peak exists.
    """
    half = cfg.block // 2
    w, h = left.width, left.height
    inside = (xs >= half) & (xs < w - half) & (ys >= half) & (ys < h - half)
    if not np.all(inside):
        i = int(np.argmin(inside))
        raise ValueError(f"pixel ({xs[i]}, {ys[i]}) too close to the border "
                         f"for a {cfg.block}x{cfg.block} block")
    k = len(xs)
    if k == 0:
        return np.empty(0), np.empty(0), np.zeros(0, dtype=bool)
    # only the row band the blocks read is normalized and padded
    band = slice(int(ys.min()) - half, int(ys.max()) + half + 1)
    lv, lm = _normalize(left, window, band)
    rv, rm = _normalize(right, window, band)
    disps = np.arange(cfg.min_disparity, cfg.max_disparity + 1)
    d = len(disps)
    blk = cfg.block
    block_px = blk * blk
    pad = ((0, 0), (cfg.max_disparity + half, 0))
    block = (blk, blk)
    strip = (blk, blk + d - 1)
    lwin = sliding_window_view(lv, block)                   # (., ., B, B)
    lmwin = sliding_window_view(lm, block)
    rwin = sliding_window_view(np.pad(rv, pad), strip)      # (., ., B, B+D-1)
    rmwin = sliding_window_view(np.pad(rm, pad), strip)

    # per pixel, the Gram matrices of (l^2, rm), (l, r), (lm, r^2), (lm, rm)
    # and their D diagonals as a view: diag[t, k, o, c] = gram[t, k, c, o + c]
    gram_buf = np.empty((4, _CHUNK) + strip)
    st, sk, sr, sc = gram_buf.strides
    diag_view = as_strided(gram_buf, (4, _CHUNK, d, blk), (st, sk, sc, sr + sc))
    scores = np.empty((k, d))
    for c0 in range(0, k, _CHUNK):
        cx = xs[c0:c0 + _CHUNK]
        cy = ys[c0:c0 + _CHUNK]
        kc = len(cx)
        top = cy - half - band.start
        lpatch = lwin[top, cx - half]                       # (K, B, B)
        lmask = lmwin[top, cx - half].astype(float)
        rpatch = rwin[top, cx]                              # (K, B, B+D-1)
        rmask = rmwin[top, cx].astype(float)
        # shift the valid values of both by the left block's mean
        mu = (lpatch.sum(axis=(1, 2))
              / np.maximum(lmask.sum(axis=(1, 2)), 1.0))[:, None, None]
        lpatch -= mu * lmask
        rpatch -= mu * rmask
        lpatch = lpatch.swapaxes(1, 2)                      # l^T
        lmask = lmask.swapaxes(1, 2)
        np.matmul(lpatch * lpatch, rmask, out=gram_buf[0, :kc])
        np.matmul(lpatch, rpatch, out=gram_buf[1, :kc])
        np.matmul(lmask, rpatch * rpatch, out=gram_buf[2, :kc])
        np.matmul(lmask, rmask, out=gram_buf[3, :kc])
        # diagonal o is the block at strip offset o, i.e. disparity index
        # D - 1 - o: reverse to ascending disparity
        lsq, cross, rsq, n = diag_view[:, :kc].sum(axis=3)[:, :, ::-1]
        ssd = lsq - 2.0 * cross + rsq
        # exact matches cancel only to rounding, maybe below 0: snap to 0
        ssd[ssd <= 64 * np.finfo(float).eps * (lsq + rsq)] = 0.0
        rx = cx[:, None] - disps[None, :]
        feasible = (rx - half >= 0) & (rx + half <= right.width - 1)
        enough = (n >= cfg.min_valid_frac * block_px) & feasible & (n >= 4)

        rmse = np.sqrt(ssd / np.maximum(n, 1.0))
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
