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

The same premise gates the disparities before any block is scored
(temporal coincidence, as in Rogister et al., IEEE TNNLS 2012). A
disparity d is a candidate of a flow row at (x, y) when its right block
fits in the surface and the right stamp at (x - d, y) lies in the window
and within tau of the left stamp at (x, y),

    tau = 3 |n_x| / magnitude + 3 fit_rms + 0.3 ms,

where |n_x| / magnitude is the row's time gradient along x (s/px). The peak
and the margin test range over the candidates and their +-1 px neighbours;
a row without a candidate is not matched.

The masked SSD is never formed as a difference volume. Invalid pixels carry
the value 0, so with l, lm the left block's values and mask and r_d, rm_d
those of the right block at disparity d,

    SSD_d = sum rm_d l^2 - 2 sum l r_d + sum lm r_d^2,    n_d = sum lm rm_d,

and each sum is a correlation of one left-block channel with one channel of
the row strip that holds the right blocks of a run of disparities (Lewis,
"Fast Normalized Cross-Correlation", 1995). One small matrix product per
pixel gives it for every d of the run at once, as the diagonals of a Gram
matrix. A row's strip spans only the disparities it scores, rounded up to
one of a few fixed widths, so gated rows pay for a narrow product.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import DepthConfig
from .geometry import StereoRig
from .normal_flow import FlowBatch
from .time_surface import TimeSurface

_CHUNK = 32             # reference pixels per block-matching pass
_STRIPS = (8, 16, 24, 32)   # strip widths in disparities, below the full range

# the gate's tolerance between the left stamp and a right stamp: multiples
# of the row's time gradient along x and of its plane-fit rms, plus a floor
_TAU_GRADIENT = 3.0
_TAU_FIT_RMS = 3.0
_TAU_FLOOR = 3e-4       # s


def _normalize(surface: TimeSurface, window, rows=slice(None), pad=0):
    """Window-normalized stamps of the rows `rows`, 0 where invalid, and
    their valid mask, both preceded by `pad` columns of 0 / False."""
    t0, t1 = window
    stamps = surface.stamps[rows]
    vals = np.zeros((stamps.shape[0], pad + stamps.shape[1]))
    valid = np.zeros(vals.shape, dtype=bool)
    valid[:, pad:] = (stamps >= t0) & (stamps <= t1)
    np.divide(stamps - t0, t1 - t0, out=vals[:, pad:], where=valid[:, pad:])
    return vals, valid


def block_rows(ys, cfg: DepthConfig):
    """The rows of the surfaces that the blocks of pixels in rows `ys`
    read, as a slice: min(ys) - half through max(ys) + half."""
    if len(ys) == 0:
        return slice(0, 0)
    half = cfg.block // 2
    return slice(max(int(ys.min()) - half, 0), int(ys.max()) + half + 1)


def _dilate(mask):
    """The mask or its left or right neighbour, along the last axis."""
    out = mask.copy()
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def match_blocks(left: TimeSurface, right: TimeSurface, xs, ys, window,
                 cfg: DepthConfig, mask):
    """Vectorized block matching of left pixels (xs, ys) against x - d in
    the right surface, over the disparities a (K, D) boolean `mask` allows.

    Column j of `mask` is disparity min_disparity + j. The peak and the
    ambiguity test range over the masked disparities of a row; they are
    scored together with their +-1 neighbours, which the parabolic
    refinement reads. A row with an empty mask is not ok. With an all-True
    mask every disparity is scored.

    Every pixel's block must fit inside the surface (half <= x < width - half
    and half <= y < height - half); otherwise ValueError.

    Only the band of rows the blocks read (:func:`block_rows`) is normalized
    and padded; row y is row y - min(ys) + half of the band. Blocks are read
    from strided window views, never from gathered index tensors. The left
    block of (x, y) is window [y - half, x - half] (in band rows) of the
    (B, B) sliding-window view of the left band. The right blocks of the S
    disparities min_disparity + s through min_disparity + s + S - 1 lie in
    one row strip, columns x - min_disparity - s - S + 1 - half through
    x - min_disparity - s + half. The right band and its mask are padded on
    the left by max_disparity + half columns of 0.0 / False, so that strip is
    window [y - half, x + D - S - s] of the (B, B + S - 1) sliding-window
    view of the padded band. A row's S is the narrowest of _STRIPS and D
    that covers the disparities it scores, and rows are matched in groups
    of one S, whose window views are built once per call; with an all-True
    mask every row takes S = D and s = 0. One fancy index
    on the two leading window axes copies a chunk of _CHUNK pixels; the
    masks stay boolean images and only their copies become floats.

    Both blocks are first shifted by the mean of the left block's valid
    values, which leaves every SSD unchanged but keeps the expansion's
    terms small. Each term of the expansion is then the Gram matrix
    block^T @ strip, (B, B + S - 1) per pixel; its diagonal at offset o
    sums the products with the right block at strip offset o, which is
    disparity index s + S - 1 - o. The Gram matrices of a chunk are written
    into one buffer, allocated once per call for the widest strip its rows
    use, with the Gram row outermost:
    adding its B rows, each shifted by its index, sums every diagonal of
    the chunk in B long vector additions, so the (S, B, B) volume is never
    formed. An SSD at the rounding level of its terms is snapped to 0, so
    an exact match scores exactly 1. Disparities whose block leaves the
    surface are infeasible and score -inf.

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
    disps = np.arange(cfg.min_disparity, cfg.max_disparity + 1)
    d = len(disps)
    k = len(xs)
    if mask.shape != (k, d):
        raise ValueError(f"mask of shape {mask.shape} for {k} pixels and "
                         f"{d} disparities")
    if k == 0:
        return np.empty(0), np.empty(0), np.zeros(0, dtype=bool)
    # the narrowest strip that holds a row's scored disparities
    scored = _dilate(mask)
    has = scored.any(axis=1)
    first = np.argmax(scored, axis=1)
    last = d - 1 - np.argmax(scored[:, ::-1], axis=1)
    widths = np.array([sw for sw in _STRIPS if sw < d] + [d])
    group = np.searchsorted(widths, last - first + 1)
    start = np.minimum(first, d - widths[group])

    # only the row band the blocks read is normalized and padded
    band = block_rows(ys, cfg)
    lv, lm = _normalize(left, window, band)
    rv, rm = _normalize(right, window, band, pad=cfg.max_disparity + half)
    blk = cfg.block
    block = (blk, blk)
    lwin = sliding_window_view(lv, block)                   # (., ., B, B)
    lmwin = sliding_window_view(lm, block)

    scores = np.full((k, d), -np.inf)
    # a chunk's Gram matrices, gram[c, k, t, :] = row c of term t of pixel
    # k, in one buffer for every strip width
    wide = blk + widths[group[has]].max(initial=1) - 1
    gram_buf = np.empty(blk * _CHUNK * 4 * wide)
    sums = np.empty(_CHUNK * 4 * wide)
    for g, sw in enumerate(widths):
        members = np.flatnonzero(has & (group == g))
        if len(members) == 0:
            continue
        strip = (blk, blk + sw - 1)
        rwin = sliding_window_view(rv, strip)               # (., ., B, B+S-1)
        rmwin = sliding_window_view(rm, strip)
        gram = gram_buf[:blk * _CHUNK * 4 * strip[1]].reshape(
            blk, _CHUNK, 4, strip[1])
        # per member and strip disparity, the sums of (l^2, rm), (l, r),
        # (lm, r^2) and (lm, rm)
        terms = np.empty((4, len(members), sw))
        for c0 in range(0, len(members), _CHUNK):
            rows = members[c0:c0 + _CHUNK]
            cx, cy, s0 = xs[rows], ys[rows], start[rows]
            kc = len(rows)
            top = cy - half - band.start
            lpatch = lwin[top, cx - half]                   # (K, B, B)
            lmask = lmwin[top, cx - half].astype(float)
            rpatch = rwin[top, cx + d - sw - s0]            # (K, B, B+S-1)
            rmask = rmwin[top, cx + d - sw - s0].astype(float)
            # shift the valid values of both by the left block's mean
            mu = (lpatch.sum(axis=(1, 2))
                  / np.maximum(lmask.sum(axis=(1, 2)), 1.0))[:, None, None]
            lpatch -= mu * lmask
            rpatch -= mu * rmask
            lpatch = lpatch.swapaxes(1, 2)                  # l^T
            lmask = lmask.swapaxes(1, 2)
            out = gram[:, :kc].transpose(2, 1, 0, 3)        # (4, K, B, B+S-1)
            np.matmul(lpatch * lpatch, rmask, out=out[0])
            np.matmul(lpatch, rpatch, out=out[1])
            np.matmul(lmask, rpatch * rpatch, out=out[2])
            np.matmul(lmask, rmask, out=out[3])
            # element j + c of the flat row c of the chunk is entry
            # (c, o + c) of a Gram matrix, where j is the flat position of
            # (k, t, o): adding the rows shifted by c, in order of c, sums
            # each diagonal
            flat = gram[:, :kc].reshape(blk, -1)
            run = flat.shape[1] - blk + 1
            np.copyto(sums[:run], flat[0, :run])
            for c in range(1, blk):
                np.add(sums[:run], flat[c, c:c + run], out=sums[:run])
            # diagonal o is the block at strip offset o, i.e. disparity
            # index s + S - 1 - o: reverse to ascending disparity
            terms[:, c0:c0 + kc] = sums[:flat.shape[1]].reshape(
                kc, 4, -1)[:, :, sw - 1::-1].transpose(1, 0, 2)

        lsq, cross, rsq, n = terms
        ssd = lsq - 2.0 * cross + rsq
        # exact matches cancel only to rounding, maybe below 0: snap to 0
        ssd[ssd <= 64 * np.finfo(float).eps * (lsq + rsq)] = 0.0
        cols = start[members, None] + np.arange(sw)
        rx = xs[members, None] - disps[cols]
        feasible = (rx - half >= 0) & (rx + half <= right.width - 1)
        enough = ((n >= cfg.min_valid_frac * blk * blk) & feasible
                  & (n >= 4))
        rmse = np.sqrt(ssd / np.maximum(n, 1.0))
        scores[members[:, None], cols] = np.where(
            enough, np.exp(-rmse / cfg.value_scale), -np.inf)

    rows = np.arange(k)
    peaks = np.where(mask, scores, -np.inf)
    best = np.argmax(peaks, axis=1)
    best_score = peaks[rows, best]
    near = np.abs(np.arange(d)[None, :] - best[:, None]) <= 1
    second = np.where(near, -np.inf, peaks).max(axis=1, initial=-np.inf)
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


def coincidence_mask(flows: FlowBatch, left: TimeSurface, right: TimeSurface,
                     window, cfg: DepthConfig):
    """The disparities :func:`match_blocks` may pick for each flow row: the
    temporally coincident candidates (see the module docstring) and their
    +-1 neighbours, as a (K, D) boolean mask. Rows must lie at least half a
    block inside the surface; a candidate's right block must fit in it."""
    t0, t1 = window
    half = cfg.block // 2
    disps = np.arange(cfg.min_disparity, cfg.max_disparity + 1)
    tau = (_TAU_GRADIENT * np.abs(flows.direction[:, 0]) / flows.magnitude
           + _TAU_FIT_RMS * flows.fit_rms + _TAU_FLOOR)
    t_left = left.stamps[flows.y, flows.x]
    rx = flows.x[:, None] - disps[None, :]
    t_right = right.stamps[flows.y[:, None], np.maximum(rx, 0)]
    candidate = ((rx >= half) & (t_right >= t0) & (t_right <= t1)
                 & (np.abs(t_right - t_left[:, None]) <= tau[:, None]))
    return _dilate(candidate)


def associate(flows: FlowBatch, left: TimeSurface, right: TimeSurface, window,
              rig: StereoRig, cfg: DepthConfig = None) -> FlowBatch:
    """Attach stereo depth to the rows of a flow batch.

    `left` and `right` are the latest-of-either-polarity surfaces of the
    two cameras; `left` needs to hold only the rows of :func:`block_rows`.
    Returns the rows that could be matched, with `depth` and `weight` set;
    rows near the border, without a temporally coincident right stamp, or
    with a weak or ambiguous correlation are dropped. Weight combines the
    match score with the plane-fit quality:
    score * exp(-fit_rms / batch_duration).
    """
    cfg = cfg or DepthConfig()
    half = cfg.block // 2
    w, h = left.width, left.height
    flows = flows.subset((flows.x >= half) & (flows.x < w - half)
                         & (flows.y >= half) & (flows.y < h - half))
    mask = coincidence_mask(flows, left, right, window, cfg)
    disp, score, ok = match_blocks(left, right, flows.x, flows.y, window, cfg,
                                   mask)
    tau = window[1] - window[0]
    weight = score * np.exp(-flows.fit_rms / tau)
    ok &= weight > 0
    out = flows.subset(ok)
    out.depth = rig.left.f * rig.baseline / disp[ok]
    out.weight = np.minimum(weight[ok], 1.0)
    return out
