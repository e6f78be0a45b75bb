"""Normal flow from local plane fits on the time surface.

An edge sweeping the sensor stamps a ramp of timestamps into the time
surface. The spatial gradient of that ramp (s/px) points along the edge's
direction of travel, and its inverse norm is the speed of the edge along its
normal. The front end therefore:

  1. selects events with a well-populated, temporally consistent neighborhood,
  2. fits a plane t = a*x + b*y + c to the same-polarity surface patch,
  3. converts the gradient (a, b) into a unit direction and a magnitude.

The left camera's two polarity planes are the (2, h, w) `stamps` of a
:class:`~velometer.time_surface.SurfacePair`; step 1 reads both at once and
step 2 fits each plane's candidates on that plane.
"""

from dataclasses import dataclass

import numpy as np

from .config import FlowConfig
from .events import EventBatch
from .time_surface import SurfacePair

_MIN_BATCH_DURATION = 1e-6  # s, shorter batches yield no flows
_MIN_PLANE_POINTS = 6       # stamped patch pixels a plane fit needs
_REFIT_RMS_FACTOR = 2.0     # re-fit without residuals > this times the rms


@dataclass
class FlowBatch:
    """Normal flows of one event batch as parallel arrays, one row per flow.

    This is the visual observation from the front end to the optimizer:
    :func:`process_batch` fills the flow rows, :func:`velometer.stereo.associate`
    keeps the rows it can match and fills `depth` and `weight`.
    """

    t: float                 # batch end time, shared by every row
    x: np.ndarray            # (K,) int pixel column
    y: np.ndarray            # (K,) int pixel row
    direction: np.ndarray    # (K, 2) unit vectors along the temporal gradient
    magnitude: np.ndarray    # (K,) px/s, non-negative
    fit_rms: np.ndarray      # (K,) s, rms of the plane fit
    depth: np.ndarray = None     # (K,) m, along the optical axis
    weight: np.ndarray = None    # (K,) in (0, 1], match score and fit quality

    @classmethod
    def empty(cls, t):
        return cls(float(t), np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty((0, 2)), np.empty(0), np.empty(0))

    def __len__(self):
        return len(self.x)

    def subset(self, idx):
        """The rows at `idx` (integer indices or a boolean mask), as a copy."""
        def take(a):
            return None if a is None else a[idx]
        return FlowBatch(self.t, self.x[idx], self.y[idx], self.direction[idx],
                         self.magnitude[idx], self.fit_rms[idx],
                         take(self.depth), take(self.weight))


def select_candidates(batch: EventBatch, surfaces: SurfacePair, cfg: FlowConfig):
    """Indices of batch events that pass the three culling rules.

    Rules (surface must already be updated through the batch):
      1. at least `border_margin` px away from every image border;
      2. more than `min_neighbors` valid same-polarity neighbors in the
         5x5 patch (valid = stamped within the batch window, center excluded);
      3. event time within `time_dev_frac` * duration of the mean neighbor
         stamp.

    Both polarity planes are evaluated in one pass. The count of valid
    pixels and the sum of valid stamps (0 where invalid) over each patch
    come from integral images of the zero-padded planes, each built in
    place in a (2, h + 2r + 1, w + 2r + 1) buffer: int32 for the counts,
    which is exact and halves the cumulative sums' memory traffic, and
    float64 for the stamps. The stamps are taken relative to the batch start,
    so the sums do not depend on the time origin (at epoch times of about
    1.7e9 s the corners of a raw-stamp integral image reach about 3e13, where
    one ulp is milliseconds). They are read only at the border-kept events, as
    ((A - B) - C) + D from the four patch corners, and the event's own pixel
    is read from the buffer before each cumulative sum.
    """
    t0, t1 = batch.t_start, batch.t_end
    x, y = batch.x, batch.y
    _, h, w = surfaces.stamps.shape
    m = cfg.border_margin
    keep = (x >= m) & (x < w - m) & (y >= m) & (y < h - m)
    idx = np.flatnonzero(keep)
    xs, ys, ts = x[idx], y[idx], batch.t[idx]

    stamps = surfaces.stamps
    valid = (stamps >= t0) & (stamps <= t1)
    r = cfg.patch_radius
    k = 2 * r + 1
    # flat position of each event's patch corner D = ii[plane, y, x]
    at = (surfaces.plane_of(batch.p[idx]) * ((h + k) * (w + k))
          + ys * (w + k) + xs)

    def center_and_patch_sum(ii):
        flat = ii.reshape(-1)
        center = flat[at + (r + 1) * (w + k + 1)]
        np.cumsum(ii, axis=1, out=ii)
        np.cumsum(ii, axis=2, out=ii)
        return center, ((flat[at + k * (w + k) + k] - flat[at + k])
                        - flat[at + k * (w + k)] + flat[at])

    counts = np.zeros((2, h + k, w + k), dtype=np.int32)
    counts[:, r + 1:r + 1 + h, r + 1:r + 1 + w] = valid
    center_valid, n_valid = center_and_patch_sum(counts)
    del counts                  # before the float image is allocated
    sums = np.zeros((2, h + k, w + k))
    np.subtract(stamps, t0, out=sums[:, r + 1:r + 1 + h, r + 1:r + 1 + w],
                where=valid)
    center_t, t_sum = center_and_patch_sum(sums)

    neighbors = n_valid - center_valid
    ok = neighbors > cfg.min_neighbors
    mean_t = np.zeros(len(idx))
    nz = neighbors > 0
    mean_t[nz] = (t_sum - center_t)[nz] / neighbors[nz]
    ok &= np.abs((ts - t0) - mean_t) <= cfg.time_dev_frac * batch.duration
    return idx[ok]


def _patch_design(radius):
    r = radius
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    return np.column_stack([dx.ravel(), dy.ravel(), np.ones((2 * r + 1) ** 2)])


def _solve3(n_mats, rhs):
    """Batched 3x3 solve via the adjugate; returns (coef, ok) with a det guard."""
    a = n_mats
    det = (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
           - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
           + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]))
    scale = np.abs(a).sum(axis=(1, 2)) + 1e-300
    ok = np.abs(det) > 1e-10 * scale ** 3
    inv_det = np.where(ok, det, 1.0)
    adj = np.empty_like(a)
    adj[:, 0, 0] = a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1]
    adj[:, 0, 1] = a[:, 0, 2] * a[:, 2, 1] - a[:, 0, 1] * a[:, 2, 2]
    adj[:, 0, 2] = a[:, 0, 1] * a[:, 1, 2] - a[:, 0, 2] * a[:, 1, 1]
    adj[:, 1, 0] = a[:, 1, 2] * a[:, 2, 0] - a[:, 1, 0] * a[:, 2, 2]
    adj[:, 1, 1] = a[:, 0, 0] * a[:, 2, 2] - a[:, 0, 2] * a[:, 2, 0]
    adj[:, 1, 2] = a[:, 0, 2] * a[:, 1, 0] - a[:, 0, 0] * a[:, 1, 2]
    adj[:, 2, 0] = a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]
    adj[:, 2, 1] = a[:, 0, 1] * a[:, 2, 0] - a[:, 0, 0] * a[:, 2, 1]
    adj[:, 2, 2] = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    coef = np.einsum("kab,kb->ka", adj, rhs) / inv_det[:, None]
    return coef, ok


def fit_planes(stamps, xs, ys, window, cfg: FlowConfig):
    """Vectorized plane fits at pixels (xs, ys) of one (h, w) stamps plane.

    Returns (grads (K,2), rms (K,), ok (K,)). Fits use only patch pixels
    stamped within the window; one robust re-fit discards points whose
    residual exceeds `_REFIT_RMS_FACTOR` times the rms of the first pass.
    """
    t0, t1 = window
    r = cfg.patch_radius
    x_des = _patch_design(r)                      # (P, 3)
    # per patch pixel, the outer product of its design row: the normal
    # matrices are then one product with the mask, exact (integer sums)
    outer = (x_des[:, :, None] * x_des[:, None, :]).reshape(len(x_des), 9)
    off = np.arange(-r, r + 1)
    pys = ys[:, None, None] + off[None, :, None]  # (K, 2r+1, 2r+1)
    pxs = xs[:, None, None] + off[None, None, :]
    tv = stamps[pys, pxs].reshape(len(xs), len(x_des))  # (K, P)
    valid = (tv >= t0) & (tv <= t1)
    tv = np.where(valid, tv - t1, 0.0)            # shift for conditioning

    def solve(mask):
        n_mats = (mask.astype(float) @ outer).reshape(-1, 3, 3)
        rhs = np.einsum("kp,pa->ka", mask * tv, x_des)
        coef, ok = _solve3(n_mats, rhs)
        res = np.einsum("pa,ka->kp", x_des, coef) - tv
        npts = mask.sum(axis=1)
        ok &= npts >= _MIN_PLANE_POINTS
        sq = np.where(mask, res, 0.0) ** 2
        rms = np.sqrt(sq.sum(axis=1) / np.maximum(npts, 1))
        return coef, res, rms, ok

    coef, res, rms, ok = solve(valid)
    thresh = _REFIT_RMS_FACTOR * rms
    keep = valid & (np.abs(res) <= thresh[:, None] + 1e-18)
    redo = ok & (keep.sum(axis=1) < valid.sum(axis=1)) & (rms > 0)
    if np.any(redo):
        coef2, _, rms2, ok2 = solve(keep)
        coef[redo] = coef2[redo]
        rms[redo] = rms2[redo]
        ok &= ~redo | ok2
    return coef[:, :2], rms, ok


def _corrected_flows(grads, cfg: FlowConfig):
    """Rows of (direction, magnitude, ok) for gradients (K, 2): the direction
    is the gradient direction and the speed its inverse norm."""
    gnorm = np.hypot(grads[:, 0], grads[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        magnitude = 1.0 / gnorm
        direction = grads / gnorm[:, None]
    ok = (gnorm > cfg.min_grad) & (magnitude <= cfg.max_flow)
    return direction, magnitude, ok


def process_batch(batch: EventBatch, surfaces: SurfacePair,
                  cfg: FlowConfig) -> FlowBatch:
    """Full per-batch front end: cull, fit planes, convert to normal flow.

    Surfaces must already be updated through the batch. Individual failures
    (bad fits, out-of-range flows) drop the row silently. Every row carries
    the batch end time; rows are ordered by the time of their originating
    event, then x, y and polarity.
    """
    if batch.duration < _MIN_BATCH_DURATION:
        return FlowBatch.empty(batch.t_end)
    idx = select_candidates(batch, surfaces, cfg)
    if len(idx) > cfg.max_measurements:
        take = np.unique(np.round(
            np.linspace(0, len(idx) - 1, cfg.max_measurements)).astype(int))
        idx = idx[take]

    xs = batch.x[idx].astype(np.int64)
    ys = batch.y[idx].astype(np.int64)
    ps, ts = batch.p[idx], batch.t[idx]
    plane = surfaces.plane_of(ps)
    grads = np.empty((len(idx), 2))
    rms = np.empty(len(idx))
    ok = np.empty(len(idx), dtype=bool)
    for i, stamps in enumerate(surfaces.stamps):
        sel = plane == i
        grads[sel], rms[sel], ok[sel] = fit_planes(
            stamps, xs[sel], ys[sel], (batch.t_start, batch.t_end), cfg)
    direction, magnitude, flow_ok = _corrected_flows(grads, cfg)
    keep = np.flatnonzero(ok & flow_ok)
    order = keep[np.lexsort((ps[keep], ys[keep], xs[keep], ts[keep]))]
    return FlowBatch(batch.t_end, xs[order], ys[order], direction[order],
                     magnitude[order], rms[order])
