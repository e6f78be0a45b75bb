"""Time surfaces: per-pixel timestamp of the most recent event.

Untouched pixels carry -inf ("never"). The left camera keeps one surface per
polarity, because events of opposite polarity belong to opposite sides of an
edge and would corrupt local plane fits. A :class:`SurfacePair` holds them as
the planes of one (2, h, w) `stamps` array, indexed by
:meth:`SurfacePair.plane_of`, so one scatter writes a batch of both
polarities, the candidate culling reads both at once and the plane fits read
`stamps[i]`. The right camera serves stereo only, which reads the latest
stamp of either polarity, so it keeps that one plane, a :class:`TimeSurface`.
"""

import numpy as np

from .events import EventBatch, SequencingError

NEVER = -np.inf


class TimeSurface:
    def __init__(self, width, height, t_ref=0.0):
        self.width = width
        self.height = height
        self.stamps = np.full((height, width), NEVER)
        self.t_ref = float(t_ref)

    def update(self, batch: EventBatch):
        """Write each event's time, whatever its polarity; latest wins.

        The scatter of :meth:`SurfacePair.update` on one plane: after a
        batch, every pixel holds what the pair's :meth:`SurfacePair.combined`
        would.
        """
        _write_latest(self.stamps, self.t_ref, batch, 0)
        self.t_ref = batch.t_end


def _write_latest(stamps, t_ref, batch: EventBatch, plane):
    """Scatter a batch's times into the (..., h, w) `stamps`, on the plane
    index `plane` (one per event, or one for all): one scatter-max over the
    flat keys
    plane * h * w + y * w + x, after every touched pixel is reset to NEVER.

    The events are sorted, so the largest time at a pixel is the time of its
    last event, also where an old stamp is newer (a batch that starts inside
    the 1e-12 s sequencing tolerance of `t_ref`).
    """
    if batch.t_start < t_ref - 1e-12:
        raise SequencingError(f"batch starts at {batch.t_start} before "
                              f"surface t_ref {t_ref}")
    h, w = stamps.shape[-2:]
    x, y, t = batch.x, batch.y, batch.t
    if min(x.min(), y.min()) < 0 or x.max() >= w or y.max() >= h:
        raise ValueError("event outside image bounds")
    keys = plane * (h * w) + np.multiply(y, w, dtype=np.int64) + x
    flat = stamps.reshape(-1)
    flat[keys] = NEVER
    np.maximum.at(flat, keys, t)


class SurfacePair:
    """Per-polarity surfaces of one camera: the planes of one (2, h, w)
    `stamps` array, in the order of :meth:`plane_of`. Batches must arrive in
    order: a batch may not start before the pair's reference time `t_ref`.
    """

    def __init__(self, width, height):
        self.stamps = np.full((2, height, width), NEVER)
        self.t_ref = 0.0

    @staticmethod
    def plane_of(p):
        """Index of the plane holding polarity p (elementwise): 0 for +1,
        1 for -1."""
        return (np.asarray(p) < 0).astype(np.intp)

    def update(self, batch: EventBatch):
        """Write each event's time on its polarity's plane; latest wins.

        One scatter over both planes (see :func:`_write_latest`).
        """
        _write_latest(self.stamps, self.t_ref, batch, self.plane_of(batch.p))
        self.t_ref = batch.t_end

    def combined(self, rows=slice(None)):
        """Latest-of-either-polarity surface (used for stereo matching),
        built over the rows `rows` only; every other row is NEVER."""
        _, h, w = self.stamps.shape
        out = TimeSurface(w, h, self.t_ref)
        np.maximum(self.stamps[1, rows], self.stamps[0, rows],
                   out=out.stamps[rows])
        return out
