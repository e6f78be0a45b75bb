"""Time surfaces: per-pixel timestamp of the most recent event.

Untouched pixels carry -inf ("never"). The front end keeps one surface per
polarity per camera, because events of opposite polarity belong to opposite
sides of an edge and would corrupt local plane fits.
"""

from dataclasses import dataclass

import numpy as np

from .events import EventBatch, SequencingError

NEVER = -np.inf


class TimeSurface:
    def __init__(self, width, height, t_ref=0.0):
        self.width = width
        self.height = height
        self.stamps = np.full((height, width), NEVER)
        self.t_ref = float(t_ref)

    def copy(self):
        ts = TimeSurface(self.width, self.height, self.t_ref)
        ts.stamps = self.stamps.copy()
        return ts

    def valid_mask(self, t0, t1, rows=slice(None)):
        """Pixels (of the rows `rows`) whose latest stamp falls within [t0, t1]."""
        stamps = self.stamps[rows]
        return (stamps >= t0) & (stamps <= t1)


def _latest_per_pixel(events, width, height):
    """Indices of the last (most recent) event per distinct pixel, in
    ascending pixel-key (y * width + x) order.

    A scatter-max of the event indices into a per-pixel array that starts
    at -1 leaves each touched pixel holding the index of its last event,
    without sorting the batch.
    """
    keys = events["y"].astype(np.int64) * width + events["x"]
    last = np.full(width * height, -1, dtype=np.int64)
    np.maximum.at(last, keys, np.arange(len(keys)))
    return last[last >= 0]


def update_time_surface(ts: TimeSurface, batch: EventBatch) -> TimeSurface:
    """Write each event's timestamp at its pixel; latest wins.

    Batches must arrive in order: the batch may not start before the
    surface's reference time.
    """
    if batch.t_start < ts.t_ref - 1e-12:
        raise SequencingError(
            f"batch starts at {batch.t_start} before surface t_ref {ts.t_ref}")
    ev = batch.events
    if np.any(ev["x"] < 0) or np.any(ev["x"] >= ts.width) \
            or np.any(ev["y"] < 0) or np.any(ev["y"] >= ts.height):
        raise ValueError("event outside image bounds")
    idx = _latest_per_pixel(ev, ts.width, ts.height)
    ts.stamps[ev["y"][idx], ev["x"][idx]] = ev["t"][idx]
    ts.t_ref = batch.t_end
    return ts


@dataclass
class SurfacePair:
    """Per-polarity surfaces of one camera."""

    pos: TimeSurface
    neg: TimeSurface

    @classmethod
    def create(cls, width, height):
        return cls(TimeSurface(width, height), TimeSurface(width, height))

    def for_polarity(self, p):
        return self.pos if p > 0 else self.neg

    def update(self, batch: EventBatch):
        ev = batch.events
        for pol, surf in ((1, self.pos), (-1, self.neg)):
            sel = ev["p"] == pol
            if np.any(sel):
                sub = ev[sel]
                surf_batch = EventBatch(sub, batch.t_start, batch.t_end)
                update_time_surface(surf, surf_batch)
            else:
                surf.t_ref = batch.t_end

    def combined(self):
        """Latest-of-either-polarity surface (used for stereo matching)."""
        out = TimeSurface(self.pos.width, self.pos.height,
                          max(self.pos.t_ref, self.neg.t_ref))
        out.stamps = np.maximum(self.neg.stamps, self.pos.stamps)
        return out
