"""Event and IMU stream containers.

Event streams are kept as numpy structured arrays (dtype :data:`EVENT_DTYPE`)
so that batching stays a slice; a scalar record of that array behaves like a
single event with fields t, x, y, p. An :class:`EventBatch` gives its fields
as contiguous columns, built on first use: strided field views are slow.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

EVENT_DTYPE = np.dtype([("t", np.float64), ("x", np.int32),
                        ("y", np.int32), ("p", np.int8)])


class SequencingError(RuntimeError):
    """Raised when a batch or stream arrives out of time order."""


def make_events(t, x, y, p):
    """Assemble a structured event array from parallel columns."""
    ev = np.empty(len(t), dtype=EVENT_DTYPE)
    ev["t"] = t
    ev["x"] = x
    ev["y"] = y
    ev["p"] = p
    return ev


def _column(name):
    """A contiguous copy of one event field, built on first access."""
    return cached_property(lambda self: np.ascontiguousarray(self.events[name]))


@dataclass
class EventBatch:
    """A contiguous, time-sorted slice of an event stream; polarities +-1."""

    events: np.ndarray
    t_start: float
    t_end: float

    def __post_init__(self):
        if len(self.events) == 0:
            raise ValueError("batch must be non-empty")
        if self.t_end <= self.t_start:
            raise ValueError("batch duration must be positive")
        t = self.events["t"]
        if np.any(np.diff(t) < 0):
            raise SequencingError("events in a batch must be sorted by time")
        if t[0] < self.t_start or t[-1] > self.t_end:
            raise ValueError("events outside the batch window")
        p = self.events["p"]
        bad = (p != 1) & (p != -1)
        if np.any(bad):
            raise ValueError(f"event polarity {p[np.argmax(bad)]} is neither "
                             "+1 nor -1")

    @property
    def duration(self):
        return self.t_end - self.t_start

    t = _column("t")
    x = _column("x")
    y = _column("y")
    p = _column("p")

    def __len__(self):
        return len(self.events)


def batch_by_count(events, count):
    """Split a sorted event stream into batches of `count` events.

    The trailing remainder shorter than `count` is dropped, mirroring a
    front end that triggers on every N-th event.
    """
    n = len(events) // count
    out = []
    for i in range(n):
        chunk = events[i * count:(i + 1) * count]
        t0, t1 = float(chunk["t"][0]), float(chunk["t"][-1])
        if t1 <= t0:
            continue
        out.append(EventBatch(chunk, t0, t1))
    return out


@dataclass
class ImuData:
    """IMU stream as parallel arrays: t (N,), accel (N,3), gyro (N,3)."""

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        if np.any(np.diff(self.t) < 0):
            raise SequencingError("IMU samples must be sorted by time")
        if not (np.all(np.isfinite(self.accel)) and np.all(np.isfinite(self.gyro))):
            raise ValueError("IMU samples must be finite")

    def __len__(self):
        return len(self.t)

    def slice(self, t0, t1):
        """Samples with t in [t0, t1] (inclusive both ends)."""
        i0, i1 = np.searchsorted(self.t, [t0, t1], side="left")
        if i1 < len(self.t) and self.t[i1] == t1:
            i1 += 1
        return ImuData(self.t[i0:i1], self.accel[i0:i1], self.gyro[i0:i1])

    def _interp(self, values, t):
        """Linear interpolation of the columns of `values` at time t, or one
        row per time of an array t; each row equals the scalar call.

        Only the samples from the last one at or before min(t) to the one
        after the last at or before max(t) are read, so the cost does not
        grow with the stream; np.interp brackets each time by the same two
        samples in that span as in the whole stream.
        """
        t = np.asarray(t, dtype=float)
        outside = (t < self.t[0]) | (t > self.t[-1])
        if np.any(outside):
            raise ValueError(f"time {np.ravel(t)[np.argmax(outside)]} "
                             "outside IMU coverage")
        lo = max(np.searchsorted(self.t, t.min(), side="right") - 1, 0)
        hi = np.searchsorted(self.t, t.max(), side="right") + 1
        ts = self.t[lo:hi]
        return np.stack([np.interp(t, ts, values[lo:hi, k]) for k in range(3)],
                        axis=-1)

    def interp_gyro(self, t):
        """Linear interpolation of the raw gyro at time t (or times)."""
        return self._interp(self.gyro, t)

    def interp_accel(self, t):
        return self._interp(self.accel, t)
