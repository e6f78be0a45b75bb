import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from velometer.events import EventBatch, SequencingError, make_events
from velometer.time_surface import (NEVER, SurfacePair, TimeSurface,
                                   _latest_per_pixel, update_time_surface)


def batch_from(t, x, y, p, t_start=None, t_end=None):
    ev = make_events(np.asarray(t, float), x, y, p)
    return EventBatch(ev, float(t_start if t_start is not None else ev["t"][0]),
                      float(t_end if t_end is not None else ev["t"][-1] + 1e-9))


def test_single_event_write():
    ts = TimeSurface(20, 20)
    update_time_surface(ts, batch_from([1.0], [5], [7], [1]))
    assert ts.stamps[7, 5] == 1.0
    others = ts.stamps.copy()
    others[7, 5] = NEVER
    assert np.all(others == NEVER)


def test_latest_wins_at_same_pixel():
    ts = TimeSurface(20, 20)
    update_time_surface(ts, batch_from([1.0, 2.0], [5, 5], [7, 7], [1, 1]))
    assert ts.stamps[7, 5] == 2.0
    assert ts.t_ref >= 2.0


def test_touched_pixels_match_distinct_count():
    rng = np.random.default_rng(0)
    n = 45000
    x = rng.integers(0, 346, n)
    y = rng.integers(0, 260, n)
    t = np.sort(rng.uniform(0.0, 0.1, n))
    p = rng.choice([-1, 1], n).astype(np.int8)
    ts = TimeSurface(346, 260)
    update_time_surface(ts, batch_from(t, x, y, p))
    touched = int(np.sum(ts.stamps > NEVER))
    distinct = len(set(zip(x.tolist(), y.tolist())))
    assert touched == distinct


def test_out_of_order_batch_rejected():
    ts = TimeSurface(20, 20)
    update_time_surface(ts, batch_from([1.0, 2.0], [1, 2], [1, 2], [1, 1]))
    with pytest.raises(SequencingError):
        update_time_surface(ts, batch_from([0.5], [3], [3], [1]))


def test_out_of_bounds_event_rejected():
    ts = TimeSurface(20, 20)
    with pytest.raises(ValueError):
        update_time_surface(ts, batch_from([1.0], [25], [3], [1]))


@settings(max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=60))
def test_updates_never_decrease_stamps(pixels):
    ts = TimeSurface(10, 10)
    t = 0.0
    for chunk_start in range(0, len(pixels), 7):
        chunk = pixels[chunk_start:chunk_start + 7]
        times = t + 0.01 * (1 + np.arange(len(chunk)))
        before = ts.stamps.copy()
        update_time_surface(ts, batch_from(
            times, [c[0] for c in chunk], [c[1] for c in chunk],
            [1] * len(chunk), t_start=times[0], t_end=times[-1] + 1e-6))
        assert np.all(ts.stamps >= before)
        t = times[-1] + 1e-6


def reference_latest_per_pixel(events, width):
    """Sort-based latest event per pixel: np.unique on the reversed keys."""
    keys = events["y"].astype(np.int64) * width + events["x"]
    _, first_rev = np.unique(keys[::-1], return_index=True)
    return len(events) - 1 - first_rev


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 12), height=st.integers(1, 12),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.booleans()), min_size=1, max_size=80),
       ticks=st.lists(st.integers(0, 3), min_size=80, max_size=80))
@example(width=7, height=5, picks=[(3, 3, True)], ticks=[0] * 80)
@example(width=1, height=1, picks=[(0, 0, False)] * 3, ticks=[0] * 80)
def test_latest_per_pixel_matches_unique(width, height, picks, ticks):
    # a few pixels near the origin and the last pixel (width * height - 1),
    # so pixels repeat heavily; few distinct ticks, so stamps repeat too
    x = [width - 1 if last else min(px, width - 1) for px, _, last in picks]
    y = [height - 1 if last else min(py, height - 1) for _, py, last in picks]
    t = np.cumsum(ticks[:len(picks)]) * 1e-3
    ev = make_events(t, x, y, np.ones(len(picks), dtype=np.int8))
    got = _latest_per_pixel(ev, width, height)
    want = reference_latest_per_pixel(ev, width)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_polarity_pair_routes_events():
    pair = SurfacePair.create(20, 20)
    pair.update(batch_from([1.0, 1.5], [3, 4], [3, 4], [1, -1]))
    assert pair.pos.stamps[3, 3] == 1.0
    assert pair.neg.stamps[4, 4] == 1.5
    assert pair.pos.stamps[4, 4] == NEVER
    comb = pair.combined()
    assert comb.stamps[3, 3] == 1.0 and comb.stamps[4, 4] == 1.5
