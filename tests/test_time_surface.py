import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from velometer.events import EventBatch, SequencingError, make_events
from velometer.time_surface import NEVER, SurfacePair, TimeSurface


def batch_from(t, x, y, p, t_start=None, t_end=None):
    ev = make_events(np.asarray(t, float), x, y, p)
    return EventBatch(ev, float(t_start if t_start is not None else ev["t"][0]),
                      float(t_end if t_end is not None else ev["t"][-1] + 1e-9))


def test_single_event_write():
    pair = SurfacePair(20, 20)
    pair.update(batch_from([1.0], [5], [7], [1]))
    assert pair.stamps[0, 7, 5] == 1.0
    others = pair.stamps.copy()
    others[0, 7, 5] = NEVER
    assert np.all(others == NEVER)


def test_latest_wins_at_same_pixel():
    pair = SurfacePair(20, 20)
    pair.update(batch_from([1.0, 2.0], [5, 5], [7, 7], [1, 1]))
    assert pair.stamps[0, 7, 5] == 2.0
    assert pair.t_ref >= 2.0


def test_touched_pixels_match_distinct_count():
    rng = np.random.default_rng(0)
    n = 45000
    x = rng.integers(0, 346, n)
    y = rng.integers(0, 260, n)
    t = np.sort(rng.uniform(0.0, 0.1, n))
    p = rng.choice([-1, 1], n).astype(np.int8)
    pair = SurfacePair(346, 260)
    pair.update(batch_from(t, x, y, p))
    touched = int(np.sum(pair.stamps > NEVER))
    distinct = len(set(zip(x.tolist(), y.tolist(), p.tolist())))
    assert touched == distinct


def test_out_of_order_batch_rejected():
    pair = SurfacePair(20, 20)
    pair.update(batch_from([1.0, 2.0], [1, 2], [1, 2], [1, 1]))
    with pytest.raises(SequencingError):
        pair.update(batch_from([0.5], [3], [3], [1]))


def test_out_of_bounds_event_rejected():
    pair = SurfacePair(20, 20)
    with pytest.raises(ValueError):
        pair.update(batch_from([1.0], [25], [3], [1]))


@settings(max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=60))
def test_updates_never_decrease_stamps(pixels):
    pair = SurfacePair(10, 10)
    t = 0.0
    for chunk_start in range(0, len(pixels), 7):
        chunk = pixels[chunk_start:chunk_start + 7]
        times = t + 0.01 * (1 + np.arange(len(chunk)))
        before = pair.stamps.copy()
        pair.update(batch_from(
            times, [c[0] for c in chunk], [c[1] for c in chunk],
            [1] * len(chunk), t_start=times[0], t_end=times[-1] + 1e-6))
        assert np.all(pair.stamps >= before)
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
    t = 1.0 + np.cumsum(ticks[:len(picks)]) * 1e-3
    ev = make_events(t, x, y, np.ones(len(picks), dtype=np.int8))
    pair = SurfacePair(width, height)
    pair.update(EventBatch(ev, 1.0, float(t[-1]) + 1e-3))
    want = reference_latest_per_pixel(ev, width)
    expected = np.full((height, width), NEVER)
    expected[ev["y"][want], ev["x"][want]] = ev["t"][want]
    assert np.array_equal(pair.stamps[0], expected)
    assert np.all(pair.stamps[1] == NEVER)


def reference_update_time_surface(ts, batch):
    """Per-surface update with index scatter-max over structured records."""
    if batch.t_start < ts.t_ref - 1e-12:
        raise SequencingError("batch starts before surface t_ref")
    ev = batch.events
    if np.any(ev["x"] < 0) or np.any(ev["x"] >= ts.width) \
            or np.any(ev["y"] < 0) or np.any(ev["y"] >= ts.height):
        raise ValueError("event outside image bounds")
    keys = ev["y"].astype(np.int64) * ts.width + ev["x"]
    last = np.full(ts.width * ts.height, -1, dtype=np.int64)
    np.maximum.at(last, keys, np.arange(len(keys)))
    idx = last[last >= 0]
    ts.stamps[ev["y"][idx], ev["x"][idx]] = ev["t"][idx]
    ts.t_ref = batch.t_end


def reference_pair_update(pos, neg, batch):
    """One copied sub-batch per polarity, each written on its own surface."""
    ev = batch.events
    for pol, surf in ((1, pos), (-1, neg)):
        sel = ev["p"] == pol
        if np.any(sel):
            reference_update_time_surface(
                surf, EventBatch(ev[sel], batch.t_start, batch.t_end))
        else:
            surf.t_ref = batch.t_end


# one batch: (start offset from the previous end, [(dt, x, y, positive)]);
# an offset of -1 starts the batch 5e-13 s before the previous end, inside
# the sequencing tolerance, so an event there may be older than a stamp
batch_specs = st.lists(
    st.tuples(st.sampled_from([-1, 0, 1]),
              st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                                 st.integers(0, 4), st.booleans()),
                       min_size=1, max_size=30)),
    min_size=1, max_size=4)


def batches_from_specs(specs, all_positive=False):
    t_end = 1.0
    for offset, rows in specs:
        t_start = t_end + {-1: -5e-13, 0: 0.0, 1: 1e-3}[offset]
        t = t_start + np.cumsum([dt for dt, *_ in rows]) * 1e-3
        pos = [all_positive or positive for *_, positive in rows]
        p = np.where(pos, 1, -1).astype(np.int8)
        ev = make_events(t, [r[1] for r in rows], [r[2] for r in rows], p)
        # end at the last event where that leaves a positive duration
        t_end = float(t[-1]) if t[-1] > t_start else t_start + 1e-3
        yield EventBatch(ev, t_start, t_end)


@settings(max_examples=150, deadline=None)
@given(specs=batch_specs, all_positive=st.booleans())
@example(specs=[(0, [(0, 5, 4, True), (1, 0, 0, False), (1, 5, 4, True)]),
                (-1, [(0, 5, 4, True), (0, 0, 0, False)])], all_positive=False)
@example(specs=[(0, [(0, 2, 2, True)] * 4), (1, [(0, 3, 3, False)])],
         all_positive=True)
def test_pair_update_matches_reference(specs, all_positive):
    # duplicate pixels, border pixels of a 6 x 5 image, few distinct times,
    # batches with one polarity only, and starts inside the tolerance
    pair = SurfacePair(6, 5)
    pos, neg = TimeSurface(6, 5), TimeSurface(6, 5)
    for batch in batches_from_specs(specs, all_positive):
        pair.update(batch)
        reference_pair_update(pos, neg, batch)
        assert np.array_equal(pair.stamps[0], pos.stamps)
        assert np.array_equal(pair.stamps[1], neg.stamps)
        assert pair.t_ref == pos.t_ref == neg.t_ref


@settings(max_examples=150, deadline=None)
@given(specs=batch_specs, all_positive=st.booleans())
@example(specs=[(0, [(0, 5, 4, True), (0, 5, 4, False), (1, 5, 4, True)]),
                (0, [(0, 5, 4, False), (1, 0, 0, True)])], all_positive=False)
def test_single_plane_matches_pair_combined(specs, all_positive):
    # batches in order, each starting at or after the previous end
    specs = [(max(offset, 0), rows) for offset, rows in specs]
    pair = SurfacePair(6, 5)
    plane = TimeSurface(6, 5)
    for batch in batches_from_specs(specs, all_positive):
        pair.update(batch)
        plane.update(batch)
        assert np.array_equal(plane.stamps, pair.combined().stamps)
        assert plane.t_ref == pair.t_ref


def test_single_plane_checks_like_the_pair():
    plane = TimeSurface(10, 10)
    plane.update(batch_from([1.0, 2.0], [3, 4], [2, 4], [1, -1], t_end=2.0))
    with pytest.raises(SequencingError):
        plane.update(batch_from([1.5], [3], [3], [1], t_start=1.5))
    with pytest.raises(ValueError, match="outside image bounds"):
        plane.update(batch_from([3.0], [10], [3], [1], t_start=2.5))


def test_combined_over_rows():
    pair = SurfacePair(8, 6)
    pair.update(batch_from([1.0, 1.5, 2.0], [1, 2, 3], [0, 2, 5], [1, -1, 1]))
    rows = slice(1, 5)
    band = pair.combined(rows)
    assert np.array_equal(band.stamps[rows], pair.combined().stamps[rows])
    assert np.all(band.stamps[:1] == NEVER)
    assert np.all(band.stamps[5:] == NEVER)
    assert band.stamps[2, 2] == 1.5 and band.t_ref == pair.t_ref


def test_latest_wins_inside_sequencing_tolerance():
    # the second batch starts 5e-13 s before the first one's end, and its
    # event at (4, 4) is older than that pixel's stamp: it still wins
    pair = SurfacePair(10, 10)
    pair.update(batch_from([1.0, 2.0], [3, 4], [2, 4], [1, -1], t_end=2.0))
    pair.update(batch_from([2.0 - 5e-13], [4], [4], [-1], t_start=2.0 - 5e-13))
    assert pair.stamps[1, 4, 4] == 2.0 - 5e-13
    assert pair.stamps[0, 2, 3] == 1.0


@pytest.mark.parametrize("p", [0, 2, -2])
def test_polarity_other_than_plus_minus_one_rejected(p):
    ev = make_events([1.0, 1.1, 1.2], [3, 4, 5], [3, 4, 5], [1, p, -1])
    with pytest.raises(ValueError, match=f"polarity {p} "):
        EventBatch(ev, 1.0, 1.3)


def test_polarity_pair_routes_events():
    pair = SurfacePair(20, 20)
    pair.update(batch_from([1.0, 1.5], [3, 4], [3, 4], [1, -1]))
    assert pair.stamps[0, 3, 3] == 1.0
    assert pair.stamps[1, 4, 4] == 1.5
    assert pair.stamps[0, 4, 4] == NEVER
    comb = pair.combined()
    assert comb.stamps[3, 3] == 1.0 and comb.stamps[4, 4] == 1.5
