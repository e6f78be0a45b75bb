import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velometer.spline import VelocitySpline, basis


def de_boor_uniform_cubic(u):
    """Cox-de Boor recursion on uniform integer knots, as an oracle.

    Evaluates the four cubic basis functions active on [0, 1) for uniform
    knots ..., -3, -2, -1, 0, 1, 2, 3, ...: weight m corresponds to the
    basis supported on [m-3, m+1) evaluated at u.
    """
    knots = np.arange(-3.0, 5.0)

    def b(i, k, x):
        if k == 0:
            return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * b(i, k - 1, x)
        right = (knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1]) * b(i + 1, k - 1, x)
        return left + right

    # basis m blends control point c_{j+m}; its support starts m knots later
    return np.array([b(3 - m, 3, u) for m in range(4)])[::-1]


class TestBasis:
    def test_u0_matches_de_boor(self):
        w = basis(0.0)
        assert np.allclose(w, [1 / 6, 4 / 6, 1 / 6, 0.0], atol=1e-15)
        assert np.allclose(w, de_boor_uniform_cubic(0.0), atol=1e-12)

    def test_u_half(self):
        w = basis(0.5)
        assert np.allclose(w, [1 / 48, 23 / 48, 23 / 48, 1 / 48], atol=1e-15)
        assert np.allclose(w, w[::-1])

    @settings(max_examples=100)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    def test_matches_de_boor_recursion(self, u):
        assert np.allclose(basis(u), de_boor_uniform_cubic(u), atol=1e-12)

    @settings(max_examples=200)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    def test_partition_of_unity(self, u):
        assert abs(basis(u).sum() - 1.0) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            basis(-0.1)
        with pytest.raises(ValueError):
            basis(1.5)


def make_spline(vals, t0=0.0, dt=0.1):
    return VelocitySpline(t0, dt, np.asarray(vals, dtype=float))


class TestEvaluation:
    def test_constant_control_points(self):
        sp = make_spline([[2, 0, 0]] * 6)
        for t in np.linspace(sp.t_min, sp.t_max - 1e-9, 17):
            assert np.allclose(sp.velocity(t), [2, 0, 0], atol=1e-12)

    def test_single_point_at_segment_start(self):
        sp = make_spline([[0, 0, 0], [0, 0, 0], [6, 0, 0], [0, 0, 0]])
        assert np.allclose(sp.velocity(sp.t_min), [1.0, 0.0, 0.0], atol=1e-12)

    def test_cubic_reproduction(self):
        # fit control points to samples of a cubic; spline must reproduce it
        coeffs = np.array([[0.3, -0.2, 0.1], [1.0, 0.5, -0.4],
                           [-0.6, 0.2, 0.8], [0.2, -0.1, 0.05]])

        def poly(t):
            return coeffs[0] + coeffs[1] * t + coeffs[2] * t ** 2 + coeffs[3] * t ** 3

        dt = 0.1
        n = 14
        sp = make_spline(np.zeros((n, 3)), t0=0.0, dt=dt)
        ts = np.linspace(sp.t_min, sp.t_max - 1e-9, 200)
        rows = np.zeros((len(ts), n))
        for i, t in enumerate(ts):
            j, w = sp.weights(t)
            rows[i, j:j + 4] = w
        targets = np.stack([poly(t) for t in ts])
        sp.control_points, *_ = np.linalg.lstsq(rows, targets, rcond=None)
        for t in np.linspace(sp.t_min, sp.t_max - 1e-9, 57):
            assert np.allclose(sp.velocity(t), poly(t), atol=1e-9)

    def test_out_of_span(self):
        sp = make_spline(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ValueError):
            sp.velocity(sp.t_min - 0.01)
        with pytest.raises(ValueError):
            sp.velocity(sp.t_max)

    def test_span_start_at_epoch_timestamps(self):
        # seconds since 1970: t - t0 carries about 2.4e-7 s of rounding
        rng = np.random.default_rng(1)
        for t in rng.uniform(1.7e9, 1.7e9 + 100.0, 200):
            sp = VelocitySpline(t - 0.3, 0.1, np.zeros((8, 3)))
            j, w = sp.weights(t)
            assert j == 0
            assert np.allclose(w, basis(0.0), rtol=0, atol=1e-4)
            j, w = sp.weights(sp.t_min)
            assert j == 0
            with pytest.raises(ValueError):
                sp.velocity(t - 0.01)
            with pytest.raises(ValueError):
                sp.velocity(sp.t_max + 0.01)


def velocity_jacobian(sp, t):
    """(segment index, 3x12 Jacobian of the velocity w.r.t. the four active
    control points), columns [c_j, c_{j+1}, c_{j+2}, c_{j+3}], from the
    blending weights."""
    j, w = sp.weights(t)
    return j, np.concatenate([w_m * np.eye(3) for w_m in w], axis=1)


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        sp = make_spline(rng.normal(size=(7, 3)))
        for t in rng.uniform(sp.t_min, sp.t_max - 1e-6, 10):
            j, jac = velocity_jacobian(sp, t)
            eps = 1e-6
            for m in range(4):
                for axis in range(3):
                    sp.control_points[j + m, axis] += eps
                    vp = sp.velocity(t)
                    sp.control_points[j + m, axis] -= 2 * eps
                    vm = sp.velocity(t)
                    sp.control_points[j + m, axis] += eps
                    fd = (vp - vm) / (2 * eps)
                    col = jac[:, 3 * m + axis]
                    assert np.allclose(col, fd, rtol=1e-6, atol=1e-6)

    def test_weights_sum_to_one_per_axis(self):
        sp = make_spline(np.random.default_rng(1).normal(size=(6, 3)))
        _, jac = velocity_jacobian(sp, sp.t_min + 0.123)
        for axis in range(3):
            total = sum(jac[axis, 3 * m + axis] for m in range(4))
            assert abs(total - 1.0) < 1e-12

    def test_fourth_block_zero_at_segment_start(self):
        sp = make_spline(np.random.default_rng(1).normal(size=(6, 3)))
        _, jac = velocity_jacobian(sp, sp.t_min)
        assert np.allclose(jac[:, 9:12], 0.0, atol=1e-15)


class TestWindow:
    def test_extend_preserves_old_values(self):
        rng = np.random.default_rng(3)
        sp = make_spline(rng.normal(size=(5, 3)))
        probes = np.linspace(sp.t_min, sp.t_max - 1e-6, 9)
        before = [sp.velocity(t) for t in probes]
        sp.extend_to(sp.t_max + 0.35)
        assert sp.t_max > probes[-1] + 0.35
        for t, v in zip(probes, before):
            assert np.allclose(sp.velocity(t), v, atol=1e-12)

    def test_extension_is_c2_at_junction(self):
        rng = np.random.default_rng(4)
        sp = make_spline(rng.normal(size=(5, 3)))
        junction = sp.t_max
        sp.extend_to(junction + 0.15)

        def du_weights(u):
            return np.array([-3 * (1 - u) ** 2, 9 * u * u - 12 * u,
                             -9 * u * u + 6 * u + 3, 3 * u * u]) / 6.0

        def ddu_weights(u):
            return np.array([1 - u, 3 * u - 2, -3 * u + 1, u])

        # segment polynomials left (u -> 1) and right (u -> 0) of the junction
        j_right, _ = sp.segment_of(junction)
        j_left = j_right - 1
        for w_fn in (lambda u: np.array(
                [(1 - u) ** 3, 3 * u ** 3 - 6 * u ** 2 + 4,
                 -3 * u ** 3 + 3 * u ** 2 + 3 * u + 1, u ** 3]) / 6.0,
                du_weights, ddu_weights):
            left = w_fn(1.0) @ sp.control_points[j_left:j_left + 4]
            right = w_fn(0.0) @ sp.control_points[j_right:j_right + 4]
            assert np.allclose(left, right, atol=1e-12)

    def test_drop_preserves_retained_values(self):
        rng = np.random.default_rng(5)
        sp = make_spline(rng.normal(size=(9, 3)))
        horizon = sp.t_min + 0.25
        probes = np.linspace(horizon, sp.t_max - 1e-6, 9)
        before = [sp.velocity(t) for t in probes]
        sp.drop_oldest(horizon)
        assert sp.t_min <= horizon + 1e-12
        for t, v in zip(probes, before):
            assert np.allclose(sp.velocity(t), v, atol=1e-12)

    def test_drop_below_minimum_raises(self):
        sp = make_spline(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            sp.drop_oldest(sp.t_max + 1.0)

    def test_bias_bookkeeping(self):
        sp = make_spline(np.zeros((6, 3)))
        assert len(sp.biases) == sp.num_segments == 3
        sp.extend_to(sp.t_max + 0.2)
        assert len(sp.biases) == sp.num_segments
        sp.drop_oldest(sp.t_min + 0.15)
        assert len(sp.biases) == sp.num_segments

    def test_locality_of_control_points(self):
        rng = np.random.default_rng(6)
        sp = make_spline(rng.normal(size=(10, 3)))
        probe = sp.t_min + 0.05   # inside segment 0: depends on c0..c3 only
        v0 = sp.velocity(probe)
        sp.control_points[7] += 10.0
        assert np.allclose(sp.velocity(probe), v0, atol=1e-12)

    def test_convex_hull_per_component(self):
        rng = np.random.default_rng(7)
        sp = make_spline(rng.normal(size=(6, 3)))
        for t in rng.uniform(sp.t_min, sp.t_max - 1e-9, 50):
            j, _ = sp.segment_of(t)
            cp = sp.control_points[j:j + 4]
            v = sp.velocity(t)
            assert np.all(v >= cp.min(axis=0) - 1e-12)
            assert np.all(v <= cp.max(axis=0) + 1e-12)


def reference_segment_of(sp, t):
    """segment_of one time at a time, in Python floats."""
    s = (t - sp.t0) / sp.knot_dt - 3.0
    j = int(np.floor(s))
    u = s - j
    tol = max(1e-9, np.spacing(abs(t)) / sp.knot_dt)
    if j == sp.num_segments and u < tol:
        raise ValueError(f"time {t} at/after span end {sp.t_max}")
    if j == -1 and u > 1.0 - tol:
        j, u = 0, 0.0
    if not (0 <= j < sp.num_segments):
        raise ValueError(f"time {t} outside spline span")
    return j, min(max(u, 0.0), 1.0 - 1e-15)


# offsets in units of u from a knot: inside a segment, on the knot, and
# around the 1e-9 snap tolerance and the 1.7e9 s rounding
KNOT_OFFSETS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9,
                     2e-9, -2e-9, 1e-6, -1e-6, 3e-6, -3e-6]))


class TestArrayLookup:
    @settings(max_examples=300, deadline=None)
    @given(t0=st.sampled_from([0.0, -0.2, 0.37, 1.7e9 - 0.3, 1.7e9 + 12.345]),
           dt=st.sampled_from([0.1, 0.05, 0.3]),
           n=st.integers(4, 10),
           points=st.lists(st.tuples(st.integers(-2, 8), KNOT_OFFSETS),
                           min_size=1, max_size=12))
    def test_matches_scalar(self, t0, dt, n, points):
        sp = VelocitySpline(t0, dt, np.random.default_rng(n).normal(size=(n, 3)))
        ts = np.array([sp.t_min + dt * (k + f) for k, f in points])
        ts = np.append(ts, [sp.t_min, sp.t_max, np.nextafter(sp.t_max, 0.0)])
        scalar = []
        for t in ts:
            try:
                scalar.append(reference_segment_of(sp, float(t)))
            except ValueError:
                scalar.append(None)
        covered = [s is not None for s in scalar]
        assert sp.covers(ts).tolist() == covered
        for t, want in zip(ts, scalar):
            if want is None:
                with pytest.raises(ValueError):
                    sp.segment_of(t)
            else:
                j, u = sp.segment_of(t)
                assert (j, np.float64(u).tobytes()) == (want[0],
                                                       np.float64(want[1]).tobytes())
        if all(covered):
            js, us = sp.segment_of(ts)
            assert js.tolist() == [s[0] for s in scalar]
            assert us.tobytes() == np.array([s[1] for s in scalar]).tobytes()
            jw, ws = sp.weights(ts)
            assert np.array_equal(jw, js) and ws.shape == (len(ts), 4)
            vs = sp.velocity(ts)
            assert vs.shape == (len(ts), 3)
            for t, w, v in zip(ts, ws, vs):
                assert w.tobytes() == sp.weights(t)[1].tobytes()
                assert v.tobytes() == sp.velocity(t).tobytes()
        else:
            with pytest.raises(ValueError):
                sp.segment_of(ts)
            with pytest.raises(ValueError):
                sp.weights(ts)
            with pytest.raises(ValueError):
                sp.velocity(ts)
        inside = ts[np.array(covered)]
        assert len(sp.segment_of(inside)[0]) == len(inside)
