from dataclasses import replace

import numpy as np
import pytest

from velometer.config import EstimatorConfig
from velometer.geometry import CameraIntrinsics, flow_rows
from velometer.initializer import (InitializationError, constraint_rows,
                                   ransac_initialize)
from velometer.normal_flow import FlowBatch

INTR = CameraIntrinsics(f=230.0, cx=173.0, cy=130.0, width=346, height=260)


def flow_matrices(intr, px):
    """(A, B) at a pixel: the rows of flow_rows at n = (1, 0) and (0, 1)."""
    return flow_rows(intr, np.full(2, px[0]), np.full(2, px[1]), np.eye(2))


def make_flows(rows, t=1.0):
    """Depth-matched flow batch from (x, y, n, magnitude, depth) rows."""
    x, y, n, magnitude, depth = zip(*rows)
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    k = len(rows)
    return FlowBatch(t, np.array(x), np.array(y), n,
                     np.array(magnitude, dtype=float), np.zeros(k),
                     depth=np.array(depth, dtype=float), weight=np.ones(k))


def synthetic_observations(v, omega, rng, count=30, outliers=0):
    """Flows consistent with (v, omega) plus optional gross outliers."""
    rows = []
    for _ in range(count):
        x = int(rng.integers(20, 326))
        y = int(rng.integers(20, 240))
        z = float(rng.uniform(0.8, 4.0))
        a, b = flow_matrices(INTR, (x, y))
        alpha = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(alpha), np.sin(alpha)])
        mag = n @ a @ v / z + n @ b @ omega
        if mag < 0:
            n, mag = -n, -mag
        if mag < 1.0:
            continue
        rows.append((x, y, n, mag, z))
    obs = make_flows(rows)
    k = len(obs)
    for i in rng.choice(k, size=min(outliers, k), replace=False):
        obs.magnitude[i] += rng.uniform(500, 2000)
    return obs


class TestMinimalSolve:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(0)
        v = np.array([1.0, 2.0, 3.0])
        obs = synthetic_observations(v, np.zeros(3), rng, count=6).subset([0, 1, 2])
        res = ransac_initialize(obs, np.zeros(3), INTR)
        assert np.allclose(res.velocity, v, atol=1e-9)

    def test_noise_free_with_rotation(self):
        rng = np.random.default_rng(1)
        v = np.array([-0.5, 0.8, 2.0])
        w = np.array([0.2, -0.1, 0.4])
        obs = synthetic_observations(v, w, rng, count=20)
        res = ransac_initialize(obs, w, INTR)
        assert np.allclose(res.velocity, v, atol=1e-8)
        assert len(res.inliers) == len(obs)


class TestRansac:
    def test_forty_percent_outliers(self):
        rng = np.random.default_rng(2)
        v = np.array([1.0, 2.0, 3.0])
        obs = synthetic_observations(v, np.zeros(3), rng, count=30)
        n_out = int(0.4 * len(obs))
        outlier_idx = set(rng.choice(len(obs), size=n_out, replace=False).tolist())
        for i in outlier_idx:
            obs.magnitude[i] += rng.uniform(300, 1500)
        cfg = EstimatorConfig(seed=5)
        res = ransac_initialize(obs, np.zeros(3), INTR, cfg)
        assert np.allclose(res.velocity, v, atol=1e-6)
        assert outlier_idx.isdisjoint(set(res.inliers.tolist()))

    def test_repeated_trials(self):
        rng = np.random.default_rng(3)
        failures = 0
        for trial in range(30):
            v = rng.uniform(-3, 3, 3)
            if np.linalg.norm(v) < 0.5:
                continue
            obs = synthetic_observations(v, np.zeros(3), rng, count=30)
            n_out = int(0.4 * len(obs))
            for i in rng.choice(len(obs), size=n_out, replace=False):
                obs.magnitude[i] += rng.uniform(300, 1500)
            try:
                res = ransac_initialize(obs, np.zeros(3), INTR,
                                        EstimatorConfig(seed=trial))
                if np.linalg.norm(res.velocity - v) > 1e-3:
                    failures += 1
            except InitializationError:
                failures += 1
        assert failures == 0


class TestDegeneracy:
    def test_too_few_observations(self):
        rng = np.random.default_rng(4)
        obs = synthetic_observations(np.array([1.0, 0, 1.0]), np.zeros(3),
                                     rng, count=5).subset([0, 1])
        with pytest.raises(InitializationError) as ei:
            ransac_initialize(obs, np.zeros(3), INTR)
        assert ei.value.reason == "too_few_observations"

    def test_single_edge_rank_deficiency(self):
        # all flows from one straight edge: same direction n, pixels on the
        # line through the edge; every constraint row is identical
        v = np.array([0.5, 0.0, 1.0])
        n = np.array([1.0, 0.0])
        rows = []
        for y in range(40, 220, 10):
            x = 200
            a, b = flow_matrices(INTR, (x, y))
            mag = n @ a @ v / 2.0
            if mag < 0:
                mag = -mag
            rows.append((x, y, n, max(mag, 1.0), 2.0))
        obs = make_flows(rows)
        with pytest.raises(InitializationError) as ei:
            ransac_initialize(obs, np.zeros(3), INTR)
        assert ei.value.reason == "rank_deficient"

    def test_constraint_row_geometry(self):
        # rows from a vertical edge: the component along the edge vanishes
        n = np.array([1.0, 0.0])
        obs = make_flows([(250, y, n, 100.0, 2.0) for y in (60, 130, 200)])
        a_rows, _, _ = constraint_rows(obs, np.zeros(3), INTR)
        assert np.allclose(a_rows - a_rows[0], 0.0, atol=1e-9)


class TestScaleConsistency:
    def test_velocity_scales_with_depth(self):
        rng = np.random.default_rng(5)
        v = np.array([0.8, -0.4, 1.5])
        obs = synthetic_observations(v, np.zeros(3), rng, count=25)
        res1 = ransac_initialize(obs, np.zeros(3), INTR, EstimatorConfig(seed=0))
        scaled = replace(obs, depth=obs.depth * 2.0)
        res2 = ransac_initialize(scaled, np.zeros(3), INTR, EstimatorConfig(seed=0))
        assert np.allclose(res2.velocity, 2.0 * res1.velocity, atol=1e-6)
