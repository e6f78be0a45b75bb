import hashlib

import numpy as np
import pytest

from velometer import dataio
from velometer.config import (PipelineConfig, apply_override, load_overrides,
                              validate_config)
from velometer.events import ImuData, make_events
from velometer.geometry import CameraIntrinsics, StereoRig


def sample_events(n=500, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 10 ** 9, n)) * 1e-9
    return make_events(t, rng.integers(0, 346, n), rng.integers(0, 260, n),
                       rng.choice([-1, 1], n).astype(np.int8))


def sample_rig():
    intr = CameraIntrinsics(f=230.0, cx=173.0, cy=130.0, width=346, height=260)
    return StereoRig(left=intr, right=intr, baseline=0.1)


class TestEventsCsv:
    def test_round_trip_ns_exact(self, tmp_path):
        ev = sample_events()
        path = tmp_path / "events.csv"
        dataio.write_events_csv(path, ev)
        back = dataio.read_events_csv(path)
        assert np.array_equal(np.round(back["t"] * 1e9).astype(np.int64),
                              np.round(ev["t"] * 1e9).astype(np.int64))
        assert np.array_equal(back["x"], ev["x"])
        assert np.array_equal(back["y"], ev["y"])
        assert np.array_equal(back["p"], ev["p"])

    def test_polarity_encoding(self, tmp_path):
        ev = make_events([0.001, 0.002], [1, 2], [3, 4], [-1, 1])
        path = tmp_path / "events.csv"
        dataio.write_events_csv(path, ev)
        text = path.read_text().strip().splitlines()
        assert text[0].endswith(",0")
        assert text[1].endswith(",1")

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1000,5,5,1\n2000,6,abc,0\n")
        with pytest.raises(dataio.ParseError) as ei:
            dataio.read_events_csv(path)
        assert ei.value.line == 2

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2000,5,5,1\n1000,6,6,0\n")
        with pytest.raises(dataio.ParseError):
            dataio.read_events_csv(path)


class TestImuVelocityOrientation:
    def test_imu_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        imu = ImuData(np.arange(100) / 200.0, rng.normal(0, 2, (100, 3)),
                      rng.normal(0, 0.5, (100, 3)))
        path = tmp_path / "imu.csv"
        dataio.write_imu_csv(path, imu)
        back = dataio.read_imu_csv(path)
        assert np.allclose(back.t, imu.t, atol=1e-9)
        assert np.allclose(back.accel, imu.accel, rtol=1e-10)
        assert np.allclose(back.gyro, imu.gyro, rtol=1e-10)

    def test_imu_unsorted_rejected_at_first_bad_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("1000,0,0,9.81,0,0,0\n"
                        "3000,0,0,9.81,0,0,0\n"
                        "2000,0,0,9.81,0,0,0\n"
                        "4000,0,0,9.81,0,0,0\n")
        with pytest.raises(dataio.ParseError, match="not sorted") as ei:
            dataio.read_imu_csv(path)
        assert ei.value.line == 3

    def test_velocity_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.arange(50) / 75.0
        v = rng.normal(0, 3, (50, 3))
        path = tmp_path / "vel.csv"
        dataio.write_velocity_csv(path, t, v)
        t2, v2 = dataio.read_velocity_csv(path)
        assert np.allclose(t2, t, atol=1e-9)
        assert np.allclose(v2, v, rtol=1e-14)

    def test_orientation_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(20, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        t = np.arange(20) / 200.0
        path = tmp_path / "q.csv"
        dataio.write_orientation_csv(path, t, q)
        t2, q2 = dataio.read_orientation_csv(path)
        assert np.allclose(q2, q, rtol=1e-14)


def per_line_csv(t, columns, fmt):
    """The per-line f-string text the bulk writers replace."""
    t_ns = np.round(np.asarray(t, dtype=float) * 1e9).astype(np.int64)
    return "".join(f"{t_ns[i]}," + ",".join(format(c[i], fmt) for c in columns)
                   + "\n" for i in range(len(t_ns)))


class TestBulkWritersMatchPerLine:
    # more rows than one `%` operation formats
    N = 2 * dataio._ROWS_PER_WRITE + 7

    def values(self, rng, cols, finite=False):
        """Random values with negative and positive zeros and tiny and huge
        magnitudes mixed in, and non-finite ones unless `finite`."""
        v = (rng.normal(0, 3, (self.N, cols))
             * 10.0 ** rng.integers(-300, 300, (self.N, cols)))
        special = [0.0, -0.0, 1e308, -1e308, 5e-324, -2.5]
        if not finite:
            special += [np.inf, -np.inf, np.nan]
        v[:len(special)] = np.asarray(special)[:, None]
        return v

    def times(self, rng):
        # seconds since 1970: t_ns around 1.7e18
        return 1.7e9 + np.sort(rng.uniform(0.0, 100.0, self.N))

    def test_events(self, tmp_path):
        rng = np.random.default_rng(4)
        t = self.times(rng)
        ev = make_events(t, rng.integers(0, 346, self.N),
                         rng.integers(0, 260, self.N),
                         rng.choice([-1, 1], self.N).astype(np.int8))
        path = tmp_path / "events.csv"
        dataio.write_events_csv(path, ev)
        p01 = (ev["p"] > 0).astype(np.int64)
        assert path.read_text() == per_line_csv(ev["t"],
                                                [ev["x"], ev["y"], p01], "")

    def test_imu(self, tmp_path):
        rng = np.random.default_rng(5)
        v = self.values(rng, 6, finite=True)
        imu = ImuData(self.times(rng), v[:, :3], v[:, 3:])
        path = tmp_path / "imu.csv"
        dataio.write_imu_csv(path, imu)
        assert path.read_text() == per_line_csv(imu.t, v.T, ".12e")

    def test_velocity_orientation_bias(self, tmp_path):
        rng = np.random.default_rng(6)
        t = self.times(rng)
        for write, cols, fmt in ((dataio.write_velocity_csv, 3, ".15e"),
                                 (dataio.write_orientation_csv, 4, ".15e"),
                                 (dataio.write_bias_csv, 6, ".12e")):
            v = self.values(rng, cols)
            path = tmp_path / f"{write.__name__}.csv"
            write(path, t, v)
            assert path.read_text() == per_line_csv(t, v.T, fmt), \
                write.__name__

    def test_empty(self, tmp_path):
        path = tmp_path / "vel.csv"
        dataio.write_velocity_csv(path, np.empty(0), np.empty((0, 3)))
        assert path.read_text() == ""


class TestCalibration:
    def test_round_trip(self, tmp_path):
        rig = sample_rig()
        path = tmp_path / "calib.cfg"
        dataio.write_calibration(path, rig)
        back = dataio.read_calibration(path)
        assert back.left.f == rig.left.f
        assert back.baseline == rig.baseline
        assert back.right.width == rig.right.width

    def test_missing_key(self, tmp_path):
        path = tmp_path / "calib.cfg"
        path.write_text("left.f = 230.0\n")
        with pytest.raises(dataio.ParseError):
            dataio.read_calibration(path)


class TestConfigOverrides:
    def test_dotted_keys(self):
        cfg = PipelineConfig()
        apply_override(cfg, "flow.max_flow", "3000")
        apply_override(cfg, "flow.batch_size", "30000")
        apply_override(cfg, "depth.score_min", "0.8")
        apply_override(cfg, "gravity", "0,0,-9.8")
        assert cfg.flow.max_flow == 3000.0
        assert type(cfg.flow.max_flow) is float
        assert cfg.flow.batch_size == 30000
        assert type(cfg.flow.batch_size) is int
        assert cfg.depth.score_min == 0.8
        assert cfg.gravity == (0.0, 0.0, -9.8)

    def test_unknown_key(self):
        # the last three are fixed constants of the modules that read them
        cfg = PipelineConfig()
        for key in ("flow.nonsense", "flow.warmup_batches",
                    "spline.window_segments", "estimator.ransac_conf"):
            with pytest.raises(KeyError):
                apply_override(cfg, key, "1")

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nspline.knot_dt = 0.05\nimu.rate_hz = 400\n")
        cfg = load_overrides(PipelineConfig(), path)
        assert cfg.spline.knot_dt == 0.05
        assert cfg.imu.rate_hz == 400.0

    @pytest.mark.parametrize("key, value", [
        ("flow.batch_size", "0"),
        ("flow.patch_radius", "0"),
        ("flow.patch_radius", "-1"),
        # the 15 x 15 patch reaches past the 5 px border margin
        ("flow.patch_radius", "7"),
        ("flow.border_margin", "0"),
        ("flow.border_margin", "1"),
        ("depth.block", "16"),
        ("depth.min_disparity", "49"),
        ("depth.min_disparity", "0"),
        ("depth.value_scale", "0"),
        ("depth.value_scale", "-0.15"),
        ("depth.min_valid_frac", "0"),
        ("depth.min_valid_frac", "1.5"),
        ("depth.score_min", "-0.1"),
        ("depth.score_min", "1.5"),
        ("imu.rate_hz", "0"),
        ("imu.rate_hz", "-200"),
        ("imu.preint_dt", "0"),
        ("imu.preint_dt", "-0.03"),
        ("imu.max_gap_factor", "0"),
        ("imu.acc_noise", "-1e-3"),
        ("imu.gyro_noise", "-1e-4"),
        ("spline.knot_dt", "0"),
        ("spline.max_jerk", "0"),
        ("estimator.output_hz", "0"),
        ("estimator.output_hz", "-5"),
        ("estimator.huber_delta", "0"),
        ("estimator.lm_lambda0", "0"),
        ("estimator.lm_lambda0", "-1e-4"),
        ("estimator.lm_lambda_max", "1e-5"),
        ("estimator.lm_max_iters", "0"),
        ("estimator.bias_prior_acc", "0"),
        ("estimator.bias_prior_gyro", "-0.02"),
        ("sim.px_step", "0"),
        ("sim.contrast_threshold", "0"),
        ("sim.jitter_std", "-1e-4"),
        ("sim.spurious_rate", "-1"),
        ("sim.z_near", "0"),
        ("sim.z_near", "-0.25"),
    ])
    def test_out_of_range_value_rejected(self, key, value):
        cfg = PipelineConfig()
        validate_config(cfg)
        apply_override(cfg, key, value)
        with pytest.raises(ValueError, match=key):
            validate_config(cfg)


class TestManifest:
    def test_manifest_counts_and_hashes(self, tmp_path):
        f1 = tmp_path / "a.csv"
        f1.write_text("1,2\n3,4\n")
        man = tmp_path / "manifest.txt"
        dataio.write_manifest(man, [("seed", 7)], [str(f1)])
        back = dataio.read_manifest(man)
        assert back["seed"] == "7"
        assert back["file.a.csv.lines"] == "2"
        assert back["file.a.csv.sha256"] == dataio.sha256_file(f1)

    @pytest.mark.parametrize("rows", ["empty", "no-trailing-newline", "csv"])
    def test_line_count_matches_text_mode(self, tmp_path, rows):
        path = tmp_path / "f.csv"
        if rows == "empty":
            path.write_bytes(b"")
        elif rows == "no-trailing-newline":
            path.write_bytes(b"1,2\n3,4\n5,6")
        else:
            dataio.write_events_csv(path, sample_events(32775))
        with open(path) as fh:
            want = sum(1 for _ in fh)
        digest, count = dataio.hash_and_count_lines(path)
        assert count == want
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
