import os

import numpy as np
import pytest

from velometer import dataio
from velometer.cli import main
from velometer.config import PipelineConfig
from velometer.pipeline import (EstimationFailure, VelocityPipeline,
                                static_initial_orientation)
from velometer.rotations import quat_identity, quat_to_matrix
from velometer.events import ImuData, make_events
from velometer.simulator import default_rig, export_dataset, make_trajectory


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small const-vel dataset shared by the CLI tests."""
    out = tmp_path_factory.mktemp("data") / "constvel"
    cfg = PipelineConfig()
    cfg.sim.jitter_std = 1e-4
    paths = export_dataset(str(out), "const-vel", cfg.sim, cfg.imu,
                           cfg.gravity_vec(), seed=3, speed=2.0, duration=1.6)
    return paths


class TestSimulateCli:
    def test_simulate_writes_dataset(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--preset", "const-vel", "--speed", "1.5",
                   "--duration", "0.8", "--seed", "1", "--out", str(out)])
        assert rc == 0
        for name in ("events_left.csv", "events_right.csv", "imu.csv",
                     "calib.cfg", "gt_velocity.csv", "gt_orientation.csv",
                     "manifest.txt"):
            assert (out / name).exists()
        manifest = dataio.read_manifest(out / "manifest.txt")
        n_lines = int(manifest["file.events_left.csv.lines"])
        with open(out / "events_left.csv") as fh:
            assert sum(1 for _ in fh) == n_lines

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["simulate", "--preset", "const-vel", "--duration",
                       "0.6", "--seed", "7", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in sorted(os.listdir(outs[0])):
            h1 = dataio.sha256_file(outs[0] / fname)
            h2 = dataio.sha256_file(outs[1] / fname)
            assert h1 == h2, fname

    def test_out_of_range_config_exits_before_writing(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--preset", "const-vel", "--duration", "3",
                   "--config", "sim.px_step=0", "--out", str(out)])
        assert rc == 2
        assert "sim.px_step" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("duration", ["0", "-1", "nan"])
    def test_non_positive_duration_exits_before_writing(self, tmp_path,
                                                        capsys, duration):
        out = tmp_path / "sim"
        rc = main(["simulate", "--preset", "const-vel", "--duration", duration,
                   "--out", str(out)])
        assert rc == 2
        assert "duration" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_near_plane_exits_before_writing(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--preset", "const-vel", "--duration", "3",
                   "--config", "sim.z_near=0", "--out", str(out)])
        assert rc == 2
        assert "sim.z_near" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)


class TestEstimateCli:
    def test_estimate_and_evaluate(self, dataset, tmp_path):
        vel = tmp_path / "velocity.csv"
        rep = tmp_path / "report.txt"
        rc = main(["estimate",
                   "--events-left", dataset["events_left"],
                   "--events-right", dataset["events_right"],
                   "--imu", dataset["imu"],
                   "--calib", dataset["calib"],
                   "--init-orientation", dataset["gt_orientation"],
                   "--out", str(vel), "--report", str(rep)])
        assert rc == 0
        assert vel.exists() and rep.exists()
        t, v = dataio.read_velocity_csv(vel)
        assert len(t) > 10
        report_text = rep.read_text()
        assert "realtime_factor" in report_text

        out_dir = tmp_path / "metrics"
        rc = main(["evaluate", "--est", str(vel), "--gt", dataset["gt_velocity"],
                   "--orient", dataset["gt_orientation"], "--out", str(out_dir)])
        assert rc == 0
        metrics = (out_dir / "metrics.txt").read_text()
        mean_ave = float([ln.split(":")[1] for ln in metrics.splitlines()
                          if ln.startswith("mean_ave")][0])
        assert mean_ave < 0.25
        assert (out_dir / "ave_series.csv").exists()
        assert (out_dir / "deadreckon.csv").exists()

    def test_estimate_deterministic(self, dataset, tmp_path):
        outs = []
        for name in ("v1.csv", "v2.csv"):
            vel = tmp_path / name
            rc = main(["estimate",
                       "--events-left", dataset["events_left"],
                       "--events-right", dataset["events_right"],
                       "--imu", dataset["imu"],
                       "--calib", dataset["calib"],
                       "--init-orientation", dataset["gt_orientation"],
                       "--out", str(vel)])
            assert rc == 0
            outs.append(vel)
        t1, v1 = dataio.read_velocity_csv(outs[0])
        t2, v2 = dataio.read_velocity_csv(outs[1])
        assert np.array_equal(t1, t2)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_missing_imu_file_exit_code(self, dataset, tmp_path):
        rc = main(["estimate",
                   "--events-left", dataset["events_left"],
                   "--events-right", dataset["events_right"],
                   "--imu", str(tmp_path / "nope.csv"),
                   "--calib", dataset["calib"],
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2

    def test_unsorted_imu_file_exit_code(self, dataset, tmp_path, capsys):
        lines = open(dataset["imu"]).readlines()
        lines[10], lines[11] = lines[11], lines[10]
        swapped = tmp_path / "imu_swapped.csv"
        swapped.write_text("".join(lines))
        rc = main(["estimate",
                   "--events-left", dataset["events_left"],
                   "--events-right", dataset["events_right"],
                   "--imu", str(swapped),
                   "--calib", dataset["calib"],
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{swapped}:12: IMU samples not sorted" in err
        assert "Traceback" not in err
        assert not (tmp_path / "v.csv").exists()

    def test_out_of_range_config_exit_code(self, dataset, tmp_path):
        rc = main(["estimate",
                   "--events-left", dataset["events_left"],
                   "--events-right", dataset["events_right"],
                   "--imu", dataset["imu"],
                   "--calib", dataset["calib"],
                   "--config", "flow.batch_size=0",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        assert not (tmp_path / "v.csv").exists()

    def test_config_checked_before_inputs_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        # depth.value_scale=0 would make every match score NaN and drop it;
        # imu.preint_dt=0 would make split_intervals loop forever
        for key in ("flow.batch_size", "depth.value_scale", "imu.preint_dt"):
            rc = main(["estimate",
                       "--events-left", missing,
                       "--events-right", missing,
                       "--imu", missing,
                       "--calib", missing,
                       "--config", f"{key}=0",
                       "--out", str(tmp_path / "v.csv")])
            assert rc == 2
            err = capsys.readouterr().err
            assert key in err
            assert "missing.csv" not in err

    @pytest.mark.parametrize("override, key", [
        # 0 raised ZeroDivisionError after the whole run; -5 never returned
        ("estimator.output_hz=0", "estimator.output_hz"),
        ("estimator.output_hz=-5", "estimator.output_hz"),
        # failed deep in numpy, or read past the border margin
        ("flow.patch_radius=-1", "flow.patch_radius"),
        ("flow.patch_radius=7", "flow.border_margin"),
        ("flow.border_margin=0", "flow.border_margin"),
        # the reciprocal flow mode is gone: an unknown key
        ("flow.mode=benosman", "flow.mode"),
        # a fixed constant of the initializer: an unknown key
        ("estimator.cond_max=1", "estimator.cond_max"),
    ])
    def test_flow_and_output_keys_checked_before_inputs_are_read(
            self, tmp_path, capsys, override, key):
        missing = str(tmp_path / "missing.csv")
        rc = main(["estimate",
                   "--events-left", missing,
                   "--events-right", missing,
                   "--imu", missing,
                   "--calib", missing,
                   "--config", override,
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err
        assert "missing.csv" not in err

    def test_estimator_keys_checked_before_inputs_are_read(self, tmp_path,
                                                           capsys):
        # lm_lambda0=0 made optimize loop forever, lm_lambda_max below it
        # skipped every optimize, a zero bias prior divided by zero after
        # the run started, and huber_delta=0 zeroed every flow weight
        missing = str(tmp_path / "missing.csv")
        for override in ("estimator.lm_lambda0=0", "estimator.lm_lambda_max=0",
                         "estimator.bias_prior_acc=0",
                         "estimator.bias_prior_gyro=0",
                         "estimator.lm_max_iters=0", "estimator.huber_delta=0",
                         "spline.max_jerk=0"):
            rc = main(["estimate",
                       "--events-left", missing,
                       "--events-right", missing,
                       "--imu", missing,
                       "--calib", missing,
                       "--config", override,
                       "--out", str(tmp_path / "v.csv")])
            assert rc == 2
            err = capsys.readouterr().err
            assert override.split("=")[0] in err
            assert "missing.csv" not in err

    def test_config_override_changes_behavior(self, dataset, tmp_path):
        vel = tmp_path / "v.csv"
        rc = main(["estimate",
                   "--events-left", dataset["events_left"],
                   "--events-right", dataset["events_right"],
                   "--imu", dataset["imu"],
                   "--calib", dataset["calib"],
                   "--init-orientation", dataset["gt_orientation"],
                   "--config", "estimator.output_hz=30",
                   "--out", str(vel)])
        assert rc == 0
        t, v = dataio.read_velocity_csv(vel)
        dt = np.diff(t)
        assert np.allclose(dt[dt < 0.1], 1.0 / 30.0, atol=1e-9)


class TestEvaluateCli:
    def test_metric_error_exit_code(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        dataio.write_velocity_csv(a, np.array([0.0, 0.1]), np.zeros((2, 3)))
        dataio.write_velocity_csv(b, np.array([5.0, 5.1]), np.zeros((2, 3)))
        rc = main(["evaluate", "--est", str(a), "--gt", str(b),
                   "--out", str(tmp_path / "m")])
        assert rc == 4

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,notanumber,4\n")
        ok = tmp_path / "ok.csv"
        dataio.write_velocity_csv(ok, np.array([0.0, 0.1]), np.zeros((2, 3)))
        rc = main(["evaluate", "--est", str(bad), "--gt", str(ok),
                   "--out", str(tmp_path / "m")])
        assert rc == 2


class TestFlowDebugCli:
    def test_dump_format(self, dataset, tmp_path):
        out = tmp_path / "flows.csv"
        rc = main(["flow-debug", "--events", dataset["events_left"],
                   "--calib", dataset["calib"],
                   "--config", "flow.batch_size=20000",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 10
        parts = lines[0].split(",")
        assert len(parts) == 7
        n = np.array([float(parts[3]), float(parts[4])])
        assert abs(np.linalg.norm(n) - 1.0) < 1e-6


class TestStaticOrientation:
    def test_static_alignment_recovers_gravity_direction(self):
        # tilted stationary sensor: accel reads -R^T g
        from velometer.rotations import quat_from_rotvec
        gravity = np.array([0.0, 0.0, -9.81])
        tilt = quat_to_matrix(quat_from_rotvec(np.array([0.3, -0.2, 0.0])))
        r_true = tilt @ quat_to_matrix(
            np.array([0.5, -0.5, 0.5, -0.5]))  # arbitrary attitude
        n = 120
        t = np.arange(n) / 200.0
        accel = np.tile(-r_true.T @ gravity, (n, 1))
        imu = ImuData(t, accel, np.zeros((n, 3)))
        q0 = static_initial_orientation(imu, gravity)
        r0 = quat_to_matrix(q0)
        # gravity direction in body must match; yaw is unobservable
        assert np.allclose(r0 @ accel[0], -gravity, atol=1e-6)


class TestRightCameraChunks:
    def test_right_events_only_at_batch_end(self):
        # the one right event sits exactly at the end of the first left
        # batch, so the right chunk's events span zero time
        cfg = PipelineConfig()
        cfg.flow.batch_size = 10
        t = np.arange(40) * 0.01
        left = make_events(t, 100 + np.arange(40) % 5, np.full(40, 80),
                           np.ones(40, dtype=np.int8))
        right = make_events(t[9:10], [90], [80], [1])
        imu_t = np.arange(0.0, 0.5, 0.005)
        imu = ImuData(imu_t, np.tile([0.0, 0.0, 9.81], (len(imu_t), 1)),
                      np.zeros((len(imu_t), 3)))
        pipe = VelocityPipeline(default_rig(cfg.sim), cfg)
        with pytest.raises(EstimationFailure):
            pipe.run(left, right, imu, q0=quat_identity())
        assert pipe.right_surface.stamps[80, 90] == t[9]
        assert pipe.right_surface.t_ref == t[9]
