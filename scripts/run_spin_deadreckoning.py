#!/usr/bin/env python3
"""Dead-reckoning comparison on the spin preset.

Single integration of the estimated body velocity (rotated by gyro-only
orientation) against double integration of the raw IMU, both against the
analytic ground-truth trajectory.
"""

import argparse

import numpy as np

from velometer.config import PipelineConfig, apply_override
from velometer.evaluation import VelocityTrack, dead_reckon, imu_dead_reckon
from velometer.imu import OrientationTrack
from velometer.pipeline import VelocityPipeline
from velometer.rotations import matrix_to_quat
from velometer.simulator import (body_motion, default_rig, generate_imu,
                                 generate_stereo_events, make_scene,
                                 make_trajectory)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--duration", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cfg = PipelineConfig()
    apply_override(cfg, "flow.batch_size", "20000")
    apply_override(cfg, "flow.max_measurements", "400")
    gravity = cfg.gravity_vec()
    rng = np.random.default_rng(args.seed)
    traj = make_trajectory("spin", duration=args.duration)
    scene = make_scene("spin", traj, cfg.sim, rng)
    rig = default_rig(cfg.sim)
    ev_l, ev_r = generate_stereo_events(scene, traj, rig, cfg.sim, rng)
    imu, _, _ = generate_imu(traj, cfg.imu, gravity, rng)
    q0 = matrix_to_quat(traj.pose_batch(0.0)[0][0])

    pipe = VelocityPipeline(rig, cfg)
    ts, vs, _ = pipe.run(ev_l, ev_r, imu, q0=q0)
    v_gt = body_motion(traj, ts)[1]
    print(f"velocity mean AVE: "
          f"{np.linalg.norm(vs - v_gt, axis=1).mean():.3f} m/s "
          f"at speed {traj.max_speed():.2f} m/s")

    orient = OrientationTrack(imu.t[0], q0, gravity)
    orient.extend(imu)
    _, p_gt = traj.pose_batch(ts)
    _, p_est = dead_reckon(VelocityTrack(ts, vs), orient, p_gt[0])
    drift_est = np.linalg.norm(p_est[-1] - p_gt[-1])
    _, p_gt = traj.pose_batch(imu.t)
    _, p_imu, _, _ = imu_dead_reckon(imu, q0, traj.motion_batch(0.0)[0][0],
                                     p_gt[0], gravity)
    drift_imu = np.linalg.norm(p_imu[-1] - p_gt[-1])
    print(f"end-point drift: velocity integration {drift_est:.2f} m, "
          f"IMU double integration {drift_imu:.2f} m "
          f"(ratio {drift_est / drift_imu:.3f})")


if __name__ == "__main__":
    main()
