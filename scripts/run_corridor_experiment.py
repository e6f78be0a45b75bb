#!/usr/bin/env python3
"""Simulate a corridor sequence, estimate velocity, and report metrics.

End-to-end in memory (no files); prints the run report and the velocity
error summary. Use --speed/--omega/--duration/--seed to vary the setup.
"""

import argparse
import time

import numpy as np

from velometer.config import PipelineConfig
from velometer.evaluation import (VelocityTrack, align_and_compare,
                                  gt_velocity_track)
from velometer.pipeline import VelocityPipeline
from velometer.rotations import matrix_to_quat
from velometer.simulator import (default_rig, generate_imu,
                                 generate_stereo_events, ground_truth,
                                 make_scene, make_trajectory)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--speed", type=float, default=5.68)
    ap.add_argument("--omega", type=float, default=0.66)
    ap.add_argument("--duration", type=float, default=2.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = PipelineConfig()
    rng = np.random.default_rng(args.seed)
    traj = make_trajectory("corridor", speed=args.speed, omega=args.omega,
                           duration=args.duration)
    scene = make_scene("corridor", traj, cfg.sim, rng)
    rig = default_rig(cfg.sim)

    t0 = time.perf_counter()
    ev_l, ev_r = generate_stereo_events(scene, traj, rig, cfg.sim, rng)
    print(f"simulated {len(ev_l)} / {len(ev_r)} events "
          f"in {time.perf_counter() - t0:.1f}s")
    imu, _, _ = generate_imu(traj, cfg.imu, cfg.gravity_vec(), rng)

    pipe = VelocityPipeline(rig, cfg)
    q0 = matrix_to_quat(traj.pose_batch(0.0)[0][0])
    ts, vs, report = pipe.run(ev_l, ev_r, imu, q0=q0)
    print(report.to_text())

    gt = ground_truth(traj, rate=cfg.imu.rate_hz)
    metrics = align_and_compare(VelocityTrack(ts, vs), gt_velocity_track(gt))
    print(metrics.to_text())


if __name__ == "__main__":
    main()
