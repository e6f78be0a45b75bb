#!/usr/bin/env python3
"""Corrected vs reciprocal-component normal flow on the same dataset.

Runs the full pipeline twice on one simulated sequence and prints both mean
AVEs. The first run uses the package's normal flow: along the time-surface
gradient g, with speed 1 / |g|. The second uses the component-wise
reciprocal w = 1 / g of Benosman et al. ("Event-based visual flow", IEEE
TNNLS 2014) as the flow vector. That baseline overestimates flow magnitudes
away from diagonal gradients, which propagates into a visibly worse
velocity estimate.

For the second run, ``velometer.pipeline.process_batch`` is wrapped (and
restored afterwards) by :func:`reciprocal_flows`. It recovers each kept
row's gradient as direction / magnitude, sets w = 1 / g and keeps a row
only if w is finite and 0 < |w| <= flow.max_flow. Since |w| = |g| / |g_x g_y|
is never below 1 / |g|, every row the reciprocal rule keeps is also a
corrected row, so the wrapper keeps the rows a reciprocal conversion of the
fitted gradients would. Its values agree with that conversion within
rounding, not bit for bit: the gradient is recovered, not read.
"""

import argparse

import numpy as np

from velometer import pipeline
from velometer.config import PipelineConfig
from velometer.evaluation import (VelocityTrack, align_and_compare,
                                  gt_velocity_track)
from velometer.pipeline import EstimationFailure, VelocityPipeline
from velometer.rotations import matrix_to_quat
from velometer.simulator import (default_rig, generate_imu,
                                 generate_stereo_events, ground_truth,
                                 make_scene, make_trajectory)


def reciprocal_flows(flows, cfg):
    """The rows of the corrected `flows` that the reciprocal rule keeps,
    with the reciprocal directions and magnitudes (`cfg` is a FlowConfig)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / (flows.direction / flows.magnitude[:, None])
        magnitude = np.hypot(w[:, 0], w[:, 1])
        direction = w / magnitude[:, None]
    keep = (np.isfinite(w).all(axis=1) & (magnitude > 0)
            & (magnitude <= cfg.max_flow))
    out = flows.subset(keep)
    out.direction, out.magnitude = direction[keep], magnitude[keep]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", default="const-vel")
    ap.add_argument("--speed", type=float, default=2.0)
    ap.add_argument("--duration", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = PipelineConfig()
    rng = np.random.default_rng(args.seed)
    traj = make_trajectory(args.preset, speed=args.speed,
                           duration=args.duration)
    scene = make_scene(args.preset, traj, cfg.sim, rng)
    rig = default_rig(cfg.sim)
    ev_l, ev_r = generate_stereo_events(scene, traj, rig, cfg.sim, rng)
    imu, _, _ = generate_imu(traj, cfg.imu, cfg.gravity_vec(), rng)
    gt = gt_velocity_track(ground_truth(traj, rate=cfg.imu.rate_hz))
    q0 = matrix_to_quat(traj.pose_batch(0.0)[0][0])

    corrected = pipeline.process_batch

    def reciprocal(batch, surfaces, flow_cfg):
        return reciprocal_flows(corrected(batch, surfaces, flow_cfg), flow_cfg)

    for mode, process in (("corrected", corrected), ("benosman", reciprocal)):
        pipeline.process_batch = process
        try:
            ts, vs, _ = VelocityPipeline(rig, cfg).run(ev_l, ev_r, imu, q0=q0)
            rep = align_and_compare(VelocityTrack(ts, vs), gt)
            print(f"{mode:10s}: mean AVE {rep.mean_ave:.4f} m/s "
                  f"(median {rep.median_ave:.4f})")
        except EstimationFailure as exc:
            print(f"{mode:10s}: failed ({exc})")
        finally:
            pipeline.process_batch = corrected


if __name__ == "__main__":
    main()
