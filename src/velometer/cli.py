"""Command-line entry points: simulate | estimate | evaluate | flow-debug.

Exit codes: 0 success, 2 parse/input error, 3 estimation failure,
4 metric error.
"""

import argparse
import os
import sys
from collections import deque

import numpy as np

from . import dataio
from .config import (PipelineConfig, apply_override, load_overrides,
                     validate_config)
from .evaluation import (MetricError, VelocityTrack, align_and_compare,
                         dead_reckon)
from .events import batch_by_count
from .imu import OrientationTrack
from .normal_flow import process_batch
from .pipeline import EstimationFailure, VelocityPipeline
from .simulator import export_dataset
from .time_surface import SurfacePair

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ESTIMATION = 3
EXIT_METRIC = 4


def _apply_configs(cfg, tokens):
    for token in tokens or []:
        if "=" in token and not os.path.exists(token):
            key, value = token.split("=", 1)
            apply_override(cfg, key.strip(), value.strip())
        else:
            load_overrides(cfg, token)
    return cfg


def cmd_simulate(args):
    cfg = _apply_configs(PipelineConfig(), args.config)
    validate_config(cfg)
    cfg.sim.seed = args.seed
    export_dataset(args.out, args.preset, cfg.sim, cfg.imu, cfg.gravity_vec(),
                   seed=args.seed, speed=args.speed, omega=args.omega,
                   duration=args.duration, imu_noise=not args.no_imu_noise)
    print(f"dataset written to {args.out}")
    return EXIT_OK


def _orientation_from_file(path, imu):
    t, q = dataio.read_orientation_csv(path)
    idx = int(np.searchsorted(t, imu.t[0]))
    idx = min(idx, len(t) - 1)
    return q[idx]


def cmd_estimate(args):
    cfg = _apply_configs(PipelineConfig(), args.config)
    validate_config(cfg)
    rig = dataio.read_calibration(args.calib)
    ev_left = dataio.read_events_csv(args.events_left)
    ev_right = dataio.read_events_csv(args.events_right)
    imu = dataio.read_imu_csv(args.imu)
    q0 = None
    if args.init_orientation:
        q0 = _orientation_from_file(args.init_orientation, imu)
    pipe = VelocityPipeline(rig, cfg)
    ts, vs, report = pipe.run(ev_left, ev_right, imu, q0=q0)
    dataio.write_velocity_csv(args.out, ts, vs)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_text())
    print(f"velocity written to {args.out} "
          f"({len(ts)} samples, {report.batches} batches)")
    return EXIT_OK


def cmd_evaluate(args):
    t_est, v_est = dataio.read_velocity_csv(args.est)
    t_gt, v_gt = dataio.read_velocity_csv(args.gt)
    est = VelocityTrack(t_est, v_est)
    gt = VelocityTrack(t_gt, v_gt)
    report = align_and_compare(est, gt)

    os.makedirs(args.out, exist_ok=True)
    if args.orient:
        t_q, quats = dataio.read_orientation_csv(args.orient)
        track = OrientationTrack.from_samples(t_q, quats,
                                              np.array([0.0, 0.0, -9.81]))
        mask = (est.t >= track.t_start) & (est.t <= track.t_end)
        sub = VelocityTrack(est.t[mask], est.v[mask])
        if len(sub.t) >= 2:
            t_p, p = dead_reckon(sub, track, np.zeros(3))
            dataio._write_rows(os.path.join(args.out, "deadreckon.csv"),
                               t_p, p, "%.9f")

    with open(os.path.join(args.out, "metrics.txt"), "w") as fh:
        fh.write(report.to_text())
    dataio._write_rows(os.path.join(args.out, "ave_series.csv"), report.t,
                       report.ave[:, None], "%.9f")
    with open(os.path.join(args.out, "rve_series.csv"), "w") as fh:
        for r in report.rve:
            fh.write(f"{r:.6f}\n")
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_flow_debug(args):
    cfg = _apply_configs(PipelineConfig(), args.config)
    validate_config(cfg)
    rig = dataio.read_calibration(args.calib)
    events = dataio.read_events_csv(args.events)
    intr = rig.left if args.camera == "left" else rig.right
    surfaces = SurfacePair(intr.width, intr.height)
    with open(args.out, "w") as fh:
        batches = deque(batch_by_count(events, cfg.flow.batch_size))
        while batches:
            batch = batches.popleft()   # frees each batch's event columns
            surfaces.update(batch)
            flows = process_batch(batch, surfaces, cfg.flow)
            t_ns = int(round(flows.t * 1e9))
            for k in range(len(flows)):
                fh.write(f"{t_ns},{flows.x[k]},{flows.y[k]},"
                         f"{flows.direction[k, 0]:.9f},"
                         f"{flows.direction[k, 1]:.9f},"
                         f"{flows.magnitude[k]:.6f},{flows.fit_rms[k]:.9e}\n")
    print(f"flow dump written to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="velometer",
        description="Stereo event-camera + IMU linear-velocity estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--preset", required=True,
                   choices=["corridor", "boxes", "const-vel", "spin"])
    p.add_argument("--speed", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-imu-noise", action="store_true")
    p.add_argument("--config", action="append",
                   help="key=value override or config file (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the velocity estimator")
    p.add_argument("--events-left", required=True)
    p.add_argument("--events-right", required=True)
    p.add_argument("--imu", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--config", action="append")
    p.add_argument("--init-orientation",
                   help="orientation CSV supplying the initial attitude")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="compare a velocity estimate to truth")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--orient", help="orientation CSV for dead reckoning")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("flow-debug", help="dump normal flow measurements")
    p.add_argument("--events", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--camera", choices=["left", "right"], default="left")
    p.add_argument("--config", action="append")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow_debug)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (dataio.ParseError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EstimationFailure as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except MetricError as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return EXIT_METRIC


if __name__ == "__main__":
    sys.exit(main())
