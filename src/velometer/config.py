"""Dataclass configuration for the whole pipeline.

All knobs can be overridden with dotted keys, e.g. ``flow.max_flow=3000`` or
``spline.knot_dt=0.05``, either from the command line or from a plain
``key = value`` text file. Values that no caller varies, such as the
solver tolerances, the RANSAC settings and the window length, are constants
in the module that reads them.
"""

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class FlowConfig:
    batch_size: int = 45000          # events per batch
    border_margin: int = 5           # px, events closer to a border are culled
    min_neighbors: int = 15          # keep an event only with > this many valid neighbors
    time_dev_frac: float = 0.05      # allowed |t - mean(neighbor t)| as fraction of batch duration
    patch_radius: int = 2            # 5x5 neighborhood
    min_grad: float = 1e-4           # s/px, gradients below reject the measurement
    max_flow: float = 5000.0         # px/s, magnitudes above reject the measurement
    max_measurements: int = 800      # per-batch cap on plane fits (evenly subsampled)


@dataclass
class DepthConfig:
    max_disparity: int = 48
    block: int = 17
    score_min: float = 0.7
    margin: float = 1.1              # best score must exceed second peak by this ratio
    min_disparity: int = 1
    min_valid_frac: float = 0.5
    value_scale: float = 0.15        # rmse (window units) at which score drops to 1/e


@dataclass
class ImuConfig:
    rate_hz: float = 200.0
    # per-sample standard deviations at rate_hz
    acc_noise: float = 1.86e-2       # m/s^2
    gyro_noise: float = 1.86e-3      # rad/s
    acc_bias_std: float = 4.33e-3    # m/s^2, per-sample bias random-walk step
    gyro_bias_std: float = 2.66e-4   # rad/s
    preint_dt: float = 0.03          # s, pre-integration interval
    max_gap_factor: float = 2.0      # reject intervals with sample gaps > factor / rate


@dataclass
class SplineConfig:
    knot_dt: float = 0.1             # s between knots
    max_jerk: float = 100.0          # m/s^3, bound on the velocity's second derivative;
                                     # smoothness prior sigma = max_jerk * knot_dt^2


@dataclass
class EstimatorConfig:
    flow_sigma: float = 10.0         # px/s, fixed normal-flow measurement std
    flow_sigma_rel: float = 0.04     # plane-fit error grows with flow speed
    huber_delta: float = 2.0         # in whitened units
    lm_lambda0: float = 1e-4
    lm_lambda_max: float = 1e8
    lm_max_iters: int = 10
    seed: int = 0
    output_hz: float = 75.0
    output_lag: float = 0.1          # s, emit only states refined by later batches
    bias_prior_acc: float = 0.1      # weak zero prior, m/s^2
    bias_prior_gyro: float = 0.02    # rad/s


@dataclass
class SimConfig:
    width: int = 346
    height: int = 260
    f: float = 230.0
    cx: float = 173.0
    cy: float = 130.0
    baseline: float = 0.1            # m (not stated by the data model; exposed here)
    contrast_threshold: float = 0.5  # log-intensity step that triggers one event
    jitter_std: float = 1e-4         # s, per-event timestamp jitter
    spurious_rate: float = 0.0       # Hz, uniformly random noise events over the array
    z_near: float = 0.25             # m, geometry closer than this is skipped
    px_step: float = 3.0             # max projected motion per coarse sweep step
    seed: int = 0


@dataclass
class PipelineConfig:
    gravity: tuple = (0.0, 0.0, -9.81)   # world-frame gravity, z up
    flow: FlowConfig = field(default_factory=FlowConfig)
    depth: DepthConfig = field(default_factory=DepthConfig)
    imu: ImuConfig = field(default_factory=ImuConfig)
    spline: SplineConfig = field(default_factory=SplineConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def gravity_vec(self):
        return np.asarray(self.gravity, dtype=float)


def validate_config(cfg: PipelineConfig):
    """Raise ValueError naming the first key whose value is out of range."""
    checks = (
        ("flow.batch_size", cfg.flow.batch_size, cfg.flow.batch_size > 0,
         "must be positive"),
        ("flow.patch_radius", cfg.flow.patch_radius,
         cfg.flow.patch_radius >= 1, "must be at least 1"),
        ("flow.border_margin", cfg.flow.border_margin,
         cfg.flow.border_margin >= cfg.flow.patch_radius,
         f"must be at least flow.patch_radius={cfg.flow.patch_radius}"),
        ("depth.block", cfg.depth.block,
         cfg.depth.block > 0 and cfg.depth.block % 2 == 1,
         "must be a positive odd number"),
        ("depth.min_disparity", cfg.depth.min_disparity,
         cfg.depth.min_disparity >= 1, "must be at least 1"),
        ("depth.min_disparity", cfg.depth.min_disparity,
         cfg.depth.min_disparity <= cfg.depth.max_disparity,
         f"must not exceed depth.max_disparity={cfg.depth.max_disparity}"),
        ("depth.value_scale", cfg.depth.value_scale,
         cfg.depth.value_scale > 0, "must be positive"),
        ("depth.min_valid_frac", cfg.depth.min_valid_frac,
         0 < cfg.depth.min_valid_frac <= 1, "must be in (0, 1]"),
        ("depth.score_min", cfg.depth.score_min,
         0 <= cfg.depth.score_min <= 1, "must be in [0, 1]"),
        ("imu.rate_hz", cfg.imu.rate_hz, cfg.imu.rate_hz > 0,
         "must be positive"),
        ("imu.preint_dt", cfg.imu.preint_dt, cfg.imu.preint_dt > 0,
         "must be positive"),
        ("imu.max_gap_factor", cfg.imu.max_gap_factor,
         cfg.imu.max_gap_factor > 0, "must be positive"),
        ("imu.acc_noise", cfg.imu.acc_noise, cfg.imu.acc_noise >= 0,
         "must not be negative"),
        ("imu.gyro_noise", cfg.imu.gyro_noise, cfg.imu.gyro_noise >= 0,
         "must not be negative"),
        ("spline.knot_dt", cfg.spline.knot_dt, cfg.spline.knot_dt > 0,
         "must be positive"),
        ("spline.max_jerk", cfg.spline.max_jerk, cfg.spline.max_jerk > 0,
         "must be positive"),
        ("estimator.output_hz", cfg.estimator.output_hz,
         cfg.estimator.output_hz > 0, "must be positive"),
        ("estimator.huber_delta", cfg.estimator.huber_delta,
         cfg.estimator.huber_delta > 0, "must be positive"),
        ("estimator.lm_lambda0", cfg.estimator.lm_lambda0,
         cfg.estimator.lm_lambda0 > 0, "must be positive"),
        ("estimator.lm_lambda_max", cfg.estimator.lm_lambda_max,
         cfg.estimator.lm_lambda_max >= cfg.estimator.lm_lambda0,
         f"must be at least estimator.lm_lambda0={cfg.estimator.lm_lambda0}"),
        ("estimator.lm_max_iters", cfg.estimator.lm_max_iters,
         cfg.estimator.lm_max_iters >= 1, "must be at least 1"),
        ("estimator.bias_prior_acc", cfg.estimator.bias_prior_acc,
         cfg.estimator.bias_prior_acc > 0, "must be positive"),
        ("estimator.bias_prior_gyro", cfg.estimator.bias_prior_gyro,
         cfg.estimator.bias_prior_gyro > 0, "must be positive"),
        ("sim.px_step", cfg.sim.px_step, cfg.sim.px_step > 0,
         "must be positive"),
        ("sim.contrast_threshold", cfg.sim.contrast_threshold,
         cfg.sim.contrast_threshold > 0, "must be positive"),
        ("sim.jitter_std", cfg.sim.jitter_std, cfg.sim.jitter_std >= 0,
         "must not be negative"),
        ("sim.spurious_rate", cfg.sim.spurious_rate,
         cfg.sim.spurious_rate >= 0, "must not be negative"),
        ("sim.z_near", cfg.sim.z_near, cfg.sim.z_near > 0,
         "must be positive"),
    )
    for key, value, ok, rule in checks:
        if not ok:
            raise ValueError(f"config {key}={value} {rule}")


def _coerce(current, text):
    if isinstance(current, tuple):
        return tuple(float(v) for v in text.split(","))
    return type(current)(text)


def apply_override(cfg: PipelineConfig, key: str, value: str):
    """Set one dotted-key option, e.g. apply_override(cfg, "spline.knot_dt", "0.05")."""
    parts = key.split(".")
    target = cfg
    for part in parts[:-1]:
        if not any(f.name == part for f in fields(target)):
            raise KeyError(f"unknown config section {part!r} in {key!r}")
        target = getattr(target, part)
    leaf = parts[-1]
    if not any(f.name == leaf for f in fields(target)):
        raise KeyError(f"unknown config key {key!r}")
    setattr(target, leaf, _coerce(getattr(target, leaf), value))


def load_overrides(cfg: PipelineConfig, path):
    """Apply `key = value` lines from a file; '#' starts a comment."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            apply_override(cfg, key, value)
    return cfg

