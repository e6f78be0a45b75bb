"""Linear bootstrap of the body velocity from one batch of observations.

Each row of a depth-matched flow batch contributes one linear constraint on v:

    (n^T A) v = Z * (magnitude - n^T B omega)

Three independent rows determine v; RANSAC over minimal triples makes the
solve robust to flow or depth outliers. Residuals are expressed in px/s
(row residual divided by Z) so the inlier threshold has flow units.
"""

from dataclasses import dataclass

import numpy as np

from .config import EstimatorConfig
from .geometry import CameraIntrinsics, flow_rows
from .normal_flow import FlowBatch

# inlier threshold: the larger of a floor and a fraction of the flow speed,
# since the plane-fit error grows with the speed
_INLIER_EPS = 15.0          # px/s
_INLIER_EPS_FRAC = 0.05
_CONFIDENCE = 0.99          # of one all-inlier triple; sets the iterations
_MAX_ITERS = 200
_MIN_INLIER_RATIO = 0.3
_COND_MAX = 1e6             # singular-value ratio flagged as rank deficient


class InitializationError(RuntimeError):
    def __init__(self, reason, message=None):
        super().__init__(message or reason)
        self.reason = reason


@dataclass
class InitResult:
    velocity: np.ndarray
    inliers: np.ndarray      # row indices into the flow batch


def constraint_rows(flows: FlowBatch, omega, intr: CameraIntrinsics):
    """Stack (a_rows, rhs, depths): a_rows @ v = rhs, residual scaled by 1/Z."""
    a_rows, b_rows = flow_rows(intr, flows.x, flows.y, flows.direction)
    rhs = flows.depth * (flows.magnitude - b_rows @ np.asarray(omega, dtype=float))
    return a_rows, rhs, flows.depth


def _condition_ratio(mat):
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= 0:
        return np.inf
    return s[0] / s[-1]


def ransac_initialize(flows: FlowBatch, omega, intr: CameraIntrinsics,
                      cfg: EstimatorConfig = None, rng=None) -> InitResult:
    """RANSAC over 3-row minimal solves; raises InitializationError.

    Failure reasons: "too_few_observations", "rank_deficient" (all usable
    systems have a singular-value ratio beyond _COND_MAX, e.g. every flow
    coming from one straight edge), "low_inlier_ratio".
    """
    cfg = cfg or EstimatorConfig()
    rng = rng or np.random.default_rng(cfg.seed)
    k = len(flows)
    if k < 3:
        raise InitializationError("too_few_observations",
                                  f"need at least 3 observations, got {k}")
    a_rows, rhs, depths = constraint_rows(flows, omega, intr)
    eps = np.maximum(_INLIER_EPS, _INLIER_EPS_FRAC * flows.magnitude)

    def residuals(v):
        return (a_rows @ v - rhs) / depths

    best_inliers = None
    best_count = 0
    best_rms = np.inf
    iters_needed = _MAX_ITERS
    it = 0
    while it < min(_MAX_ITERS, iters_needed):
        it += 1
        sample = rng.choice(k, size=3, replace=False)
        m = a_rows[sample]
        if _condition_ratio(m) > _COND_MAX:
            continue
        v = np.linalg.solve(m, rhs[sample])
        res = np.abs(residuals(v))
        inliers = res < eps
        count = int(inliers.sum())
        if count < 3:
            continue
        rms = float(np.sqrt(np.mean(res[inliers] ** 2)))
        if count > best_count or (count == best_count and rms < best_rms):
            best_count = count
            best_inliers = inliers
            best_rms = rms
            ratio = count / k
            if ratio >= 1.0 - 1e-12:
                break
            denom = np.log(max(1.0 - ratio ** 3, 1e-12))
            iters_needed = int(np.ceil(np.log(1.0 - _CONFIDENCE) / denom))

    if best_inliers is None:
        if _condition_ratio(a_rows) > _COND_MAX:
            raise InitializationError("rank_deficient",
                                      "observations do not span the velocity space")
        raise InitializationError("low_inlier_ratio", "no consensus found")

    idx = np.flatnonzero(best_inliers)
    m = a_rows[idx]
    if _condition_ratio(m) > _COND_MAX:
        raise InitializationError("rank_deficient",
                                  "inlier system is rank deficient")
    v, *_ = np.linalg.lstsq(m, rhs[idx], rcond=None)
    res = np.abs(residuals(v))
    inliers = res < eps
    idx = np.flatnonzero(inliers)
    if len(idx) / k < _MIN_INLIER_RATIO:
        raise InitializationError(
            "low_inlier_ratio",
            f"inlier ratio {len(idx) / k:.2f} below {_MIN_INLIER_RATIO}")
    return InitResult(velocity=v, inliers=idx)
