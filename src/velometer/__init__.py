"""Event-based visual-inertial velocity estimation at metric scale.

Fuses normal flow derived from stereo event-camera time surfaces with IMU
pre-integration in a continuous-time cubic B-spline over body velocity.
Includes a synthetic data generator and evaluation tools.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, SimConfig
from .events import EventBatch, ImuData, batch_by_count, make_events
from .geometry import CameraIntrinsics, StereoRig, flow_rows
from .imu import OrientationTrack, Preintegration, preintegrate
from .normal_flow import FlowBatch, process_batch, select_candidates
from .spline import VelocitySpline, basis
from .stereo import associate, match_blocks
from .time_surface import SurfacePair, TimeSurface
