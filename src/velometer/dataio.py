"""File formats: CSV streams with integer-nanosecond timestamps.

  events:      t_ns,x,y,p        p in {0,1} encoding polarity -1/+1
  imu:         t_ns,ax,ay,az,wx,wy,wz          SI units
  velocity:    t_ns,vx,vy,vz                   m/s
  orientation: t_ns,qw,qx,qy,qz                world-from-body quaternion
  bias:        t_ns,bax,bay,baz,bwx,bwy,bwz    accel | gyro IMU bias
  calibration: `key = value` lines (left.f, left.cx, ..., baseline)

All writers are deterministic: fixed float formatting, no dict iteration.
"""

import hashlib
import itertools
import os

import numpy as np

from .events import ImuData, make_events
from .geometry import CameraIntrinsics, StereoRig


class ParseError(RuntimeError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def _to_ns(t):
    return np.round(np.asarray(t, dtype=float) * 1e9).astype(np.int64)


def _from_ns(t_ns):
    return np.asarray(t_ns, dtype=np.int64) * 1e-9


# lines formatted by one `%` operation of _write_rows
_ROWS_PER_WRITE = 1 << 14


def _write_rows(path, t, values, fmt):
    """One line per row: integer nanoseconds of t, then the row of the 2-D
    `values`, each in the %-format `fmt`, comma separated."""
    t_ns = _to_ns(t)
    values = np.asarray(values)
    line = ",".join(["%d"] + [fmt] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        for i in range(0, len(t_ns), _ROWS_PER_WRITE):
            part = t_ns[i:i + _ROWS_PER_WRITE].tolist()
            cols = values[i:i + _ROWS_PER_WRITE].T.tolist()
            fields = tuple(itertools.chain.from_iterable(zip(part, *cols)))
            fh.write((line * len(part)) % fields)


def write_events_csv(path, events):
    xyp = np.stack([events["x"], events["y"], events["p"] > 0], axis=1)
    _write_rows(path, events["t"], xyp, "%d")


def read_events_csv(path):
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ParseError(path, _find_bad_line(path, 4), str(exc)) from exc
    if data.size == 0:
        return make_events(np.empty(0), np.empty(0, np.int32),
                           np.empty(0, np.int32), np.empty(0, np.int8))
    if data.shape[1] != 4:
        raise ParseError(path, 1, f"expected 4 columns, got {data.shape[1]}")
    t = _from_ns(data[:, 0])
    _check_sorted(path, t, "events")
    p = np.where(data[:, 3] > 0, 1, -1).astype(np.int8)
    return make_events(t, data[:, 1].astype(np.int32),
                       data[:, 2].astype(np.int32), p)


def _check_sorted(path, t, what):
    """ParseError naming the first line whose time is before the previous
    line's (one row per line)."""
    back = np.flatnonzero(np.diff(t) < 0)
    if len(back):
        raise ParseError(path, int(back[0]) + 2,
                         f"{what} not sorted by timestamp")


def _find_bad_line(path, ncols):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.strip().split(",")
            if len(parts) != ncols:
                return lineno
            for p in parts:
                try:
                    float(p)
                except ValueError:
                    return lineno
    return 0


def write_imu_csv(path, imu: ImuData):
    _write_rows(path, imu.t, np.hstack([imu.accel, imu.gyro]), "%.12e")


def read_imu_csv(path):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        raise ParseError(path, _find_bad_line(path, 7), str(exc)) from exc
    if data.shape[1] != 7:
        raise ParseError(path, 1, f"expected 7 columns, got {data.shape[1]}")
    t = _from_ns(data[:, 0].astype(np.int64))
    _check_sorted(path, t, "IMU samples")
    return ImuData(t, data[:, 1:4], data[:, 4:7])


def write_velocity_csv(path, t, v):
    _write_rows(path, t, v, "%.15e")


def read_velocity_csv(path):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        raise ParseError(path, _find_bad_line(path, 4), str(exc)) from exc
    if data.size == 0:
        raise ParseError(path, 1, "empty velocity file")
    if data.shape[1] != 4:
        raise ParseError(path, 1, f"expected 4 columns, got {data.shape[1]}")
    return _from_ns(data[:, 0].astype(np.int64)), data[:, 1:4]


def write_orientation_csv(path, t, quats):
    _write_rows(path, t, quats, "%.15e")


def write_bias_csv(path, t, biases):
    """Per-sample IMU biases, rows [accel | gyro]."""
    _write_rows(path, t, biases, "%.12e")


def read_orientation_csv(path):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        raise ParseError(path, _find_bad_line(path, 5), str(exc)) from exc
    if data.shape[1] != 5:
        raise ParseError(path, 1, f"expected 5 columns, got {data.shape[1]}")
    return _from_ns(data[:, 0].astype(np.int64)), data[:, 1:5]


def write_calibration(path, rig: StereoRig):
    lines = []
    for name, intr in (("left", rig.left), ("right", rig.right)):
        lines.append(f"{name}.f = {intr.f!r}")
        lines.append(f"{name}.cx = {intr.cx!r}")
        lines.append(f"{name}.cy = {intr.cy!r}")
        lines.append(f"{name}.width = {intr.width}")
        lines.append(f"{name}.height = {intr.height}")
    lines.append(f"baseline = {rig.baseline!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_calibration(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, lineno, "expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise ParseError(path, lineno, f"bad number {val!r}") from exc

    def intr(prefix):
        try:
            return CameraIntrinsics(
                f=values[f"{prefix}.f"], cx=values[f"{prefix}.cx"],
                cy=values[f"{prefix}.cy"], width=int(values[f"{prefix}.width"]),
                height=int(values[f"{prefix}.height"]))
        except KeyError as exc:
            raise ParseError(path, 0, f"missing calibration key {exc}") from exc

    if "baseline" not in values:
        raise ParseError(path, 0, "missing calibration key baseline")
    return StereoRig(left=intr("left"), right=intr("right"),
                     baseline=values["baseline"])


def hash_and_count_lines(path):
    """SHA-256 hex digest and line count of a file from one binary pass: the
    number of newlines, plus 1 for a last line without one."""
    h = hashlib.sha256()
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return h.hexdigest(), count + (last != b"\n")


def sha256_file(path):
    return hash_and_count_lines(path)[0]


def write_manifest(path, entries, file_paths):
    """Manifest: `key = value` lines plus per-file line counts and hashes."""
    lines = [f"{k} = {v}" for k, v in entries]
    for fp in file_paths:
        name = os.path.basename(fp)
        digest, count = hash_and_count_lines(fp)
        lines.append(f"file.{name}.lines = {count}")
        lines.append(f"file.{name}.sha256 = {digest}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path):
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, lineno, "expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out
