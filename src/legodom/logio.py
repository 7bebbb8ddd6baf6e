"""Sensor-log (JSON lines), trajectory (CSV), and diagnostics IO.

One frame per log line:
  {"t": s, "att": [w,x,y,z], "gyro": [gx,gy,gz],
   "legs": [{"q": [3], "dq": [3], "tau": [3], "wheel": {"psi": r, "dpsi": r}?}, ...]}
A parsed frame holds every leg's q, dq and tau in one (3, L, 3) array,
`SensorFrame.joints`. Numbers are serialized with full double precision so
write-then-read is the identity and repeated runs are byte-identical.
"""

import json
import math

import numpy as np

from .estimator import BodyState, SensorFrame
from .geometry import JointReading, WheelReading

TRAJ_COLUMNS = ("t", "x", "y", "z", "roll", "pitch", "yaw", "vx", "vy", "vz")


class LogParseError(Exception):
    """Malformed sensor log; .line carries the 1-based offending line number."""

    def __init__(self, line, msg):
        super().__init__("line %d: %s" % (line, msg))
        self.line = line


def frame_to_dict(frame: SensorFrame):
    legs = []
    for i, (q, dq, tau) in enumerate(zip(*frame.joints.tolist())):
        d = {"q": q, "dq": dq, "tau": tau}
        if frame.wheels is not None and frame.wheels[i] is not None:
            d["wheel"] = {"psi": frame.wheels[i].psi, "dpsi": frame.wheels[i].dpsi}
        legs.append(d)
    return {"t": frame.stamp, "att": frame.att.tolist(), "gyro": frame.gyro.tolist(),
            "legs": legs}


def _vector(value, size, field):
    """value as a float array of shape (size,); a ValueError naming the field
    otherwise."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("%s: %s" % (field, exc)) from None
    if a.shape != (size,):
        raise ValueError("%s must hold %d numbers, got shape %s" % (field, size, a.shape))
    return a


def frame_from_dict(d):
    legs = d["legs"]
    try:
        joints = np.array([[leg[name] for leg in legs] for name in JointReading._fields],
                          dtype=float)
    except ValueError:
        joints = None
    if joints is None or joints.shape != (3, len(legs), 3):
        # name the first field that is not three numbers
        for i, leg in enumerate(legs):
            for name in JointReading._fields:
                _vector(leg[name], 3, "legs[%d].%s" % (i, name))
        joints = np.empty((3, 0, 3))  # every field held three numbers: no legs
    wheels = []
    has_wheel = False
    for leg in legs:
        if "wheel" in leg:
            wheels.append(WheelReading(float(leg["wheel"]["psi"]),
                                       float(leg["wheel"]["dpsi"])))
            has_wheel = True
        else:
            wheels.append(None)
    t = float(d["t"])
    if not np.isfinite(t):
        raise ValueError("t must be finite, got %r" % t)
    att = _vector(d["att"], 4, "att")
    gyro = _vector(d["gyro"], 3, "gyro")
    # a non-finite attitude or rate would turn every later state non-finite
    for name, a in (("att", att), ("gyro", gyro)):
        if not np.isfinite(a).all():
            raise ValueError("%s must be finite, got %s" % (name, a.tolist()))
    # a zero quaternion has no attitude; any other is normalised on use
    if not att.any():
        raise ValueError("att must have a nonzero norm, got %s" % att.tolist())
    return SensorFrame(t, att, gyro, joints, wheels if has_wheel else None)


def write_frames(path, frames):
    with open(path, "w", encoding="utf-8") as fh:
        for fr in frames:
            fh.write(json.dumps(frame_to_dict(fr)) + "\n")


def read_frames(path, n_legs=None):
    """The frames of a log; a frame with other than n_legs legs, if given, is an error."""
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                frame = frame_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError) as exc:
                raise LogParseError(lineno, str(exc))
            if n_legs is not None and frame.joints.shape[1] != n_legs:
                raise LogParseError(lineno, "frame has %d legs, config has %d"
                                    % (frame.joints.shape[1], n_legs))
            # a replay steps the frames in order, and Estimator.step rejects
            # a stamp that does not increase
            if frames and not frame.stamp > frames[-1].stamp:
                raise LogParseError(lineno, "stamp %r not after the previous stamp %r"
                                    % (frame.stamp, frames[-1].stamp))
            frames.append(frame)
    return frames


def state_to_row(state: BodyState):
    return (state.stamp, *state.position, *state.rpy, *state.velocity)


def write_trajectory(path, states):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRAJ_COLUMNS) + "\n")
        for st in states:
            fh.write(",".join(repr(float(v)) for v in state_to_row(st)) + "\n")


def read_trajectory(path):
    """Trajectory rows as an (n, 10) float array; a header-only or empty file
    has no rows. A bad header, a row of other than 10 fields or a field that
    is not a finite number raises LogParseError with the 1-based line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header and header != ",".join(TRAJ_COLUMNS):
            raise LogParseError(1, "unexpected trajectory header: %s" % header)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(TRAJ_COLUMNS):
                raise LogParseError(lineno, "expected %d fields, got %d"
                                    % (len(TRAJ_COLUMNS), len(fields)))
            try:
                row = [float(v) for v in fields]
            except ValueError as exc:
                raise LogParseError(lineno, str(exc)) from None
            if not all(map(math.isfinite, row)):
                raise LogParseError(lineno, "row is not finite: %s" % line)
            rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, len(TRAJ_COLUMNS))


def write_diagnostics(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


__all__ = ["LogParseError", "TRAJ_COLUMNS", "frame_to_dict", "frame_from_dict",
           "write_frames", "read_frames", "write_trajectory", "read_trajectory",
           "write_diagnostics", "state_to_row"]
