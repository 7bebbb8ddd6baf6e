"""Sensor-log (JSON lines) and trajectory (CSV) IO.

One frame per log line:
  {"t": s, "att": [w,x,y,z], "gyro": [gx,gy,gz],
   "legs": [{"q": [3], "dq": [3], "tau": [3], "wheel": {"psi": r, "dpsi": r}?}, ...]}
A parsed frame holds every leg's q, dq and tau in one (3, L, 3) array,
`SensorFrame.joints`. A well-formed line is one float array [t, *att, *gyro,
*joints], with att, gyro and joints views into it; any other is parsed
field by field, to name its first bad field. `encode_json` (`json.dumps`
less its circular check) keeps full double precision, so write-then-read is
the identity and repeated runs are byte-identical.
"""

import json
import math
from itertools import chain

import numpy as np

from .estimator import BodyState, SensorFrame
from .geometry import JointReading, WheelReading

TRAJ_COLUMNS = ("t", "x", "y", "z", "roll", "pitch", "yaw", "vx", "vy", "vz")
TRAJ_HEADER = ",".join(TRAJ_COLUMNS) + "\n"
encode_json = json.JSONEncoder(check_circular=False).encode
_LISTS = {list, tuple}


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
    """value as a float array of shape (size,), else a ValueError naming the field."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("%s: %s" % (field, exc)) from None
    if a.shape != (size,):
        raise ValueError("%s must hold %d numbers, got shape %s" % (field, size, a.shape))
    return a


def _wheels(legs):
    wheels = [None] * len(legs)
    for i, leg in enumerate(legs):
        if "wheel" in leg:
            psi, dpsi = float(leg["wheel"]["psi"]), float(leg["wheel"]["dpsi"])
            # a non-finite wheel reading would turn every later state non-finite
            if not (math.isfinite(psi) and math.isfinite(dpsi)):
                raise ValueError("legs[%d].wheel.%s must be finite, got %r" % (
                    (i, "psi", psi) if not math.isfinite(psi) else (i, "dpsi", dpsi)))
            wheels[i] = WheelReading(psi, dpsi)
    return wheels if any(wheels) else None


def frame_from_dict(d):
    legs = d["legs"]
    try:  # one conversion of a well-formed line ("123" has three characters)
        t, att, gyro = d["t"], d["att"], d["gyro"]
        rows = [leg[name] for name in JointReading._fields for leg in legs]
        if (type(att) in _LISTS and type(gyro) in _LISTS and len(att) == 4 and len(gyro) == 3
                and set(map(type, rows)) <= _LISTS and set(map(len, rows)) <= {3}
                and math.isfinite(t + sum(att) + sum(gyro)) and any(att)):
            flat = np.fromiter(chain((t,), att, gyro, *rows), float, 8 + 3 * len(rows))
            return SensorFrame(float(t), flat[1:5], flat[5:8],
                               flat[8:].reshape(3, len(legs), 3), _wheels(legs))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass  # field by field below, in order, to name the first bad field
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
    wheels = _wheels(legs)
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
    return SensorFrame(t, att, gyro, joints, wheels)


def write_frames(path, frames):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode_json(frame_to_dict(fr)) + "\n" for fr in frames)


def iter_frames(path, n_legs=None):
    """The frames of a log, parsed one line at a time as they are taken; a
    frame with other than n_legs legs, if given, is an error."""
    stamp = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                frame = frame_from_dict(json.loads(line))
            # RecursionError: a line nested deeper than the interpreter's limit
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise LogParseError(lineno, str(exc))
            if n_legs is not None and frame.joints.shape[1] != n_legs:
                raise LogParseError(lineno, "frame has %d legs, config has %d"
                                    % (frame.joints.shape[1], n_legs))
            # a replay steps the frames in order, and Estimator.step rejects
            # a stamp that does not increase
            if stamp is not None and not frame.stamp > stamp:
                raise LogParseError(lineno, "stamp %r not after the previous stamp %r"
                                    % (frame.stamp, stamp))
            stamp = frame.stamp
            yield frame


def read_frames(path, n_legs=None):
    return list(iter_frames(path, n_legs))


def trajectory_line(state: BodyState):
    """The CSV row of a state, with its newline."""
    return ",".join(map(repr, [float(state.stamp), *state.position.tolist(),
                               *state.rpy.tolist(), *state.velocity.tolist()])) + "\n"


def write_trajectory(path, states):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAJ_HEADER)
        fh.writelines(map(trajectory_line, states))


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


__all__ = ["LogParseError", "TRAJ_COLUMNS", "TRAJ_HEADER", "encode_json", "frame_to_dict",
           "frame_from_dict", "write_frames", "iter_frames", "read_frames",
           "write_trajectory", "read_trajectory", "trajectory_line"]
