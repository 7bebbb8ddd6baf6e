"""Sensor-log (JSON lines), trajectory (CSV), diagnostics, and plan file IO.

One frame per log line:
  {"t": s, "att": [w,x,y,z], "gyro": [gx,gy,gz],
   "legs": [{"q": [3], "dq": [3], "tau": [3], "wheel": {"psi": r, "dpsi": r}?}, ...]}
Numbers are serialized with full double precision so write-then-read is the
identity and repeated runs are byte-identical.
"""

import json

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
    for i, l in enumerate(frame.legs):
        d = {"q": list(l.q), "dq": list(l.dq), "tau": list(l.tau)}
        if frame.wheels is not None and frame.wheels[i] is not None:
            d["wheel"] = {"psi": frame.wheels[i].psi, "dpsi": frame.wheels[i].dpsi}
        legs.append(d)
    return {"t": frame.stamp, "att": list(frame.att), "gyro": list(frame.gyro),
            "legs": legs}


def _vector(value, size, name, leg=None):
    """value as a float array of shape (size,); a ValueError naming the field
    (and the leg, if given) otherwise."""
    a = np.array(value, dtype=float)
    if a.shape != (size,):
        field = name if leg is None else "legs[%d].%s" % (leg, name)
        raise ValueError("%s must hold %d numbers, got shape %s" % (field, size, a.shape))
    return a


def frame_from_dict(d):
    legs = []
    wheels = []
    has_wheel = False
    for i, leg in enumerate(d["legs"]):
        legs.append(JointReading(_vector(leg["q"], 3, "q", i),
                                 _vector(leg["dq"], 3, "dq", i),
                                 _vector(leg["tau"], 3, "tau", i)))
        if "wheel" in leg:
            wheels.append(WheelReading(float(leg["wheel"]["psi"]),
                                       float(leg["wheel"]["dpsi"])))
            has_wheel = True
        else:
            wheels.append(None)
    return SensorFrame(float(d["t"]), _vector(d["att"], 4, "att"),
                       _vector(d["gyro"], 3, "gyro"), legs,
                       wheels if has_wheel else None)


def write_frames(path, frames):
    with open(path, "w", encoding="utf-8") as fh:
        for fr in frames:
            fh.write(json.dumps(frame_to_dict(fr)) + "\n")


def read_frames(path):
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                frames.append(frame_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise LogParseError(lineno, str(exc))
    return frames


def state_to_row(state: BodyState):
    return (state.stamp, *state.position, *state.rpy, *state.velocity)


def write_trajectory(path, states):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRAJ_COLUMNS) + "\n")
        for st in states:
            fh.write(",".join(repr(float(v)) for v in state_to_row(st)) + "\n")


def read_trajectory(path):
    """Trajectory rows as an (n, 10) float array."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() and header.strip() != ",".join(TRAJ_COLUMNS):
            raise ValueError("unexpected trajectory header: %s" % header.strip())
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows, dtype=float).reshape(-1, len(TRAJ_COLUMNS))


def write_diagnostics(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


__all__ = ["LogParseError", "TRAJ_COLUMNS", "frame_to_dict", "frame_from_dict",
           "write_frames", "read_frames", "write_trajectory", "read_trajectory",
           "write_diagnostics", "state_to_row"]
