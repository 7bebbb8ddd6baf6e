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

`frame_to_dict` is the reference spelling of a log line:
`encode_json(frame_to_dict(frame))`. `write_frames` writes those bytes on
columns. It stacks a block of frames into one (B, K) float array in line
order, spells each distinct value of the block once with `float.__repr__`
(what json's C encoder calls for a float; `NaN`, `Infinity` and `-Infinity`
for the others), and fills one %-template per leg count and wheel layout,
itself derived from the reference spelling. A block it cannot spell exactly
(mixed layouts, an `int` stamp, a wheel value that is not a `float`) goes
through the reference, frame by frame.
"""

import json
import math
import re
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .estimator import _F64, BodyState, SensorFrame, frame_columns
from .geometry import JointReading, WheelReading

TRAJ_COLUMNS = ("t", "x", "y", "z", "roll", "pitch", "yaw", "vx", "vy", "vz")
TRAJ_HEADER = ",".join(TRAJ_COLUMNS) + "\n"
encode_json = json.JSONEncoder(check_circular=False).encode
_LISTS = {list, tuple}
_NONE = type(None)


class LogParseError(Exception):
    """Malformed sensor log; .line carries the 1-based offending line number."""

    def __init__(self, line, msg):
        super().__init__("line %d: %s" % (line, msg))
        self.line = line


def frame_to_dict(frame: SensorFrame):
    """The frame as the dict of its log line; `encode_json` of it is the
    reference spelling of that line, which `write_frames` reproduces."""
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


# frames per block of the column writer; bounds its (B, K) arrays and strings
_BLOCK = 256
# the spellings of json's encoder for the values float.__repr__ spells otherwise
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NUMBER = re.compile(r"\d+\.\d+")


@lru_cache(maxsize=64)
def _line_layout(wheeled):
    """(template, column order) of the log line of a frame whose legs carry
    a wheel where `wheeled`, a tuple of one bool per leg, is true.

    The template is the reference line of a frame whose every value is its
    own column index (t, att, gyro, joints in (3, L, 3) order, then psi and
    dpsi of each wheeled leg) with each number replaced by %s; the column
    order lists those indices as the line spells them."""
    n_legs = len(wheeled)
    cols = iter(range(8 + 9 * n_legs, 8 + 11 * n_legs))
    wheels = [WheelReading(float(next(cols)), float(next(cols))) if w else None
              for w in wheeled]
    probe = SensorFrame(0.0, [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0],
                        np.arange(8.0, 8 + 9 * n_legs).reshape(3, n_legs, 3), wheels)
    line = encode_json(frame_to_dict(probe))
    order = np.array([int(float(v)) for v in _NUMBER.findall(line)])
    order.flags.writeable = False  # shared by every caller of the cached layout
    return _NUMBER.sub("%s", line.replace("%", "%%")) + "\n", order


def _distinct(table):
    """The sorted distinct values of a (B, K) int64 table and, for each value
    in row order, its position among them: what `np.unique(table.ravel(),
    return_inverse=True)` returns, without its argsort. The positions are
    searched column by column, where a value is often near the one of the
    frame before, so the searches are cheap to predict."""
    values = np.sort(table, axis=None)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    codes = values[keep]
    return codes, np.searchsorted(codes, table.T).T.ravel()


def _spell_block(frames):
    """The log lines of frames, as one string; None when the block is not
    one that the column writer spells exactly: mixed legs or wheel layouts,
    a stamp or wheel value that is not a float, or an array that is not
    float64."""
    kinds = {(type(fr.stamp), fr.att.dtype, fr.gyro.dtype, fr.joints.dtype,
              fr.att.shape, fr.gyro.shape, fr.joints.shape,
              None if fr.wheels is None else tuple(map(type, fr.wheels))) for fr in frames}
    if len(kinds) != 1:
        return None
    stamp, *dtypes, att_shape, gyro_shape, joints_shape, wheel_types = kinds.pop()
    n_legs = joints_shape[1]
    wheeled = (False,) * n_legs if wheel_types is None else tuple(
        kind is not _NONE for kind in wheel_types)
    if (stamp is not float or set(dtypes) != {_F64} or (att_shape, gyro_shape) != ((4,), (3,))
            or len(wheeled) != n_legs):
        return None
    template, order = _line_layout(wheeled)
    stamps, att, gyro, joints = frame_columns(frames)
    columns = [stamps[:, None], att, gyro, joints.reshape(len(frames), -1)]
    if any(wheeled):
        readings = [v for fr in frames for w in fr.wheels if w is not None
                    for v in (w.psi, w.dpsi)]
        if set(map(type, readings)) != {float}:
            return None
        columns.append(np.array(readings).reshape(len(frames), -1))
    table = np.concatenate(columns, axis=1)[:, order]
    # each distinct value spelled once; the int64 view keeps -0.0 apart from 0.0
    codes, index = _distinct(table.view(np.int64))
    values = codes.view(np.float64)
    words = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        words[k] = _NON_FINITE[words[k]]
    return (template * len(frames)) % tuple(np.array(words, dtype=object)[index].tolist())


def write_frames(path, frames):
    """Write frames as a log, one line per frame: the bytes of
    `encode_json(frame_to_dict(frame)) + "\\n"`, written _BLOCK frames at a
    time on columns (see the module docstring)."""
    frames = iter(frames)
    with open(path, "w", encoding="utf-8") as fh:
        while block := list(islice(frames, _BLOCK)):
            text = _spell_block(block)
            if text is None:
                text = "".join([encode_json(frame_to_dict(fr)) + "\n" for fr in block])
            fh.write(text)


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
