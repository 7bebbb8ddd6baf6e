"""Sensor-log (JSON lines) and trajectory (CSV) IO.

One frame per log line:
  {"t": s, "att": [w,x,y,z], "gyro": [gx,gy,gz],
   "legs": [{"q": [3], "dq": [3], "tau": [3], "wheel": {"psi": r, "dpsi": r}?}, ...]}
A parsed frame holds every leg's q, dq and tau in one (3, L, 3) array,
`SensorFrame.joints`. A well-formed line is one float array [t, *att, *gyro,
*joints], with att, gyro and joints views into it; any other is parsed
field by field, to name its first bad field.

A line is parsed in two steps (`_parse_line`): orjson parses it, and a line
orjson refuses is parsed again by `json.loads`, whose value or exception is
the result. orjson refuses what `json.loads` alone reads: `NaN`, `Infinity`
and `-Infinity` (the spelling of a non-finite value), a number beyond a
double, a lone surrogate. It reads any nesting depth, where `json.loads`
stops at the interpreter's recursion limit, so a line that may nest deeper
than _DEEP levels goes to `json.loads` directly. Where both read a line they
give bit-equal floats; orjson gives an integer beyond 64 bits as a float,
which `frame_from_dict` converts to the same float.

`encode_json` (`json.dumps` less its circular check) keeps full double
precision, so write-then-read is the identity and repeated runs are
byte-identical.

Every writer spells its floats in two steps: orjson spells them (Ryu, the
shortest string that reads back to the same double), and `_repr_floats`
turns orjson's text into `float.__repr__`'s, which is what `repr` and
json's encoder write. The two differ only in two forms: the exponent
(orjson `1e-6` and `1e16`, repr `1e-06` and `1e+16`) and a magnitude in
[1e-5, 1e-4) (orjson `0.000015`, repr `1.5e-05`). orjson spells a
non-finite float `null`, and refuses a value that is not one of Python's
own JSON types (an `np.float64`, an integer beyond 64 bits, a key that is
not a string); the CSV and diagnostics writers send a block holding either
through the reference spelling. Where orjson switches between its forms is
not documented, so on first use the writers spell a few values at those
edges (`_speller_exact`); if any differs from `repr`, every block goes
through the reference spelling. orjson is imported by the functions that
use it, so importing this module leaves it unloaded.

`trajectory_line` is the reference spelling of a CSV row, and
`trajectory_lines` writes a block of rows with one `orjson.dumps`: it
falls back for a row that holds anything but finite floats and ints.
`encode_json(record) + "\\n"` is the reference spelling of a diagnostics
line, and `diagnostics_lines` writes a block of records with one
`orjson.dumps` a record, then the fix-up, then json's `", "` and `": "`
spacing. It falls back for a block with a non-finite float (its `null`
count exceeds the None count of its records), a value orjson refuses, or
a string holding a `,`, `:`, digit, `"`, `\\` or non-ASCII character:
there the spacing, the fix-up or the escaping would differ.

`frame_to_dict` is the reference spelling of a log line:
`encode_json(frame_to_dict(frame))`. `write_frames` writes those bytes on
columns. It stacks a block of frames into one (B, K) float array in line
order, spells each distinct value of the block once (orjson and the
fix-up; `NaN`, `Infinity` and `-Infinity`, json's spelling, for the
others), and fills one %-template per leg count and wheel layout, itself
derived from the reference spelling. A block it cannot spell exactly
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


# orjson's two float forms that float.__repr__ spells otherwise. An
# exponent: orjson writes e16 and e-6 where repr writes e+16 and e-06. A
# magnitude in [1e-5, 1e-4): orjson writes 0.000015 where repr writes
# 1.5e-05. Its match starts at the point, which is found faster than the 0
# before it; that 0 must not follow a digit (10.00001 is not one)
_POSITIVE_EXPONENT = re.compile(r"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d(?!\d))")
_TINY = re.compile(r"\.0000(?<=0\.0000)(?<!\d0\.0000)(\d)(\d*)")


def _repr_floats(text):
    """orjson's text with each finite float spelled as `float.__repr__`
    spells it. Every digit of text must belong to a number, so a string in
    it must hold none (see the module docstring)."""
    if "e" in text:
        text = _ONE_DIGIT_EXPONENT.sub("e-0", _POSITIVE_EXPONENT.sub("e+", text))
    pieces = _TINY.split(text)
    if len(pieces) == 1:
        return text
    # text, first digit, other digits, text, ...: each text but the last
    # ends in the 0 of the 0.0000 after it
    texts = pieces[::3]
    tiny = [d + "." + rest + "e-05" if rest else d + "e-05"
            for d, rest in zip(pieces[1::3], pieces[2::3])]
    return "".join([t[:-1] + number for t, number in zip(texts, tiny)]) + texts[-1]


# values at the edges of orjson's forms, on both sides: where it switches
# from fixed to exponent notation (1e16, 1e-5) and where its 0.0000d form
# starts (1e-4). orjson does not document these edges; a release that moves
# one makes _repr_floats spell some probe otherwise than repr
_PROBES = [sign * v for v in (1e15, 9999999999999998.0, 1e16, 1.0000000000000002e16, 1e17,
                              0.00010000000000000002, 1e-4, 9.999999999999999e-05, 9.99e-05,
                              1.5e-05, 1.0000000000000003e-05, 1e-5, 9.999999999999999e-06,
                              1e-6, 1e-7, 5e-324)
           for sign in (1.0, -1.0)]


@lru_cache(maxsize=1)
def _speller_exact():
    """Whether `_repr_floats` of orjson's text spells every probe as `repr`
    does; when not, every writer spells through its reference."""
    import orjson

    return _repr_floats(orjson.dumps(_PROBES).decode()) == "[%s]" % ",".join(map(repr, _PROBES))


# frames per block of the column writer; bounds its (B, K) arrays and strings
_BLOCK = 256
# json's spellings of the infinities, which orjson spells null like NaN
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}
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
    import orjson

    kinds = {(type(fr.stamp), fr.att.dtype, fr.gyro.dtype, fr.joints.dtype,
              fr.att.shape, fr.gyro.shape, fr.joints.shape,
              None if fr.wheels is None else tuple(map(type, fr.wheels))) for fr in frames}
    if len(kinds) != 1 or not _speller_exact():
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
    floats = values.tolist()
    words = _repr_floats(orjson.dumps(floats).decode())[1:-1].split(",")
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        words[k] = _NON_FINITE.get(floats[k], "NaN")
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


# orjson reads any nesting depth, where json.loads raises RecursionError past
# the recursion limit. A line orjson reads nests at most half its length
# deep, and at most as deep as its count of opening brackets; a line that
# may nest deeper than _DEEP, half of Python's default limit, goes to
# json.loads directly
_DEEP = 500


def _parse_line(line, orjson):
    """The JSON value of a log line, or the exception `json.loads` raises
    for it; `orjson` is the module, imported by the caller (see the module
    docstring)."""
    if len(line) <= 2 * _DEEP or line.count("[") + line.count("{") <= _DEEP:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    return json.loads(line)


def iter_frames(path, n_legs=None):
    """The frames of a log, parsed one line at a time as they are taken; a
    frame with other than n_legs legs, if given, is an error."""
    import orjson  # here, not at the top: importing logio leaves orjson unloaded

    stamp = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                frame = frame_from_dict(_parse_line(line, orjson))
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


def _row(state: BodyState):
    return [float(state.stamp), *state.position.tolist(), *state.rpy.tolist(),
            *state.velocity.tolist()]


def trajectory_line(state: BodyState):
    """The CSV row of a state, with its newline: the reference spelling of
    `trajectory_lines`."""
    return ",".join(map(repr, _row(state))) + "\n"


# what a CSV block of finite numbers holds, in orjson's spelling
_CSV_BYTES = b"0123456789.,-e\n"


def trajectory_lines(states):
    """The CSV rows of states, as one string: the bytes of
    `"".join(map(trajectory_line, states))`, spelled with one `orjson.dumps`
    of the rows (see the module docstring)."""
    import orjson

    rows = list(map(_row, states))
    if not rows:
        return ""
    if not _speller_exact():
        return "".join(map(trajectory_line, states))
    try:
        text = b"\n".join(orjson.dumps(rows)[2:-2].split(b"],["))
    except orjson.JSONEncodeError:
        text = None
    # anything but numbers (null for a non-finite float, a nested list, a
    # bool) leaves a byte outside _CSV_BYTES
    if text is None or text.translate(None, _CSV_BYTES):
        return "".join(map(trajectory_line, states))
    return _repr_floats(text.decode()) + "\n"


def write_trajectory(path, states):
    """Write states as a trajectory CSV: the header, then the rows,
    _BLOCK states at a time through `trajectory_lines`."""
    states = iter(states)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAJ_HEADER)
        while block := list(islice(states, _BLOCK)):
            fh.write(trajectory_lines(block))


# the text of records whose every string holds no `,`, `:` (json spaces
# them), digit (_repr_floats reads them), `"` or `\` (escaped): a string
# starts at every other `"`
_PLAIN_STRINGS = re.compile(r'(?:[^"]*"[^"\\,:0-9]*")*[^"]*')


def _nones(record):
    """The Nones of a record's top-level values and of its top-level lists:
    at most the record's `null`s in orjson's text, and all of them in a
    diagnostics record."""
    count = 0
    for value in record.values() if type(record) is dict else ():
        if value is None:
            count += 1
        elif type(value) is list:
            count += value.count(None)
    return count


def diagnostics_lines(records):
    """The diagnostics lines of records, as one string: the bytes of
    `"".join(encode_json(rec) + "\\n" for rec in records)`, spelled with one
    `orjson.dumps` a record (see the module docstring)."""
    import orjson

    if not records:
        return ""
    try:
        text = b"\n".join(map(orjson.dumps, records)).decode() if _speller_exact() else None
    except orjson.JSONEncodeError:
        text = None
    if text is not None and text.isascii() and _PLAIN_STRINGS.fullmatch(text):
        # orjson spells a non-finite float null, as it spells None
        nulls = text.count("null")
        if not nulls or nulls == sum(map(_nones, records)):
            return _repr_floats(text).replace(",", ", ").replace(":", ": ") + "\n"
    return "".join([encode_json(rec) + "\n" for rec in records])


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
           "write_trajectory", "read_trajectory", "trajectory_line", "trajectory_lines",
           "diagnostics_lines"]
