"""Frozen copy of the log-line parser that `legodom.logio` replaced.

`frame_from_dict` below converts a frame dict field by field: the joints
with one nested `np.array`, then the wheel readings, `t`, `att` and `gyro`,
each check naming its field. The library now converts a well-formed line
with one call and keeps this order only for the lines that fail a check.
It is kept verbatim so the library's accept/reject set and messages are
checked against it. Do not edit it to follow the library.
"""

import math

import numpy as np

from legodom.estimator import SensorFrame
from legodom.geometry import JointReading, WheelReading


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
    wheels = [None] * len(legs)
    for i, leg in enumerate(legs):
        if "wheel" in leg:
            psi, dpsi = float(leg["wheel"]["psi"]), float(leg["wheel"]["dpsi"])
            # a non-finite wheel reading would turn every later state non-finite
            if not (math.isfinite(psi) and math.isfinite(dpsi)):
                raise ValueError("legs[%d].wheel.%s must be finite, got %r" % (
                    (i, "psi", psi) if not math.isfinite(psi) else (i, "dpsi", dpsi)))
            wheels[i] = WheelReading(psi, dpsi)
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
    return SensorFrame(t, att, gyro, joints, wheels if any(wheels) else None)
