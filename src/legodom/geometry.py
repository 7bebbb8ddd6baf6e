"""Leg geometry, sensor sample containers, and small rotation helpers.

The 3-vector helpers (`cross3`, `mat_vec`, `mean3`, `blend3`, `rpy_rows`)
work on Python floats: they take any length-3 sequences (tuples, lists,
numpy rows) and return tuples. A step handles a few legs a frame, and at
that size a numpy call costs more than the arithmetic it runs.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class LegGeometry:
    """Link parameters of one 3-DoF leg.

    calf_len is the effective shank length: for point feet the foot radius is
    absorbed into it and wheel_radius stays 0; for wheel legs calf_len runs to
    the axle and wheel_radius is the wheel radius. side_sign is +1 for left
    legs, -1 for right. hip_mount is the hip position in the body frame.
    """

    hip_offset_len: float
    thigh_len: float
    calf_len: float
    wheel_radius: float = 0.0
    side_sign: int = 1
    hip_mount: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not (0.0 < self.thigh_len < math.inf and 0.0 < self.calf_len < math.inf):
            raise ValueError("thigh_len and calf_len must be positive and finite")
        if not 0.0 <= self.wheel_radius < math.inf:
            raise ValueError("wheel_radius must be >= 0 and finite")
        if not math.isfinite(self.hip_offset_len):
            raise ValueError("hip_offset_len must be finite")
        if self.side_sign not in (1, -1):
            raise ValueError("side_sign must be +1 or -1")
        mount = np.asarray(self.hip_mount, dtype=float)
        if mount.shape != (3,) or not np.isfinite(mount).all():
            raise ValueError("hip_mount must be 3 finite numbers, got %r"
                             % (mount.tolist(),))
        object.__setattr__(self, "hip_mount", mount)

    @property
    def l2(self):
        """Shank length as seen by the inverse-kinematics model."""
        return self.calf_len + self.wheel_radius

    def kernel_args(self):
        return (self.hip_offset_len, self.thigh_len, self.calf_len,
                self.wheel_radius, float(self.side_sign))


class JointReading(NamedTuple):
    """One leg's motor sample: angles, rates, torques (each length 3). Its
    field names are the channels of a log's leg records and of
    `SensorFrame.joints`; `SensorFrame.legs` hands the samples out as views
    into the frame's `joints`."""

    q: np.ndarray
    dq: np.ndarray
    tau: np.ndarray


@dataclass
class WheelReading:
    """Wheel encoder angle (rad, interpreted modulo 2*pi) and rate (rad/s)."""

    psi: float
    dpsi: float


TWO_PI = 2.0 * np.pi
_PI, _NDARRAY = np.pi, np.ndarray  # one global lookup each in wrap_angle


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]: a scalar or 0-d array to a float, an array
    elementwise, bit-equal (np.remainder rounds as Python's float % does)."""
    if type(a) is _NDARRAY and a.ndim:
        w = a % TWO_PI
        return w - TWO_PI * (w > _PI)
    w = float(a) % TWO_PI
    return w - TWO_PI if w > _PI else w


def cross3(a, b):
    """Cross product of two 3-vectors, as a tuple.

    The same products and differences as np.cross, so the result is
    bit-equal, without its per-call overhead on length-3 inputs.
    """
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def mat_vec(rows, v):
    """rows @ v for a 3x3 matrix given by its rows, as a tuple; each entry
    is summed from left to right."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def mean3(vectors):
    """Componentwise mean of a non-empty list of 3-vectors, as a tuple.

    Sums from the first vector on, in list order, then divides by the count,
    as np.mean(vectors, axis=0) does.
    """
    sx, sy, sz = vectors[0]
    for x, y, z in vectors[1:]:
        sx += x
        sy += y
        sz += z
    n = len(vectors)
    return (sx / n, sy / n, sz / n)


def blend3(a, b, gain):
    """(1 - gain) * a + gain * b for two 3-vectors, as a tuple."""
    k = 1.0 - gain
    return (k * a[0] + gain * b[0], k * a[1] + gain * b[1], k * a[2] + gain * b[2])


def rpy_rows(roll, pitch, yaw, cos=math.cos, sin=math.sin):
    """World-from-body rotation Rz(yaw) Ry(pitch) Rx(roll) in closed form,
    as a tuple of three row tuples: of floats with math's cos and sin, or of
    equal-shape columns with numpy's, which round alike. The last row does
    not depend on yaw."""
    cr, sr = cos(roll), sin(roll)
    cp, sp = cos(pitch), sin(pitch)
    cy, sy = cos(yaw), sin(yaw)
    return ((cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr),
            (sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr),
            (-sp, cp * sr, cp * cr))


def rpy_to_quat(roll, pitch, yaw):
    """Roll/pitch/yaw to quaternion [w, x, y, z]: (4,) of floats, (4, ...) of columns."""
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    return np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])


def _clip_unit(s):  # a float bounded to [-1, 1]
    return min(1.0, max(-1.0, s))


def _rpy_entries(w, x, y, z, clip):
    """Roll, pitch, yaw (ZYX) of a unit quaternion: numpy floats, with clip
    _clip_unit, or equal-shape columns with np.clip. numpy's arctan2 and
    arcsin round alike on floats and columns; math's differ in some values."""
    return (np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y)),
            np.arcsin(clip(2.0 * (w * y - z * x))),
            np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z)))


def _quat_rpy(w, x, y, z):
    """quat_to_rpy of the quaternion [w, x, y, z] given as four floats, as a
    tuple of three floats: the attitude intake of `Estimator.step`."""
    if abs(w * w + x * x + y * y + z * z - 1.0) > 1e-12:
        n = math.hypot(w, x, y, z)
        if n == 0.0:
            raise ValueError("attitude quaternion %r has zero norm" % ([w, x, y, z],))
        w, x, y, z = w / n, x / n, y / n, z / n
    roll, pitch, yaw = _rpy_entries(w, x, y, z, _clip_unit)
    return float(roll), float(pitch), float(yaw)


def quat_to_rpy(q):
    """Quaternion [w, x, y, z] to roll/pitch/yaw (ZYX convention).

    A quaternion whose squared norm is off 1 by more than 1e-12 is divided by
    its norm first; a zero quaternion, which has no attitude, raises
    ValueError.
    """
    w, x, y, z = map(float, q)
    return np.array(_quat_rpy(w, x, y, z))


def quat_to_rpy_columns(att):
    """quat_to_rpy of each row of an (F, 4) array, bit-equal, as (3, F) columns.
    A row not finite or not of unit norm takes quat_to_rpy (ValueError if zero)."""
    w, x, y, z = att.T
    unit = abs(w * w + x * x + y * y + z * z - 1.0) <= 1e-12
    rpy = np.empty((3, len(att)))
    rpy[:, unit] = _rpy_entries(*att[unit].T, lambda s: np.clip(s, -1.0, 1.0))
    for k in np.flatnonzero(~unit):
        rpy[:, k] = quat_to_rpy(att[k])
    return rpy


def default_leg_geometries(hip_offset=0.0955, thigh=0.213, calf=0.213,
                           wheel_radius=0.0, mount_x=0.1934, mount_y=0.0465):
    """Four-leg layout FL, FR, RL, RR with left legs side_sign=+1."""
    mounts = [
        (mount_x, mount_y, 0.0),
        (mount_x, -mount_y, 0.0),
        (-mount_x, mount_y, 0.0),
        (-mount_x, -mount_y, 0.0),
    ]
    sides = [1, -1, 1, -1]
    return [
        LegGeometry(hip_offset, thigh, calf, wheel_radius, s, np.array(m))
        for s, m in zip(sides, mounts)
    ]


__all__ = [
    "LegGeometry", "JointReading", "WheelReading", "wrap_angle", "cross3", "mat_vec",
    "mean3", "blend3", "rpy_rows", "rpy_to_quat",
    "quat_to_rpy", "quat_to_rpy_columns", "default_leg_geometries",
]
