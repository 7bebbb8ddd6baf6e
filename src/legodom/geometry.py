"""Leg geometry, sensor sample containers, and small rotation helpers."""

from dataclasses import dataclass, field

import numpy as np

from . import kernels


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
        if self.thigh_len <= 0 or self.calf_len <= 0:
            raise ValueError("thigh_len and calf_len must be positive")
        if self.wheel_radius < 0:
            raise ValueError("wheel_radius must be >= 0")
        if self.side_sign not in (1, -1):
            raise ValueError("side_sign must be +1 or -1")
        object.__setattr__(self, "hip_mount", np.asarray(self.hip_mount, dtype=float))

    @property
    def l2(self):
        """Shank length as seen by the inverse-kinematics model."""
        return self.calf_len + self.wheel_radius

    def kernel_args(self):
        return (self.hip_offset_len, self.thigh_len, self.calf_len,
                self.wheel_radius, float(self.side_sign))


@dataclass
class JointReading:
    """One leg's motor sample: angles, rates, torques (each length 3)."""

    q: np.ndarray
    dq: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.dq = np.asarray(self.dq, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)


@dataclass
class WheelReading:
    """Wheel encoder angle (rad, interpreted modulo 2*pi) and rate (rad/s)."""

    psi: float
    dpsi: float


TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Wrap a scalar angle to (-pi, pi]."""
    w = float(a) % TWO_PI
    if w > np.pi:
        w -= TWO_PI
    return w


def cross3(a, b):
    """Cross product of two 3-vectors.

    The same products and differences as np.cross, so the result is
    bit-equal, without its per-call overhead on length-3 inputs.
    """
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_matrix(roll, pitch, yaw):
    """World-from-body rotation, Rz(yaw) Ry(pitch) Rx(roll)."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rpy_to_quat(roll, pitch, yaw):
    """Roll/pitch/yaw to quaternion [w, x, y, z]."""
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    return np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])


def quat_to_rpy(q):
    """Quaternion [w, x, y, z] to roll/pitch/yaw (ZYX convention)."""
    w, x, y, z = q
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    sp = 2.0 * (w * y - z * x)
    sp = min(1.0, max(-1.0, sp))
    pitch = np.arcsin(sp)
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


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
    "LegGeometry", "JointReading", "WheelReading", "wrap_angle", "cross3",
    "rot_x", "rot_y", "rot_z", "rpy_matrix", "rpy_to_quat", "quat_to_rpy",
    "default_leg_geometries", "kernels",
]
