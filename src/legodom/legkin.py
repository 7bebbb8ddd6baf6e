"""Closed-form leg kinematics: FK, Jacobian, torque-to-force mapping, and the
rounded-foot rolling bias model."""

import numpy as np

from . import kernels
from .geometry import LegGeometry


class SingularConfiguration(Exception):
    """Jacobian too close to singular for the force solve."""


def _one_leg(a):
    """A batch of one leg from a length-3 joint vector."""
    return np.asarray(a, dtype=float).reshape(1, 3)


def _kinematics(q, dq, geom):
    """leg_kinematics of one leg: (r, J, v) of the batch of one."""
    coef = kernels.leg_coefficients(*geom.kernel_args())
    return kernels.leg_kinematics(_one_leg(q), _one_leg(dq), coef)


def fk_position(q, geom: LegGeometry):
    """Hip-to-end-effector position in the body frame."""
    return _kinematics(q, np.zeros(3), geom)[0][0]


def fk_velocity(q, dq, geom: LegGeometry):
    """Hip-to-end-effector velocity; equals jacobian(q) @ dq."""
    return _kinematics(q, dq, geom)[2][0]


def jacobian(q, geom: LegGeometry):
    """Geometric Jacobian mapping joint rates to body-frame foot velocity."""
    return _kinematics(q, np.zeros(3), geom)[1][0]


def foot_force_body(q, tau, geom: LegGeometry, sigma_min=1e-6):
    """Quasi-static end-effector force from joint torques, (J J^T)^-1 J tau.

    Raises SingularConfiguration when the smallest singular value of the
    Jacobian is below sigma_min, q or tau is not finite, or J J^T is singular
    to working precision; callers skip contact gating for the leg that cycle.
    """
    _, _, (f,), (ok,) = kernels.leg_rows(
        _one_leg(q).tolist(), [(0.0, 0.0, 0.0)], _one_leg(tau).tolist(),
        [kernels.leg_coefficients(*geom.kernel_args())], sigma_min)
    if not ok:
        raise SingularConfiguration(
            "leg Jacobian smallest singular value below %g, or a non-finite "
            "angle or torque" % sigma_min)
    return np.array(f)


def rolling_bias(radius, a1, a2):
    """Sagittal anchor bias of a rounded foot that rolls instead of pivoting.

    a1/a2 are the shank pitch angles at touchdown and lift-off. Returns
    (dx, dz): the displacement error committed by modelling the rounded foot
    as a rigid shank extension with a fixed contact point. Linear in radius.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dx = radius * (np.cos(a1) - np.cos(a2) - (a2 - a1))
    dz = radius * (-np.sin(a1) + np.sin(a2))
    return dx, dz


__all__ = ["fk_position", "fk_velocity", "jacobian", "foot_force_body",
           "rolling_bias", "SingularConfiguration"]
