"""Wheel-contact handling: effective rolling angle, planar anchor propagation,
the rolling velocity term for wheel-legged stance, and the rounded-foot
rolling bias model.

The operators work on Python floats: vectors are any length-3 sequences and
come back as tuples, rotations are three rows (a tuple of row tuples, or a
3x3 array).
"""

import math

import numpy as np

from .geometry import wrap_angle

# a horizontal heading projection this short or shorter (trunk pitched near
# vertical) gives no heading
HEADING_EPS = 1e-9


def effective_roll_increment(psi_k, psi_km1, pitch_k, pitch_km1,
                             q2_k, q3_k, q2_km1, q3_km1):
    """Wheel encoder increment minus the shank-pitch-induced apparent rotation.

    The shank pitch beta = body_pitch + q2 + q3 rotates the wheel joint axis
    in the world; a pinned wheel then shows encoder motion that is not
    rolling. The encoder difference is wrapped; the pitch difference is not
    (it is a small physical increment between consecutive samples). The
    readings are angles modulo 2 pi, so where their difference overflows, the
    difference of the wrapped readings gives the same increment.
    """
    dpsi = psi_k - psi_km1
    if not math.isfinite(dpsi):
        dpsi = wrap_angle(psi_k) - wrap_angle(psi_km1)
    dpsi = wrap_angle(dpsi)
    dbeta = (pitch_k + q2_k + q3_k) - (pitch_km1 + q2_km1 + q3_km1)
    return dpsi - dbeta


def heading_direction(body_rot):
    """Unit horizontal projection of the body forward axis, or None.

    None signals a degenerate projection, no longer than HEADING_EPS; the
    caller skips propagation for that cycle rather than reusing a stale
    heading.
    """
    hx = body_rot[0][0]
    hy = body_rot[1][0]
    nrm = math.sqrt(hx * hx + hy * hy)
    if nrm <= HEADING_EPS:
        return None
    return (hx / nrm, hy / nrm, 0.0)


def propagate_contact(anchor, dpsi_eff, wheel_radius, heading):
    """Advance a wheel anchor along the ground by the rolled arc length.

    The heading has no vertical component, so the anchor height is preserved
    exactly. With heading None or wheel_radius 0 the anchor is returned
    unchanged.
    """
    if heading is None or wheel_radius == 0.0:
        return tuple(anchor)
    s = wheel_radius * dpsi_eff
    return (anchor[0] + s * heading[0], anchor[1] + s * heading[1],
            anchor[2] + s * heading[2])


def rolling_velocity(dpsi, dq2, dq3, wheel_radius, heading):
    """Planar velocity of the wheel contact point from the effective roll rate.

    Uses only the joint-induced shank pitch rate (dq2 + dq3); the body pitch
    rate is deliberately excluded. Where the rolling speed overflows, the
    leg gets no rolling term for that frame, as with no heading.
    """
    if heading is None or wheel_radius == 0.0:
        return (0.0, 0.0, 0.0)
    s = wheel_radius * (dpsi - dq2 - dq3)
    if not math.isfinite(s):
        return (0.0, 0.0, 0.0)
    return (s * heading[0], s * heading[1], s * heading[2])


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


__all__ = ["effective_roll_increment", "heading_direction",
           "propagate_contact", "rolling_velocity", "rolling_bias"]
