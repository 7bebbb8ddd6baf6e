"""Wheel-contact handling: effective rolling angle, planar anchor propagation,
and the rolling velocity term for wheel-legged stance."""

import numpy as np

from .geometry import wrap_angle


def effective_roll_increment(psi_k, psi_km1, pitch_k, pitch_km1,
                             q2_k, q3_k, q2_km1, q3_km1):
    """Wheel encoder increment minus the shank-pitch-induced apparent rotation.

    The shank pitch beta = body_pitch + q2 + q3 rotates the wheel joint axis
    in the world; a pinned wheel then shows encoder motion that is not
    rolling. The encoder difference is wrapped; the pitch difference is not
    (it is a small physical increment between consecutive samples).
    """
    dpsi = wrap_angle(psi_k - psi_km1)
    dbeta = (pitch_k + q2_k + q3_k) - (pitch_km1 + q2_km1 + q3_km1)
    return dpsi - dbeta


def heading_direction(body_rot, eps=1e-9):
    """Unit horizontal projection of the body forward axis, or None.

    None signals a degenerate projection (trunk pitched near vertical); the
    caller skips propagation for that cycle rather than reusing a stale
    heading.
    """
    hx = body_rot[0, 0]
    hy = body_rot[1, 0]
    nrm = np.sqrt(hx * hx + hy * hy)
    if nrm <= eps:
        return None
    return np.array([hx / nrm, hy / nrm, 0.0])


def propagate_contact(anchor, dpsi_eff, wheel_radius, heading):
    """Advance a wheel anchor along the ground by the rolled arc length.

    The heading has no vertical component, so the anchor height is preserved
    exactly. With heading None or wheel_radius 0 the anchor is returned
    unchanged.
    """
    anchor = np.asarray(anchor, dtype=float)
    if heading is None or wheel_radius == 0.0:
        return anchor
    return anchor + wheel_radius * dpsi_eff * heading


def rolling_velocity(dpsi, dq2, dq3, wheel_radius, heading):
    """Planar velocity of the wheel contact point from the effective roll rate.

    Uses only the joint-induced shank pitch rate (dq2 + dq3); the body pitch
    rate is deliberately excluded.
    """
    if heading is None or wheel_radius == 0.0:
        return np.zeros(3)
    return wheel_radius * (dpsi - dq2 - dq3) * heading


__all__ = ["effective_roll_increment", "heading_direction",
           "propagate_contact", "rolling_velocity"]
