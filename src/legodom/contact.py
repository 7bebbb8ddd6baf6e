"""Stance gating, touchdown detection, footfall anchors, and the
contact-anchored body observations."""

from dataclasses import dataclass, field

import numpy as np

from .geometry import cross3


class EmptyContactSet(Exception):
    """No stance legs available; caller must fall back to prediction only."""


@dataclass
class FootfallRecord:
    """World-frame contact anchor for one leg.

    The anchor is written only at touchdown (point feet) or rolled forward by
    the wheel propagation; lift-off just clears in_contact and leaves the
    stale anchor in place until the next touchdown resets it.
    """

    leg_id: int
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(3))
    in_contact: bool = False
    touchdown_time: float = 0.0


def gate_contact(f_world_z, f_th):
    """True when the vertical world-frame foot force marks the leg as loaded.

    Supporting contacts push with a negative vertical component, so the gate
    is f_world_z <= f_th with a negative threshold; boundary inclusive.
    """
    return f_world_z <= f_th


def detect_touchdown(prev_contact, curr_contact):
    """Swing-to-stance transition (lift-off is not a touchdown)."""
    return curr_contact and not prev_contact


def record_footfall(body_pos, body_rot, foot_body):
    """World-frame anchor implied by the current body pose and leg kinematics."""
    return np.asarray(body_pos, dtype=float) + body_rot @ np.asarray(foot_body, dtype=float)


def anchored_position_obs(anchor, body_rot, foot_body):
    """Trunk position implied by a stationary anchor; inverse of record_footfall."""
    return np.asarray(anchor, dtype=float) - body_rot @ np.asarray(foot_body, dtype=float)


def anchored_velocity_obs(body_rot, omega_body, foot_body, foot_vel_body):
    """Trunk velocity implied by a stationary anchor.

    foot_vel_body is the body-frame end-effector velocity, either straight
    from forward kinematics or from the per-leg velocity filter when enabled.
    """
    foot_body = np.asarray(foot_body, dtype=float)
    rel = cross3(np.asarray(omega_body, dtype=float), foot_body) + np.asarray(
        foot_vel_body, dtype=float)
    return -(body_rot @ rel)


def fuse_observations(per_leg_pos, per_leg_vel):
    """Unweighted mean of per-leg position and velocity observations."""
    if len(per_leg_pos) == 0 or len(per_leg_vel) == 0:
        raise EmptyContactSet("no stance legs to fuse")
    pos = np.mean(np.asarray(per_leg_pos, dtype=float), axis=0)
    vel = np.mean(np.asarray(per_leg_vel, dtype=float), axis=0)
    return pos, vel


__all__ = ["FootfallRecord", "EmptyContactSet", "gate_contact",
           "detect_touchdown", "record_footfall", "anchored_position_obs",
           "anchored_velocity_obs", "fuse_observations"]
