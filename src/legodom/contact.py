"""Stance gating, touchdown detection, footfall anchors, and the
contact-anchored body observations.

Every operator works on Python floats: vectors are any length-3 sequences,
rotations are three rows (a tuple of row tuples, or a 3x3 array), and the
results are tuples. A step runs them on a few legs a frame, where numpy's
per-call cost would exceed the arithmetic.
"""

from dataclasses import dataclass

from .geometry import cross3, mat_vec, mean3


class EmptyContactSet(Exception):
    """No stance legs available; caller must fall back to prediction only."""


@dataclass
class FootfallRecord:
    """World-frame contact anchor for one leg, a 3-tuple.

    The anchor is written only at touchdown (point feet) or rolled forward by
    the wheel propagation; lift-off leaves the stale anchor in place until
    the next touchdown resets it. Whether the leg is in stance is the
    estimator's `prev_contact`.
    """

    leg_id: int
    anchor: tuple = (0.0, 0.0, 0.0)


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
    x, y, z = mat_vec(body_rot, foot_body)
    return (body_pos[0] + x, body_pos[1] + y, body_pos[2] + z)


def anchored_position_obs(anchor, body_rot, foot_body):
    """Trunk position implied by a stationary anchor; inverse of record_footfall."""
    x, y, z = mat_vec(body_rot, foot_body)
    return (anchor[0] - x, anchor[1] - y, anchor[2] - z)


def anchored_velocity_obs(body_rot, omega_body, foot_body, foot_vel_body):
    """Trunk velocity implied by a stationary anchor.

    foot_vel_body is the body-frame end-effector velocity, either straight
    from forward kinematics or from the per-leg velocity filter when enabled.
    """
    cx, cy, cz = cross3(omega_body, foot_body)
    x, y, z = mat_vec(body_rot, (cx + foot_vel_body[0], cy + foot_vel_body[1],
                                 cz + foot_vel_body[2]))
    return (-x, -y, -z)


def fuse_observations(per_leg_pos, per_leg_vel):
    """Unweighted mean of per-leg position and velocity observations."""
    if len(per_leg_pos) == 0 or len(per_leg_vel) == 0:
        raise EmptyContactSet("no stance legs to fuse")
    return mean3(per_leg_pos), mean3(per_leg_vel)


__all__ = ["FootfallRecord", "EmptyContactSet", "gate_contact",
           "detect_touchdown", "record_footfall", "anchored_position_obs",
           "anchored_velocity_obs", "fuse_observations"]
