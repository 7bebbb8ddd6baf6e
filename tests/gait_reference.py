"""Frozen copy of the per-frame static generator that `legodom.gait` replaced.

`_generate_static` below is the stand / wheel_roll / wheel_swing / hop
generator as it was before it became closed-form column arrays: it walks the
frames one at a time and decides the mode per frame and leg. `_blocks` and
`_stance_torques` are the helpers it called, and the leg kinematics it runs
are the frozen table-driven `leg_kinematics` of `kernels_reference.py`. They
are kept verbatim so the closed-form generator is checked against an
independent operation sequence.
Do not edit them to follow the library; only the frame construction follows
`SensorFrame`, whose joint readings are one (3, legs, 3) array.
"""

import numpy as np

from legodom.estimator import BodyState, SensorFrame
from legodom.gait import GRAVITY, GaitResult
from legodom.geometry import WheelReading, rpy_to_quat, wrap_angle

from kernels_reference import leg_coefficients, leg_kinematics

# frames per block of the batched leg kinematics; bounds the transient
# (slots, 12, legs, frames) term arrays to about a megabyte
_BLOCK = 256


def _blocks(n_frames):
    return [slice(k0, k0 + _BLOCK) for k0 in range(0, n_frames, _BLOCK)]


def _stance_torques(J, load, stance):
    """Joint torques J^T load of the stance legs, zeros for the others.

    J is (F, L, 3, 3), load (F, 3) the body-frame force on each stance foot
    and stance (F, L).
    """
    tau = (np.swapaxes(J, -1, -2) @ load[:, None, :, None])[..., 0]
    return np.where(stance[..., None], tau, 0.0)


_STAND_Q = np.array([0.0, 0.8, -1.6])


def _generate_static(plan):
    """stand / wheel_roll / wheel_swing / hop share a constant-pose skeleton."""
    dt = 1.0 / plan.rate_hz
    n_frames = int(round(plan.duration / dt)) + 1
    n_legs = len(plan.legs)
    q0 = _STAND_Q.copy()
    rot = np.eye(3)

    q = np.empty((n_frames, n_legs, 3))
    dq = np.zeros((n_frames, n_legs, 3))
    load = np.empty((n_frames, 3))
    stamps, wheel_lists, truth = [], [], []
    contacts = np.zeros((n_frames, n_legs), dtype=bool)
    wheel0 = 0.0
    for k in range(n_frames):
        t = k * dt
        pos = np.array([0.0, 0.0, plan.body_height])
        vel = np.zeros(3)
        airborne = False
        if plan.mode == "hop" and plan.flight_window is not None:
            t0, t1 = plan.flight_window
            shift = plan.flight_speed * min(max(t - t0, 0.0), t1 - t0)
            pos[0] += shift
            airborne = t0 <= t < t1
            if airborne:
                vel[0] = plan.flight_speed
        elif plan.mode == "wheel_roll":
            pos[0] += plan.speed * t
            vel[0] = plan.speed

        wheels = []
        stance = [] if airborne else list(range(n_legs))
        f_share = (np.zeros(3) if airborne else
                   np.array([0.0, 0.0, -plan.mass * GRAVITY / n_legs]))
        for i in range(n_legs):
            geom = plan.legs[i]
            qk, dqk = q[k, i], dq[k, i]
            qk[:] = q0
            if plan.mode == "wheel_swing":
                amp, w = 0.3, 2.0 * np.pi / 2.0
                qk[1] += amp * np.sin(w * t)
                dqk[1] = amp * w * np.cos(w * t)
            if geom.wheel_radius > 0.0:
                if plan.mode == "wheel_roll":
                    rate = plan.speed / geom.wheel_radius
                    wheels.append(WheelReading(wrap_angle(wheel0 + rate * t), rate))
                elif plan.mode == "wheel_swing":
                    # wheel pinned: encoder follows the shank pitch exactly
                    beta = qk[1] + qk[2]
                    beta0 = q0[1] + q0[2]
                    wheels.append(WheelReading(wrap_angle(beta - beta0), dqk[1] + dqk[2]))
                else:
                    wheels.append(WheelReading(0.0, 0.0))
            else:
                wheels.append(None)
        load[k] = rot.T @ f_share
        contacts[k, stance] = True
        stamps.append(t)
        wheel_lists.append(wheels if any(w is not None for w in wheels) else None)
        truth.append(BodyState(pos, np.zeros(3), vel, t))
    coef = leg_coefficients(*zip(*(g.kernel_args() for g in plan.legs)))
    tau = np.empty_like(q)
    for blk in _blocks(n_frames):
        _, J, _ = leg_kinematics(q[blk], dq[blk], coef)
        tau[blk] = _stance_torques(J, load[blk], contacts[blk])
    frames = [SensorFrame(t, rpy_to_quat(0.0, 0.0, 0.0), np.zeros(3),
                          np.stack((q[k], dq[k], tau[k])), wheels)
              for k, (t, wheels) in enumerate(zip(stamps, wheel_lists))]
    return GaitResult(frames, truth, contacts)
