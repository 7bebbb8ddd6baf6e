"""Frozen copies of the per-frame static generator and the per-frame `degrade`
that `legodom.gait` replaced.

`_generate_static` below is the stand / wheel_roll / wheel_swing / hop
generator as it was before it became closed-form column arrays: it walks the
frames one at a time and decides the mode per frame and leg. `_blocks` and
`_stance_torques` are the helpers it called, and the leg kinematics it runs
are the frozen table-driven `leg_kinematics` of `kernels_reference.py`. They
are kept verbatim so the closed-form generator is checked against an
independent operation sequence.
Do not edit them to follow the library; only the frame construction follows
`SensorFrame`, whose joint readings are one (3, legs, 3) array.

`degrade` is the degradation as it was before its attitude channel became
one column pass: it stacks the joints for the joint imperfections, then
walks the frames and applies the yaw drift to one frame at a time through
the float forms of `quat_to_rpy`, `wrap_angle` and `rpy_to_quat`.
`quat_to_rpy` and `wrap_angle` are frozen here too, as they were before the
library's versions took columns.
"""

import math

import numpy as np

from legodom import kernels
from legodom.estimator import BodyState, SensorFrame
from legodom.gait import GRAVITY, GaitResult, _leg_params
from legodom.geometry import WheelReading, rpy_to_quat

from kernels_reference import leg_coefficients, leg_kinematics

TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Wrap a scalar angle to (-pi, pi]."""
    w = float(a) % TWO_PI
    if w > np.pi:
        w -= TWO_PI
    return w


def quat_to_rpy(q):
    """Quaternion [w, x, y, z] to roll/pitch/yaw (ZYX convention).

    A quaternion whose squared norm is off 1 by more than 1e-12 is divided by
    its norm first; a zero quaternion, which has no attitude, raises
    ValueError.
    """
    w, x, y, z = map(float, q)
    if abs(w * w + x * x + y * y + z * z - 1.0) > 1e-12:
        n = math.hypot(w, x, y, z)
        if n == 0.0:
            raise ValueError("attitude quaternion %r has zero norm" % ([w, x, y, z],))
        w, x, y, z = w / n, x / n, y / n, z / n
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    sp = 2.0 * (w * y - z * x)
    sp = min(1.0, max(-1.0, sp))
    pitch = np.arcsin(sp)
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])

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


def degrade(frames, imperfections, seed=0, contacts=None, legs=None):
    """Overlay sensing imperfections on a clean stream (input left untouched;
    the output shares no array with it).

    imperfections keys (absent or zero = identity):
      encoder_quantum: floor joint angles to this grid, then recompute joint
        rates by differencing the quantized angles (first frame keeps its
        original rates)
      rate_spikes: (prob, gain) multiplicative spikes on individual joint rates
      yaw_drift: rad/s integrated into the attitude yaw channel
      wheel_slip: wheel rate channel scaled by (1 + slip)
      touchdown_height_noise: amplitude a; each touchdown after stream start
        perturbs that leg's sensed foot height by U(-a, a) for the first few
        stance frames (an impact transient); needs contacts and legs

    The frames' joints are stacked once into an (F, 3, L, 3) array, so every
    frame must have the same legs; each joint imperfection is a column
    operation on that stack, and each output frame's joints are a view into
    it. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    if not frames:
        return []
    joints = np.stack([fr.joints for fr in frames])
    q, dq = joints[:, 0], joints[:, 1]  # (F, L, 3) views into the stack

    noise_amp = float(imperfections.get("touchdown_height_noise", 0.0) or 0.0)
    if noise_amp > 0.0:
        if contacts is None or legs is None:
            raise ValueError("touchdown_height_noise needs contacts and legs")
        n_transient = 3
        contacts = np.asarray(contacts, dtype=bool)
        hits = []  # (frame, leg, height offset) of each perturbed reading
        for i in range(contacts.shape[1]):
            col = contacts[:, i]
            rises = np.flatnonzero(col[1:] & ~col[:-1]) + 1
            for k0 in rises:
                delta = rng.uniform(-noise_amp, noise_amp)
                for k in range(k0, min(k0 + n_transient, len(frames))):
                    if not col[k]:
                        break
                    hits.append((k, i, delta))
        if hits:
            ks, idx, dz = (np.array(c) for c in zip(*hits))
            lh, lt, lc, rw, side, l2 = (p[idx] for p in _leg_params(legs))
            q_hit = q[ks, idx]
            coef = kernels.leg_coefficients(lh, lt, lc, rw, side)
            foot = kernels.leg_kinematics(q_hit, np.zeros_like(q_hit), coef)[0]
            *angles, viol = kernels.ik_joints_array(
                foot[:, 0], foot[:, 1], foot[:, 2] + dz, lh, lt, l2, side)
            ok = ~(viol > 1e-9)
            q[ks[ok], idx[ok]] = np.stack(angles, axis=-1)[ok]

    quantum = float(imperfections.get("encoder_quantum", 0.0) or 0.0)
    if quantum > 0.0:
        q[:] = np.floor(q / quantum) * quantum
        dtf = np.diff([fr.stamp for fr in frames])
        dq[1:] = (q[1:] - q[:-1]) / dtf[:, None, None]

    spikes = imperfections.get("rate_spikes")
    if spikes:
        prob, gain = spikes
        if prob > 0.0:
            # drawn frame by frame, leg by leg, joint by joint: a seed's
            # stream depends on this order
            hit = rng.random(dq.shape) < prob
            dq[:] = np.where(hit, dq * gain, dq)

    drift = float(imperfections.get("yaw_drift", 0.0) or 0.0)
    slip = float(imperfections.get("wheel_slip", 0.0) or 0.0)
    t0 = frames[0].stamp
    out = []
    for fr, frame_joints in zip(frames, joints):
        att = fr.att.copy()
        if drift != 0.0:
            rpy = quat_to_rpy(fr.att)
            att = rpy_to_quat(rpy[0], rpy[1],
                              wrap_angle(rpy[2] + drift * (fr.stamp - t0)))
        wheels = None
        if fr.wheels is not None:
            wheels = [None if w is None else WheelReading(w.psi, w.dpsi * (1.0 + slip))
                      for w in fr.wheels]
        out.append(SensorFrame(fr.stamp, att, fr.gyro.copy(), frame_joints, wheels))
    return out
