"""Frozen copies of the per-frame generators and the per-frame `degrade` that
`legodom.gait` replaced.

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

`_generate_trot` is the trot as it was before it became array passes: it
walks the frames one at a time, evaluates the body path at each stamp on
floats (`body_at`, `_SpeedProfile.at`, `_Path.at`, and `StepTerrain`'s
`body_offset` and `ground_z`, here free functions of the terrain), commits
the footholds when a half-cycle starts, and builds each leg's target per
frame with `stance_target` or the Hermite `_swing`. The joint solve is the
library's `_solve_legs`, which the change left alone. Its `rot_z` is the
yaw rotation the library kept until the trot stopped calling it.
"""

import math

import numpy as np

from legodom import kernels
from legodom.estimator import BodyState, SensorFrame
from legodom.gait import (GRAVITY, TROT_PAIR_A, GaitResult, _check_frames, _leg_params,
                          _solve_legs)
from legodom.geometry import WheelReading, cross3, rpy_to_quat

from kernels_reference import leg_coefficients, leg_kinematics

TWO_PI = 2.0 * np.pi


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


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


# StepTerrain.ground_z and StepTerrain.body_offset as they were, on floats;
# self is the terrain

def ground_z(self, x, y):
    return self.height if self.x0 <= x <= self.x1 else 0.0


def body_offset(self, x):
    if x <= self.x0 - self.ramp or x >= self.x1 + self.ramp:
        return 0.0, 0.0
    if x < self.x0:
        u = (x - (self.x0 - self.ramp)) / self.ramp
        return self.height * u * u * (3 - 2 * u), self.height * 6 * u * (1 - u) / self.ramp
    if x > self.x1:
        u = (x - self.x1) / self.ramp
        return self.height * (1 - u * u * (3 - 2 * u)), -self.height * 6 * u * (1 - u) / self.ramp
    return self.height, 0.0


class _Path:
    """Arclength-parameterized piecewise-linear body path."""

    def __init__(self, waypoints):
        self.pts = np.asarray(waypoints, dtype=float)
        if self.pts.ndim != 2 or self.pts.shape[1] != 2:
            raise ValueError("waypoints must be (x, y) pairs")
        if len(self.pts) > 1:
            deltas = np.diff(self.pts, axis=0)
            seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
            keep = seg_len > 0
            self.starts = self.pts[:-1][keep]
            self.dirs = deltas[keep] / seg_len[keep, None]
            self.seg_len = seg_len[keep]
        else:
            self.starts = np.zeros((0, 2))
            self.dirs = np.zeros((0, 2))
            self.seg_len = np.zeros(0)
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.total = float(self.cum[-1])

    def at(self, s):
        """Position and unit direction at arclength s (clamped to the path)."""
        if self.total == 0.0:
            return self.pts[0].copy(), np.zeros(2)
        if s <= 0.0:
            return self.starts[0].copy(), self.dirs[0].copy()
        if s >= self.total:
            return self.starts[-1] + self.dirs[-1] * self.seg_len[-1], self.dirs[-1].copy()
        k = int(np.searchsorted(self.cum, s, side="right") - 1)
        k = min(k, len(self.seg_len) - 1)
        return self.starts[k] + self.dirs[k] * (s - self.cum[k]), self.dirs[k].copy()


def _swing(u, p0, p1, m0, m1, apex):
    """Cubic Hermite between hip-frame targets with matched end rates, plus a
    sin^2 apex bump; returns the profile value and its d/du derivative.

    Velocity-matched endpoints keep joint rates continuous through touchdown,
    so encoder differencing sees no impact artifact on clean streams.
    """
    u2 = u * u
    u3 = u2 * u
    h00 = 2 * u3 - 3 * u2 + 1
    h10 = u3 - 2 * u2 + u
    h01 = -2 * u3 + 3 * u2
    h11 = u3 - u2
    pos = h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1
    pos[2] += apex * math.sin(math.pi * u) ** 2
    dh00 = 6 * u2 - 6 * u
    dh10 = 3 * u2 - 4 * u + 1
    dh01 = -6 * u2 + 6 * u
    dh11 = 3 * u2 - 2 * u
    vel = dh00 * p0 + dh10 * m0 + dh01 * p1 + dh11 * m1
    vel[2] += apex * math.pi * math.sin(2 * math.pi * u)
    return pos, vel


def _nominal_xy(plan, leg_idx, body_xy, yaw):
    geom = plan.legs[leg_idx]
    lateral = geom.side_sign * (geom.hip_offset_len + plan.stance_margin)
    offset = np.array([geom.hip_mount[0], geom.hip_mount[1] + lateral])
    return body_xy + rot_z(yaw)[:2, :2] @ offset


class _SpeedProfile:
    """Trapezoidal arclength profile: ramp up, cruise, ramp down."""

    def __init__(self, total, v, ramp):
        self.total = total
        if total <= 0.0 or v <= 0.0:
            self.duration = 0.0
            return
        accel = v / ramp if ramp > 0 else float("inf")
        if ramp <= 0.0:
            self.v, self.ramp, self.accel = v, 0.0, float("inf")
            self.duration = total / v
        elif total >= v * ramp:
            self.v, self.ramp, self.accel = v, ramp, accel
            self.duration = total / v + ramp
        else:
            # short path: triangular profile at reduced peak speed
            self.ramp = math.sqrt(total / accel)
            self.v = accel * self.ramp
            self.accel = accel
            self.duration = 2.0 * self.ramp

    def at(self, tw):
        """(arclength, speed) at time tw since motion start, clamped."""
        if self.total <= 0.0 or self.duration == 0.0:
            return 0.0, 0.0
        tw = min(max(tw, 0.0), self.duration)
        if self.ramp == 0.0:
            return self.v * tw, (self.v if 0 < tw < self.duration else 0.0)
        if tw < self.ramp:
            return 0.5 * self.accel * tw * tw, self.accel * tw
        if tw <= self.duration - self.ramp:
            return 0.5 * self.v * self.ramp + self.v * (tw - self.ramp), self.v
        rem = self.duration - tw
        return self.total - 0.5 * self.accel * rem * rem, self.accel * rem


def _generate_trot(plan):
    dt = 1.0 / plan.rate_hz
    sp = plan.step_period
    fps = int(round(sp * plan.rate_hz))  # frames per half-cycle
    if fps < 2 or abs(fps - sp * plan.rate_hz) > 1e-9:
        raise ValueError("step_period must be an integer number of frames")
    path = _Path(plan.waypoints)
    turning = plan.turn_angle > 0.0 and plan.yaw_rate > 0.0
    profile = _SpeedProfile(path.total, plan.speed, plan.speed_ramp)
    if turning:
        move_time = plan.turn_angle / plan.yaw_rate
    else:
        move_time = profile.duration
    _check_frames(move_time * plan.rate_hz + 2.0 * plan.settle_time * plan.rate_hz)
    n_half = max(2, int(math.ceil(move_time / sp - 1e-9)) + 2)
    k_walk0 = int(round(plan.settle_time * plan.rate_hz))
    k_walk1 = k_walk0 + n_half * fps
    n_frames = k_walk1 + int(round(plan.settle_time * plan.rate_hz)) + 1
    _check_frames(n_frames)
    n_legs = len(plan.legs)

    def body_at(t):
        tw = min(max(t - plan.settle_time, 0.0), move_time)
        moving = 0.0 < t - plan.settle_time < move_time
        if turning:
            xy, dxy = path.pts[0].copy(), np.zeros(2)
            yaw = plan.yaw_rate * tw
            yawrate = plan.yaw_rate if moving else 0.0
        else:
            s, speed = profile.at(tw)
            xy, d = path.at(s)
            dxy = speed * d if moving else np.zeros(2)
            yaw, yawrate = 0.0, 0.0
        if plan.terrain is not None:
            off, doff = body_offset(plan.terrain, xy[0])
            z = plan.body_height + off
            vz = doff * dxy[0]
        else:
            z, vz = plan.body_height, 0.0
        pos = np.array([xy[0], xy[1], z])
        vel = np.array([dxy[0], dxy[1], vz])
        return pos, vel, wrap_angle(yaw), yawrate

    def ground(xy):
        return ground_z(plan.terrain, xy[0], xy[1]) if plan.terrain is not None else 0.0

    def foothold(leg, t_td):
        pos, _, yaw, _ = body_at(t_td + sp / 2.0)
        xy = _nominal_xy(plan, leg, pos[:2], yaw)
        return np.array([xy[0], xy[1], ground(xy)])

    def stance_target(foot, pos, rot, vel, omega, leg):
        """Hip-to-foot target of a foot planted at world point foot, and its
        rate under the body's motion."""
        rel_full = rot.T @ (foot - pos)
        return (rel_full - plan.legs[leg].hip_mount,
                -(rot.T @ vel) - cross3(omega, rel_full))

    ov = int(round(plan.double_support * plan.rate_hz))
    swing_frames = fps - ov
    if swing_frames < 2:
        raise ValueError("double_support leaves no room for the swing")
    swing_time = swing_frames * dt

    cur = [foothold(i, 0.0) for i in range(n_legs)]
    nxt = [None] * n_legs
    # swing is interpolated between hip-frame endpoints so the foot can never
    # cross the hip roll axis while the body keeps moving: per leg, the
    # (start, end, start rate, end rate) arguments of _swing
    swing_ends = [None] * n_legs
    pair_a = set(TROT_PAIR_A)
    all_legs = set(range(n_legs))

    rel = np.empty((n_frames, n_legs, 3))
    rel_rate = np.empty((n_frames, n_legs, 3))
    load = np.empty((n_frames, 3))
    stamps, yaws, omegas, truth = [], [], [], []
    contacts = np.zeros((n_frames, n_legs), dtype=bool)
    half_prev = -1
    for k in range(n_frames):
        t = k * dt
        pos, vel, yaw, yawrate = body_at(t)
        rot = rot_z(yaw)
        omega = np.array([0.0, 0.0, yawrate])

        # the half-cycle of the walk, -1 while settling
        half = (k - k_walk0) // fps if k_walk0 <= k < k_walk1 else -1
        lifting = pair_a if half % 2 == 0 else all_legs - pair_a
        if half != half_prev:
            # commit the previous swing pair, then set the new pair's targets
            for i in range(n_legs):
                if nxt[i] is not None:
                    cur[i] = nxt[i]
                    nxt[i] = None
            if half >= 0:
                t_land = plan.settle_time + half * sp + swing_time
                pos_td, vel_td, yaw_td, yawrate_td = body_at(t_land)
                rot_td = rot_z(yaw_td)
                om_td = np.array([0.0, 0.0, yawrate_td])
                for i in lifting:
                    nxt[i] = foothold(i, t_land)
                    p0, v0 = stance_target(cur[i], pos, rot, vel, omega, i)
                    p1, v1 = stance_target(nxt[i], pos_td, rot_td, vel_td, om_td, i)
                    swing_ends[i] = (p0, p1, swing_time * v0, swing_time * v1)
            half_prev = half
        # no leg swings while settling, nor in double support, where the
        # swing pair has landed on its new foothold
        frame_in_half = (k - k_walk0) % fps
        swing_set = lifting if half >= 0 and frame_in_half < swing_frames else set()
        u = frame_in_half / swing_frames

        stance = [i for i in range(n_legs) if i not in swing_set]
        f_share = np.array([0.0, 0.0, -plan.mass * GRAVITY / len(stance)])

        for i in range(n_legs):
            if i in swing_set:
                rel[k, i], swing_rate = _swing(u, *swing_ends[i], plan.step_height)
                rel_rate[k, i] = swing_rate / swing_time
            else:
                # a pending nxt on a stance leg means it landed early and is
                # riding out the double-support window on the new foothold
                foot = nxt[i] if nxt[i] is not None else cur[i]
                rel[k, i], rel_rate[k, i] = stance_target(foot, pos, rot, vel, omega, i)
        load[k] = rot.T @ f_share

        contacts[k, stance] = True
        stamps.append(t)
        yaws.append(yaw)
        omegas.append(omega)
        truth.append(BodyState(pos, np.array([0.0, 0.0, yaw]), vel, t))
    # one (F, 3, L, 3) array; each frame's joints are a view into it
    joints = np.stack(_solve_legs(plan.legs, stamps, rel, rel_rate, load, contacts), axis=1)
    # (F, 4) and (F, 3) arrays; each frame's att and gyro are views into them
    att = rpy_to_quat(0.0, 0.0, np.array(yaws)).T.copy()
    frames = list(map(SensorFrame, stamps, att, np.array(omegas), joints))
    return GaitResult(frames, truth, contacts)
