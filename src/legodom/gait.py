"""Synthetic gait generator and stream degradation.

Prescribes exact body trajectories and footstep plans, inverts the leg
kinematics to produce joint streams, and synthesizes torque/IMU/wheel
channels, so the emitted sensor log has a bit-exact ground truth attached.
degrade() then layers controlled imperfections (quantization, spikes, yaw
drift, slip, touchdown transients) on top of a clean stream.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .estimator import BodyState, SensorFrame
from .geometry import (JointReading, WheelReading, default_leg_geometries,
                       cross3, rot_z, rpy_to_quat, quat_to_rpy, wrap_angle)

GRAVITY = 9.81
TROT_PAIR_A = (0, 3)  # front-left with rear-right


class InfeasiblePlan(Exception):
    """Requested plan leaves the leg workspace; carries the first bad time."""

    def __init__(self, stamp, msg):
        super().__init__("t=%.4f: %s" % (stamp, msg))
        self.stamp = stamp


@dataclass
class StepTerrain:
    """A raised platform across x in [x0, x1]; body height ramps over `ramp`."""

    x0: float
    x1: float
    height: float
    ramp: float = 0.6

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


@dataclass
class GaitPlan:
    mode: str = "trot"  # trot | stand | wheel_roll | wheel_swing | hop
    legs: list = field(default_factory=default_leg_geometries)
    rate_hz: float = 250.0
    body_height: float = 0.30
    speed: float = 0.5
    step_period: float = 0.24
    step_height: float = 0.05
    stance_margin: float = 0.02  # extra lateral foothold offset
    double_support: float = 0.02  # swing lands this early, overlapping stances
    speed_ramp: float = 1.0  # trapezoidal accel/decel time at the path ends
    settle_time: float = 0.6
    mass: float = 15.0
    waypoints: list = field(default_factory=lambda: [(0.0, 0.0), (8.0, 0.0),
                                                     (8.0, 2.0), (0.0, 2.0),
                                                     (0.0, 0.0)])
    terrain: StepTerrain = None
    yaw_rate: float = 0.0
    turn_angle: float = 0.0
    duration: float = 10.0
    flight_window: tuple = None  # (t0, t1) for hop mode
    flight_speed: float = 0.3
    imperfections: dict = field(default_factory=dict)


@dataclass
class GaitResult:
    frames: list
    truth: list
    contacts: np.ndarray  # (n_frames, n_legs) bool


def preset_plan(name):
    """Built-in plans: flat_loop, stair_loop, standing, wheel_roll, plus the
    auxiliary walk_line, turn_in_place, wheel_swing, and hop."""
    if name == "flat_loop":
        return GaitPlan(mode="trot")
    if name == "stair_loop":
        cycle = [(0.0, 0.0), (3.6, 0.0)]
        wps = []
        for _ in range(5):
            wps.extend(cycle)
            wps.extend(reversed(cycle[:-1]))
        wps.append((0.0, 0.0))
        # flatten duplicate consecutive points
        clean = [wps[0]]
        for p in wps[1:]:
            if p != clean[-1]:
                clean.append(p)
        return GaitPlan(mode="trot", waypoints=clean, body_height=0.27,
                        speed=0.6, terrain=StepTerrain(1.2, 2.4, 0.1))
    if name == "standing":
        return GaitPlan(mode="stand", duration=12.0)
    if name == "wheel_roll":
        return GaitPlan(mode="wheel_roll", duration=10.0, speed=0.5,
                        legs=default_leg_geometries(wheel_radius=0.05))
    if name == "walk_line":
        return GaitPlan(mode="trot", rate_hz=500.0, speed=0.4,
                        waypoints=[(0.0, 0.0), (11.4, 0.0)])
    if name == "turn_in_place":
        return GaitPlan(mode="trot", yaw_rate=0.35, turn_angle=2 * np.pi,
                        waypoints=[(0.0, 0.0)])
    if name == "wheel_swing":
        return GaitPlan(mode="wheel_swing", duration=6.0,
                        legs=default_leg_geometries(wheel_radius=0.05))
    if name == "hop":
        return GaitPlan(mode="hop", duration=4.0, flight_window=(1.5, 2.1))
    raise ValueError("unknown preset %r" % name)


PRESETS = ("flat_loop", "stair_loop", "standing", "wheel_roll", "walk_line",
           "turn_in_place", "wheel_swing", "hop")


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


def _solve_leg(t, geom, rel_target, rel_rate):
    """Joint angles and rates hitting a body-frame hip-to-foot target."""
    lh, lt, lc, rw, side = geom.kernel_args()
    t1, t2, t3, viol = kernels.ik_joints(rel_target[0], rel_target[1],
                                         rel_target[2], lh, lt, geom.l2, side)
    if viol > 1e-9:
        raise InfeasiblePlan(t, "foot target outside workspace (overshoot %g)" % viol)
    q = np.array([t1, t2, t3])
    back = kernels.fk_position(q, lh, lt, lc, rw, side)
    if np.max(np.abs(back - rel_target)) > 1e-6:
        raise InfeasiblePlan(t, "IK branch mismatch at target %s" % rel_target)
    J = kernels.leg_jacobian(q, lh, lt, lc, rw, side)
    if abs(np.linalg.det(J)) < 1e-10:
        raise InfeasiblePlan(t, "singular leg configuration")
    dq = np.linalg.solve(J, rel_rate)
    return q, dq


def _leg_torques(q, geom, rot, f_world):
    lh, lt, lc, rw, side = geom.kernel_args()
    J = kernels.leg_jacobian(q, lh, lt, lc, rw, side)
    return J.T @ (rot.T @ f_world)


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
    n_half = max(2, int(math.ceil(move_time / sp - 1e-9)) + 2)
    k_walk0 = int(round(plan.settle_time * plan.rate_hz))
    k_walk1 = k_walk0 + n_half * fps
    n_frames = k_walk1 + int(round(plan.settle_time * plan.rate_hz)) + 1
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
            off, doff = plan.terrain.body_offset(xy[0])
            z = plan.body_height + off
            vz = doff * dxy[0]
        else:
            z, vz = plan.body_height, 0.0
        pos = np.array([xy[0], xy[1], z])
        vel = np.array([dxy[0], dxy[1], vz])
        return pos, vel, wrap_angle(yaw), yawrate

    def ground(xy):
        return plan.terrain.ground_z(xy[0], xy[1]) if plan.terrain is not None else 0.0

    def foothold(leg, t_td):
        pos, _, yaw, _ = body_at(t_td + sp / 2.0)
        xy = _nominal_xy(plan, leg, pos[:2], yaw)
        return np.array([xy[0], xy[1], ground(xy)])

    def rel_of(world_foot, pos, rot, leg):
        return rot.T @ (world_foot - pos) - plan.legs[leg].hip_mount

    ov = int(round(plan.double_support * plan.rate_hz))
    swing_frames = fps - ov
    if swing_frames < 2:
        raise ValueError("double_support leaves no room for the swing")
    swing_time = swing_frames * dt

    def stance_relrate(world_foot, pos, rot, vel, omega, leg):
        rel_full = rot.T @ (world_foot - pos)
        return -cross3(omega, rel_full) - rot.T @ vel

    cur = [foothold(i, 0.0) for i in range(n_legs)]
    nxt = [None] * n_legs
    # swing is interpolated between hip-frame endpoints so the foot can never
    # cross the hip roll axis while the body keeps moving
    rel0 = [None] * n_legs
    rel1 = [None] * n_legs
    rate0 = [None] * n_legs
    rate1 = [None] * n_legs
    pair_a = set(TROT_PAIR_A)
    all_legs = set(range(n_legs))

    frames, truth = [], []
    contacts = np.zeros((n_frames, n_legs), dtype=bool)
    half_prev = -1
    for k in range(n_frames):
        t = k * dt
        pos, vel, yaw, yawrate = body_at(t)
        rot = rot_z(yaw)
        omega = np.array([0.0, 0.0, yawrate])

        if k_walk0 <= k < k_walk1:
            half = (k - k_walk0) // fps
            frame_in_half = (k - k_walk0) % fps
            lifting = pair_a if half % 2 == 0 else all_legs - pair_a
            if half != half_prev:
                # commit the previous swing pair, then set the new pair's targets
                for i in range(n_legs):
                    if nxt[i] is not None:
                        cur[i] = nxt[i]
                        nxt[i] = None
                t_land = plan.settle_time + half * sp + swing_time
                pos_td, vel_td, yaw_td, yawrate_td = body_at(t_land)
                rot_td = rot_z(yaw_td)
                om_td = np.array([0.0, 0.0, yawrate_td])
                for i in lifting:
                    nxt[i] = foothold(i, t_land)
                    rel0[i] = rel_of(cur[i], pos, rot, i)
                    rel1[i] = rel_of(nxt[i], pos_td, rot_td, i)
                    rate0[i] = swing_time * stance_relrate(cur[i], pos, rot,
                                                           vel, omega, i)
                    rate1[i] = swing_time * stance_relrate(nxt[i], pos_td, rot_td,
                                                           vel_td, om_td, i)
                half_prev = half
            if frame_in_half < swing_frames:
                swing_set = lifting
                u = frame_in_half / swing_frames
            else:
                # double support: the swing pair has landed on its new foothold
                swing_set = set()
                u = 0.0
        else:
            swing_set = set()
            u = 0.0
            if k >= k_walk1 and half_prev >= 0:
                for i in range(n_legs):
                    if nxt[i] is not None:
                        cur[i] = nxt[i]
                        nxt[i] = None
                half_prev = -1

        stance = [i for i in range(n_legs) if i not in swing_set]
        f_share = np.array([0.0, 0.0, -plan.mass * GRAVITY / len(stance)])

        legs = []
        for i in range(n_legs):
            if i in swing_set:
                rel, relrate = _swing(u, rel0[i], rel1[i], rate0[i], rate1[i],
                                      plan.step_height)
                relrate = relrate / swing_time
            else:
                # a pending nxt on a stance leg means it landed early and is
                # riding out the double-support window on the new foothold
                foot = nxt[i] if nxt[i] is not None else cur[i]
                rel_full = rot.T @ (foot - pos)
                rel = rel_full - plan.legs[i].hip_mount
                relrate = -cross3(omega, rel_full) - rot.T @ vel
            q, dq = _solve_leg(t, plan.legs[i], rel, relrate)
            tau = _leg_torques(q, plan.legs[i], rot, f_share) if i in stance else np.zeros(3)
            legs.append(JointReading(q, dq, tau))

        contacts[k, stance] = True
        frames.append(SensorFrame(t, rpy_to_quat(0.0, 0.0, yaw), omega, legs))
        truth.append(BodyState(pos, np.array([0.0, 0.0, yaw]), vel, t))
    return GaitResult(frames, truth, contacts)


_STAND_Q = np.array([0.0, 0.8, -1.6])


def _generate_static(plan):
    """stand / wheel_roll / wheel_swing / hop share a constant-pose skeleton."""
    dt = 1.0 / plan.rate_hz
    n_frames = int(round(plan.duration / dt)) + 1
    n_legs = len(plan.legs)
    q0 = _STAND_Q.copy()
    rot = np.eye(3)

    frames, truth = [], []
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

        legs, wheels = [], []
        stance = [] if airborne else list(range(n_legs))
        f_share = (np.zeros(3) if airborne else
                   np.array([0.0, 0.0, -plan.mass * GRAVITY / n_legs]))
        for i in range(n_legs):
            geom = plan.legs[i]
            q = q0.copy()
            dq = np.zeros(3)
            if plan.mode == "wheel_swing":
                amp, w = 0.3, 2.0 * np.pi / 2.0
                q[1] += amp * np.sin(w * t)
                dq[1] = amp * w * np.cos(w * t)
            tau = _leg_torques(q, geom, rot, f_share) if not airborne else np.zeros(3)
            legs.append(JointReading(q, dq, tau))
            if geom.wheel_radius > 0.0:
                if plan.mode == "wheel_roll":
                    rate = plan.speed / geom.wheel_radius
                    wheels.append(WheelReading(wrap_angle(wheel0 + rate * t), rate))
                elif plan.mode == "wheel_swing":
                    # wheel pinned: encoder follows the shank pitch exactly
                    beta = q[1] + q[2]
                    beta0 = q0[1] + q0[2]
                    wheels.append(WheelReading(wrap_angle(beta - beta0), dq[1] + dq[2]))
                else:
                    wheels.append(WheelReading(0.0, 0.0))
            else:
                wheels.append(None)
        contacts[k, stance] = True
        frames.append(SensorFrame(t, rpy_to_quat(0.0, 0.0, 0.0), np.zeros(3), legs,
                                  wheels if any(w is not None for w in wheels) else None))
        truth.append(BodyState(pos, np.zeros(3), vel, t))
    return GaitResult(frames, truth, contacts)


def generate_gait(plan: GaitPlan) -> GaitResult:
    """Produce a clean sensor stream plus its ground truth for a plan.

    Stance feet are exactly stationary in the world (wheel modes roll exactly
    at the commanded rate), joints come from the analytic IK, torques realize
    an equal split of body weight over the stance set, and the IMU channels
    are exact. Raises InfeasiblePlan with the first violating timestamp.
    """
    if plan.mode == "trot":
        return _generate_trot(plan)
    if plan.mode in ("stand", "wheel_roll", "wheel_swing", "hop"):
        return _generate_static(plan)
    raise ValueError("unknown gait mode %r" % plan.mode)


def _copy_frame(fr: SensorFrame) -> SensorFrame:
    legs = [JointReading(l.q.copy(), l.dq.copy(), l.tau.copy()) for l in fr.legs]
    wheels = None
    if fr.wheels is not None:
        wheels = [None if w is None else WheelReading(w.psi, w.dpsi) for w in fr.wheels]
    return SensorFrame(fr.stamp, fr.att.copy(), fr.gyro.copy(), legs, wheels)


def degrade(frames, imperfections, seed=0, contacts=None, legs=None):
    """Overlay sensing imperfections on a clean stream (input left untouched).

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

    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    out = [_copy_frame(fr) for fr in frames]
    if not out:
        return out

    noise_amp = float(imperfections.get("touchdown_height_noise", 0.0) or 0.0)
    if noise_amp > 0.0:
        if contacts is None or legs is None:
            raise ValueError("touchdown_height_noise needs contacts and legs")
        n_transient = 3
        contacts = np.asarray(contacts, dtype=bool)
        for i in range(contacts.shape[1]):
            col = contacts[:, i]
            rises = np.flatnonzero(col[1:] & ~col[:-1]) + 1
            geom = legs[i]
            lh, lt, lc, rw, side = geom.kernel_args()
            for k0 in rises:
                delta = rng.uniform(-noise_amp, noise_amp)
                for k in range(k0, min(k0 + n_transient, len(out))):
                    if not col[k]:
                        break
                    reading = out[k].legs[i]
                    p = kernels.fk_position(reading.q, lh, lt, lc, rw, side)
                    t1, t2, t3, viol = kernels.ik_joints(
                        p[0], p[1], p[2] + delta, lh, lt, geom.l2, side)
                    if viol > 1e-9:
                        continue
                    reading.q = np.array([t1, t2, t3])

    quantum = float(imperfections.get("encoder_quantum", 0.0) or 0.0)
    if quantum > 0.0:
        prev_q = None
        prev_t = None
        for fr in out:
            new_q = [np.floor(l.q / quantum) * quantum for l in fr.legs]
            if prev_q is not None:
                dtf = fr.stamp - prev_t
                for l, qq, pq in zip(fr.legs, new_q, prev_q):
                    l.dq = (qq - pq) / dtf
            for l, qq in zip(fr.legs, new_q):
                l.q = qq
            prev_q = new_q
            prev_t = fr.stamp

    spikes = imperfections.get("rate_spikes")
    if spikes:
        prob, gain = spikes
        if prob > 0.0:
            for fr in out:
                for l in fr.legs:
                    hit = rng.random(3) < prob
                    if hit.any():
                        l.dq = np.where(hit, l.dq * gain, l.dq)

    drift = float(imperfections.get("yaw_drift", 0.0) or 0.0)
    if drift != 0.0:
        t0 = out[0].stamp
        for fr in out:
            rpy = quat_to_rpy(fr.att)
            fr.att = rpy_to_quat(rpy[0], rpy[1],
                                 wrap_angle(rpy[2] + drift * (fr.stamp - t0)))

    slip = float(imperfections.get("wheel_slip", 0.0) or 0.0)
    if slip != 0.0:
        for fr in out:
            if fr.wheels is None:
                continue
            for w in fr.wheels:
                if w is not None:
                    w.dpsi *= (1.0 + slip)

    return out


__all__ = ["GaitPlan", "GaitResult", "StepTerrain", "InfeasiblePlan",
           "preset_plan", "PRESETS", "generate_gait", "degrade", "GRAVITY"]
