"""Synthetic gait generator and stream degradation.

Prescribes exact body trajectories and footstep plans, inverts the leg
kinematics to produce joint streams, and synthesizes torque/IMU/wheel
channels, so the emitted sensor log has a bit-exact ground truth attached.
degrade() then layers controlled imperfections (quantization, spikes, yaw
drift, slip, touchdown transients) on top of a clean stream.

The static modes (stand, wheel_roll, wheel_swing, hop) are closed-form in
time: every channel is computed as a column over all frames. The trot walks
its frames in order, because its footholds are committed at half-cycle
boundaries; its swing curve stays per frame too, since CPython's `x ** 2`
(libm pow) and numpy's square do not round alike, and an array swing would
change the streams' bits. Both run the leg kinematics over blocks of frames.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .estimator import BodyState, SensorFrame, frame_columns
from .geometry import (WheelReading, default_leg_geometries, cross3, rot_z,
                       rpy_to_quat, quat_to_rpy_columns, wrap_angle)

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
    mode: str = "trot"  # one of MODES
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
MODES = ("trot", "stand", "wheel_roll", "wheel_swing", "hop")


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


# frames per block of the batched leg kinematics; bounds the transient
# (legs, frames) arrays of a block, such as leg_kinematics' 12 entry rows
_BLOCK = 256

# the most frames one generated stream may hold (over an hour at 250 Hz)
MAX_FRAMES = 1_000_000


def _check_frames(n):
    """ValueError when n frames, a float or an int, exceed MAX_FRAMES or are
    not a number; run before a float count becomes an int or an array size."""
    if not n <= MAX_FRAMES:
        raise ValueError("plan needs %.6g frames, more than the %d a stream may hold"
                         % (n, MAX_FRAMES))


def _blocks(n_frames):
    return [slice(k0, k0 + _BLOCK) for k0 in range(0, n_frames, _BLOCK)]


def _leg_params(legs):
    """(lh, lt, lc, rw, side, l2) of a list of legs, each an (L,) array."""
    lh, lt, lc, rw, side = (np.array(p) for p in zip(*(g.kernel_args() for g in legs)))
    return lh, lt, lc, rw, side, np.array([g.l2 for g in legs])


def _stance_torques(J, load, stance):
    """Joint torques J^T load of the stance legs, zeros for the others.

    J is (F, L, 3, 3), load (F, 3) the body-frame force on each stance foot
    and stance (F, L).
    """
    tau = (np.swapaxes(J, -1, -2) @ load[:, None, :, None])[..., 0]
    return np.where(stance[..., None], tau, 0.0)


def _solve_legs(legs, stamps, rel, rel_rate, load, stance):
    """Joint angles, rates and torques hitting body-frame hip-to-foot targets.

    rel and rel_rate are (F, L, 3) targets and their rates; load and stance
    are as in _stance_torques. Raises InfeasiblePlan at the first failing
    frame and leg in loop order, with the first check failing there:
    overshoot, IK branch mismatch, singular configuration.
    """
    lh, lt, lc, rw, side, l2 = _leg_params(legs)
    coef = kernels.leg_coefficients(lh, lt, lc, rw, side)
    q, dq, tau = (np.empty_like(rel) for _ in range(3))
    for blk in _blocks(len(rel)):
        target = rel[blk]
        *angles, viol = kernels.ik_joints_array(*np.moveaxis(target, -1, 0),
                                                lh, lt, l2, side)
        q[blk] = np.stack(angles, axis=-1)
        # the foot velocities are not needed; zero rates stand in for them
        back, J, _ = kernels.leg_kinematics(q[blk], np.zeros_like(target), coef)
        checks = (viol > 1e-9,
                  np.max(np.abs(back - target), axis=-1) > 1e-6,
                  np.abs(np.linalg.det(J)) < 1e-10)
        failed = np.logical_or.reduce(checks)
        if failed.any():
            k, i = np.argwhere(failed)[0]
            msgs = ("foot target outside workspace (overshoot %g)" % viol[k, i],
                    "IK branch mismatch at target %s" % target[k, i],
                    "singular leg configuration")
            raise InfeasiblePlan(stamps[blk.start + k],
                                 next(m for c, m in zip(checks, msgs) if c[k, i]))
        # no J of the block is singular here, so the stacked solve cannot fail
        dq[blk] = np.linalg.solve(J, rel_rate[blk][..., None])[..., 0]
        tau[blk] = _stance_torques(J, load[blk], stance[blk])
    return q, dq, tau


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


_STAND_Q = np.array([0.0, 0.8, -1.6])


def _generate_static(plan):
    """stand / wheel_roll / wheel_swing / hop: the standing pose, closed-form
    in time. Every channel is a column over all frames (F, ...), wheel angles
    wrapped too, and the frames and states hold row views into them."""
    dt = 1.0 / plan.rate_hz
    _check_frames(plan.duration / dt + 1)
    n_frames = int(round(plan.duration / dt)) + 1
    n_legs = len(plan.legs)
    t = np.arange(n_frames) * dt
    pos = np.zeros((n_frames, 3))
    pos[:, 2] = plan.body_height
    vel = np.zeros((n_frames, 3))
    airborne = np.zeros(n_frames, dtype=bool)
    q = np.tile(_STAND_Q, (n_frames, n_legs, 1))
    dq = np.zeros((n_frames, n_legs, 3))
    wheeled = [i for i, g in enumerate(plan.legs) if g.wheel_radius > 0.0]
    psi = dpsi = np.zeros((n_frames, len(wheeled)))
    if plan.mode == "hop" and plan.flight_window is not None:
        t0, t1 = plan.flight_window
        pos[:, 0] += plan.flight_speed * np.minimum(np.maximum(t - t0, 0.0), t1 - t0)
        airborne = (t0 <= t) & (t < t1)
        vel[airborne, 0] = plan.flight_speed
    elif plan.mode == "wheel_roll":
        pos[:, 0] += plan.speed * t
        vel[:, 0] = plan.speed
        rate = plan.speed / np.array([plan.legs[i].wheel_radius for i in wheeled])
        psi = rate * t[:, None]
        dpsi = np.broadcast_to(rate, psi.shape)
    elif plan.mode == "wheel_swing":
        amp, w = 0.3, 2.0 * np.pi / 2.0
        q[..., 1] += (amp * np.sin(w * t))[:, None]
        dq[..., 1] = (amp * w * np.cos(w * t))[:, None]
        # wheel pinned: encoder follows the shank pitch exactly
        psi = (q[:, wheeled, 1] + q[:, wheeled, 2]) - (_STAND_Q[1] + _STAND_Q[2])
        dpsi = dq[:, wheeled, 1] + dq[:, wheeled, 2]

    contacts = np.repeat(~airborne[:, None], n_legs, axis=1)
    load = np.zeros((n_frames, 3))
    load[~airborne, 2] = -plan.mass * GRAVITY / n_legs
    coef = kernels.leg_coefficients(*_leg_params(plan.legs)[:5])
    tau = np.empty_like(q)
    for blk in _blocks(n_frames):
        _, J, _ = kernels.leg_kinematics(q[blk], dq[blk], coef)
        tau[blk] = _stance_torques(J, load[blk], contacts[blk])

    joints = np.stack((q, dq, tau), axis=1)
    att = np.tile(rpy_to_quat(0.0, 0.0, 0.0), (n_frames, 1))
    gyro, rpy = np.zeros((n_frames, 3)), np.zeros((n_frames, 3))
    wheels = [None] * n_frames
    if wheeled:
        wheels = [[None] * n_legs for _ in range(n_frames)]
        for row, psi_k, dpsi_k in zip(wheels, wrap_angle(psi).tolist(), dpsi.tolist()):
            for i, a, b in zip(wheeled, psi_k, dpsi_k):
                row[i] = WheelReading(a, b)
    stamps = t.tolist()
    return GaitResult(list(map(SensorFrame, stamps, att, gyro, joints, wheels)),
                      list(map(BodyState, pos, rpy, vel, stamps)), contacts)


def generate_gait(plan: GaitPlan) -> GaitResult:
    """Produce a clean sensor stream plus its ground truth for a plan.

    Stance feet are exactly stationary in the world (wheel modes roll exactly
    at the commanded rate), joints come from the analytic IK, torques realize
    an equal split of body weight over the stance set, and the IMU channels
    are exact. Raises InfeasiblePlan with the first violating timestamp.
    """
    if plan.mode == "trot":
        return _generate_trot(plan)
    if plan.mode in MODES:
        return _generate_static(plan)
    raise ValueError("unknown gait mode %r" % plan.mode)


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

    The frames' stamps, att, gyro and joints are read once into (F,), (F, 4),
    (F, 3) and (F, 3, L, 3) arrays by `estimator.frame_columns`, the column
    reader the log writer shares, so every frame must have the same legs.
    Each imperfection but the wheel slip is a column pass over them (the yaw
    drift bit-equal to quat_to_rpy and rpy_to_quat frame by frame), and each
    output frame's att, gyro and joints are row views. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    if not frames:
        return []
    stamps, att, gyro, joints = frame_columns(frames)
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
        dq[1:] = (q[1:] - q[:-1]) / np.diff(stamps)[:, None, None]

    spikes = imperfections.get("rate_spikes")
    if spikes:
        prob, gain = spikes
        if prob > 0.0:
            # drawn frame by frame, leg by leg, joint by joint: a seed's
            # stream depends on this order
            hit = rng.random(dq.shape) < prob
            dq[:] = np.where(hit, dq * gain, dq)

    drift = float(imperfections.get("yaw_drift", 0.0) or 0.0)
    if drift != 0.0:
        # an overflowing drift gives NaN attitudes, silently, as on floats
        with np.errstate(over="ignore", invalid="ignore"):
            roll, pitch, yaw = quat_to_rpy_columns(att)
            yaw = wrap_angle(yaw + drift * (stamps - stamps[0]))
            att = rpy_to_quat(roll, pitch, yaw).T.copy()
    scale = 1.0 + float(imperfections.get("wheel_slip", 0.0) or 0.0)
    wheels = [None if fr.wheels is None else
              [None if w is None else WheelReading(w.psi, w.dpsi * scale) for w in fr.wheels]
              for fr in frames]
    return list(map(SensorFrame, (fr.stamp for fr in frames), att, gyro, joints, wheels))


__all__ = ["GaitPlan", "GaitResult", "StepTerrain", "InfeasiblePlan",
           "preset_plan", "PRESETS", "MODES", "generate_gait", "degrade", "GRAVITY"]
